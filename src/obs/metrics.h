#ifndef DPLEARN_OBS_METRICS_H_
#define DPLEARN_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr_histogram.h"
#include "util/status.h"

namespace dplearn {
namespace obs {

/// Adds `delta` to an atomic<double> without requiring C++20 floating-point
/// fetch_add support from the standard library (GCC 12's is emulated anyway).
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

/// This thread's index, dealt once per thread in the order threads first
/// ask, and kept for life. Per-thread striped state (Counter cells, the
/// risk-profile cache's reader stripes) takes it modulo its stripe count,
/// so up to that many threads never share a stripe.
inline std::size_t ThreadIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// A monotonically increasing event count. All operations are lock-free
/// relaxed atomics — the metrics fast path. Each thread adds to its own
/// cache-line cell (ThreadIndex() modulo kCells), so threads that count the
/// same event do not contend; Value() sums the cells.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  void Increment(std::uint64_t delta = 1) {
    cells_[ThreadIndex() % kCells].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  Cell cells_[kCells];
};

/// A last-written instantaneous value (e.g. an acceptance rate). Lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { AtomicAddDouble(&value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A latency histogram: the HDR-style log buckets of obs/hdr_histogram.h,
/// which give p50/p99/p99.9 with relative error bounded by 1/64, the exact
/// count and exact min/max, plus a running sum for the mean.
///
/// Observe() is lock-free; GetSnapshot() reads the atomics without stopping
/// writers, so a snapshot taken during concurrent observation is
/// approximate across cells (each individual cell is exact), and quantiles
/// are computed from the copied snapshot in fixed bucket order — bitwise
/// stable given equal counts.
class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;   // hdr.count
    double sum = 0.0;
    HdrHistogram::Snapshot hdr;
    double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    /// Quantile from the HDR layer (see HdrHistogram::Snapshot::Quantile).
    double Quantile(double q) const { return hdr.Quantile(q); }
    double Min() const { return hdr.min; }
    double Max() const { return hdr.max; }
  };

  void Observe(double value);
  Snapshot GetSnapshot() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  std::atomic<double> sum_{0.0};
  HdrHistogram hdr_;
};

/// RAII wall-time recorder for release hot paths: observes the scope's
/// elapsed microseconds into `histogram` on destruction, or does nothing
/// when constructed with nullptr (the metrics-disabled case) — call sites
/// gate on MetricsEnabled() at construction so a disabled run pays one
/// branch and no clock reads.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~LatencyTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Observe(std::chrono::duration<double, std::micro>(elapsed).count());
  }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Bounds that GetHistogram ignores, kept for perfbench/service.cc, the only caller.
const std::vector<double>& DefaultLatencyBucketsUs();

/// A process-wide name → metric table. Registration (GetCounter/GetGauge/
/// GetHistogram) takes a mutex and is intended for cold paths — call sites
/// cache the returned pointer (commonly in a function-local static); the
/// pointer stays valid for the registry's lifetime, across Reset calls.
/// Updates through the returned handles are lock-free.
///
/// Names are namespaced with dots, e.g. "mechanism.laplace.releases"; see
/// DESIGN.md §7 for the catalogue.
class MetricsRegistry {
 public:
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;   // name-sorted
    std::vector<std::pair<std::string, double>> gauges;            // name-sorted
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };

  /// Returns the metric registered under `name`, creating it on first use.
  /// Registering the same name as two different kinds is a programming
  /// error and aborts.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  /// Ignores the bounds; perfbench/service.cc is the only caller.
  Histogram* GetHistogram(const std::string& name, const std::vector<double>& /*bounds*/) {
    return GetHistogram(name);
  }

  Snapshot GetSnapshot() const;
  /// Zeroes every value; registered metrics (and cached pointers) survive.
  void ResetAll();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}
  std::string ExportJson() const;

  /// Prometheus text exposition format 0.0.4 (implemented in
  /// obs/exposition.cc). Dotted names are sanitized to `dplearn_*` metric
  /// families; counters gain the `_total` suffix; histograms are exported
  /// as summaries with quantile="0.5|0.9|0.99|0.999" samples plus _sum and
  /// _count; gauges named `tenant.<id>.<field>` become
  /// `dplearn_tenant_<field>{tenant="<id>"}` label families. See DESIGN.md
  /// §12 for the full mapping.
  std::string WriteExposition() const;

 private:
  void CheckNameFree(const std::string& name, const void* except_table) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The registry all library instrumentation writes to.
MetricsRegistry& GlobalMetrics();

/// Writes `registry`'s Prometheus exposition to `path` atomically (see
/// internal::WriteFileAtomically). UNAVAILABLE on I/O failure.
Status WriteExpositionFile(const MetricsRegistry& registry, const std::string& path);

namespace internal {

/// Writes `text` to `path` atomically: the text goes to `path.tmp` first and
/// is renamed into place, so a reader (a scraper, the node-exporter textfile
/// collector, a trace viewer) never sees a torn file. UNAVAILABLE on I/O
/// failure, with `writer` naming the caller. Shared by WriteExpositionFile
/// and WriteChromeTrace; implemented in obs/exposition.cc.
Status WriteFileAtomically(const std::string& path, std::string_view text,
                           std::string_view writer);

}  // namespace internal

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_METRICS_H_
