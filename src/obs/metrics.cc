#include "obs/metrics.h"

#include "obs/json_writer.h"
#include "util/logging.h"

namespace dplearn {
namespace obs {

void Histogram::Observe(double value) {
  AtomicAddDouble(&sum_, value);
  hdr_.Record(value);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.hdr = hdr_.GetSnapshot();
  snap.count = snap.hdr.count;
  return snap;
}

void Histogram::Reset() {
  sum_.store(0.0, std::memory_order_relaxed);
  hdr_.Reset();
}

const std::vector<double>& DefaultLatencyBucketsUs() {
  static const std::vector<double> buckets = {
      1,     2,     5,     10,     20,     50,     100,    200,    500,
      1e3,   2e3,   5e3,   1e4,    2e4,    5e4,    1e5,    2e5,    5e5,
      1e6,   2e6,   5e6};
  return buckets;
}

void MetricsRegistry::CheckNameFree(const std::string& name,
                                    const void* except_table) const {
  // mu_ is held by the caller.
  if (except_table != &counters_) {
    DPLEARN_CHECK(counters_.find(name) == counters_.end())
        << "metric '" << name << "' already registered as a counter";
  }
  if (except_table != &gauges_) {
    DPLEARN_CHECK(gauges_.find(name) == gauges_.end())
        << "metric '" << name << "' already registered as a gauge";
  }
  if (except_table != &histograms_) {
    DPLEARN_CHECK(histograms_.find(name) == histograms_.end())
        << "metric '" << name << "' already registered as a histogram";
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    CheckNameFree(name, &counters_);
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    CheckNameFree(name, &gauges_);
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CheckNameFree(name, &histograms_);
    it = histograms_.emplace(name, std::unique_ptr<Histogram>(new Histogram())).first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->GetSnapshot());
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsRegistry::ExportJson() const {
  const Snapshot snap = GetSnapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) w.Key(name).Value(value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.gauges) w.Key(name).Value(value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, hist] : snap.histograms) {
    w.Key(name).BeginObject();
    w.Key("count").Value(hist.count);
    w.Key("sum").Value(hist.sum);
    w.Key("mean").Value(hist.Mean());
    // Tail shape from the HDR layer: exact extrema, log-bucketed quantiles
    // (relative error <= 1/64; see obs/hdr_histogram.h).
    w.Key("min").Value(hist.Min());
    w.Key("max").Value(hist.Max());
    w.Key("p50").Value(hist.Quantile(0.5));
    w.Key("p90").Value(hist.Quantile(0.9));
    w.Key("p99").Value(hist.Quantile(0.99));
    w.Key("p999").Value(hist.Quantile(0.999));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace obs
}  // namespace dplearn
