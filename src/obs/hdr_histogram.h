#ifndef DPLEARN_OBS_HDR_HISTOGRAM_H_
#define DPLEARN_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace dplearn {
namespace obs {

/// A lock-free log-bucketed histogram in the HdrHistogram family: values are
/// binned by (binary exponent, linear sub-bucket), so the bucket width is
/// always a fixed fraction of the value. Record() is wait-free relaxed
/// atomics — safe in release hot paths — and quantile queries run on an
/// immutable Snapshot, never on the live counters.
///
/// Geometry and error bound
///   Sub-bucket resolution is 2^kSubBucketBits = 64 per octave, so every
///   bucket spans [x, x * (1 + 1/64)): any quantile estimate is within a
///   relative error of 1/64 ≈ 1.57% of some recorded value (quantiles are
///   reported as bucket upper edges, clamped to the exact observed min/max,
///   so p0 and p100 are exact). Values below 1.0 land in a single underflow
///   bucket (for latency-in-µs histograms that is "sub-microsecond");
///   values at or above 2^kMaxExponent saturate into the last bucket.
///   Negative and non-finite values clamp to the underflow bucket.
///
/// Determinism
///   A Snapshot copies the bucket array in index order and its Quantile()
///   walks that copy with integer arithmetic only, so two snapshots with
///   equal counts yield bit-identical quantiles regardless of the thread
///   interleaving that produced them ("bitwise-stable snapshot order").
class HdrHistogram {
 public:
  static constexpr int kSubBucketBits = 6;                  // 64 sub-buckets
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;
  static constexpr int kMaxExponent = 43;                   // ~8.8e12 max value
  static constexpr std::size_t kBucketCount =
      1 + static_cast<std::size_t>(kMaxExponent) * kSubBucketCount;

  /// Bucket index for `value` (see geometry above). Pure function — the
  /// unit tests pin edge placements with it.
  static std::size_t BucketIndex(double value);
  /// Inclusive upper edge of bucket `index`: every value binned there is
  /// <= this edge, and > the previous bucket's edge.
  static double BucketUpperEdge(std::size_t index);

  struct Snapshot {
    std::vector<std::uint64_t> counts;  // kBucketCount cells, index order
    std::uint64_t count = 0;
    double min = 0.0;  // exact observed extrema; 0/0 when empty
    double max = 0.0;

    /// Value at quantile q in [0,1]: the upper edge of the bucket holding
    /// the ceil(q*count)-th smallest recording, clamped to [min, max].
    /// Returns 0 when empty. Deterministic given `counts`.
    double Quantile(double q) const;
  };

  HdrHistogram();

  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  /// Wait-free: one bucket fetch_add plus min/max CAS refresh, all relaxed.
  void Record(double value);
  Snapshot GetSnapshot() const;
  void Reset();

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_HDR_HISTOGRAM_H_
