#include "obs/hdr_histogram.h"

#include <cmath>
#include <limits>

namespace dplearn {
namespace obs {
namespace {

/// CAS-min/max for atomic<double> without fetch_min support; relaxed is
/// enough — the extrema are telemetry, not synchronization.
void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t HdrHistogram::BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // <1, negative, NaN: underflow bucket
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = m * 2^e, m in [0.5,1)
  (void)mantissa;
  const int octave = exponent - 1;  // floor(log2(value))
  if (octave >= kMaxExponent) return kBucketCount - 1;
  // Linear position inside the octave: value / 2^octave - 1 in [0, 1).
  const double frac = std::ldexp(value, -octave) - 1.0;
  int sub = static_cast<int>(frac * kSubBucketCount);
  if (sub >= kSubBucketCount) sub = kSubBucketCount - 1;  // value == 2^(octave+1) - ulp
  return 1 + static_cast<std::size_t>(octave) * kSubBucketCount +
         static_cast<std::size_t>(sub);
}

double HdrHistogram::BucketUpperEdge(std::size_t index) {
  if (index == 0) return 1.0;
  const std::size_t linear = index - 1;
  const std::size_t octave = linear / kSubBucketCount;
  const std::size_t sub = linear % kSubBucketCount;
  // Upper edge of sub-bucket `sub` in octave `octave`:
  //   2^octave * (1 + (sub+1)/64)
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBucketCount,
                    static_cast<int>(octave));
}

HdrHistogram::HdrHistogram()
    : buckets_(new std::atomic<std::uint64_t>[kBucketCount]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i].store(0);
}

void HdrHistogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double clamped = std::isnan(value) ? 0.0 : value;
  AtomicMinDouble(&min_, clamped);
  AtomicMaxDouble(&max_, clamped);
}

HdrHistogram::Snapshot HdrHistogram::GetSnapshot() const {
  Snapshot snap;
  snap.counts.resize(kBucketCount);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  const double min = min_.load(std::memory_order_relaxed);
  const double max = max_.load(std::memory_order_relaxed);
  snap.min = std::isfinite(min) ? min : 0.0;
  snap.max = std::isfinite(max) ? max : 0.0;
  return snap;
}

void HdrHistogram::Reset() {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

double HdrHistogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the target recording, 1-based; q in (0,1) so rank in [1, count].
  const double scaled = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(scaled));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      const double edge = BucketUpperEdge(i);
      // Clamp into the exact observed range: a quantile can never exceed
      // the largest recording or undershoot the smallest.
      if (edge < min) return min;
      if (edge > max) return max;
      return edge;
    }
  }
  return max;  // unreachable when counts are consistent with count
}

}  // namespace obs
}  // namespace dplearn
