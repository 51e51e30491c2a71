#include "learning/dataset.h"

#include <algorithm>
#include <utility>

#include "util/content_hash.h"

namespace dplearn {

std::uint64_t Dataset::NextGeneration() {
  // Starts at 1: 0 marks an empty content_hash() memo.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Dataset::CopyHashMemo(const Dataset& other) {
  const std::uint64_t hashed = other.hashed_generation_.load(std::memory_order_acquire);
  if (hashed != other.generation_) return;
  hash_.store(other.hash_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  hashed_generation_.store(hashed, std::memory_order_release);
}

Dataset::Dataset(const Dataset& other)
    : examples_(other.examples_), generation_(other.generation_) {
  CopyHashMemo(other);
}

Dataset::Dataset(Dataset&& other) noexcept
    : examples_(std::move(other.examples_)), generation_(other.generation_) {
  CopyHashMemo(other);
  other.examples_.clear();
  other.generation_ = NextGeneration();
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  examples_ = other.examples_;
  generation_ = other.generation_;
  CopyHashMemo(other);
  return *this;
}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  examples_ = std::move(other.examples_);
  generation_ = other.generation_;
  CopyHashMemo(other);
  other.examples_.clear();
  other.generation_ = NextGeneration();
  return *this;
}

std::uint64_t Dataset::content_hash() const {
  if (hashed_generation_.load(std::memory_order_acquire) == generation_) {
    return hash_.load(std::memory_order_relaxed);
  }
  std::uint64_t h = HashMix(0x2545f4914f6cdd1dULL, examples_.size());
  for (const Example& z : examples_) {
    h = HashDoubles(h, z.features.data(), z.features.size());
    h = HashMix(h, DoubleBits(z.label));
  }
  hash_.store(h, std::memory_order_relaxed);
  hashed_generation_.store(generation_, std::memory_order_release);
  return h;
}

StatusOr<Dataset> Dataset::ReplaceExample(std::size_t index, Example replacement) const {
  if (index >= examples_.size()) {
    return OutOfRangeError("Dataset::ReplaceExample: index out of range");
  }
  std::vector<Example> copy = examples_;
  copy[index] = std::move(replacement);
  return Dataset(std::move(copy));
}

bool Dataset::IsNeighborOf(const Dataset& other) const {
  if (size() != other.size()) return false;
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!(examples_[i] == other.examples_[i])) {
      if (++diffs > 1) return false;
    }
  }
  return diffs == 1;
}

StatusOr<std::pair<Dataset, Dataset>> Dataset::Split(double train_fraction, Rng* rng) const {
  if (empty()) return FailedPreconditionError("Dataset::Split: dataset is empty");
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    return InvalidArgumentError("Dataset::Split: train_fraction must be in (0,1)");
  }
  std::vector<Example> shuffled = examples_;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng->NextBounded(i));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  const std::size_t train_count =
      static_cast<std::size_t>(train_fraction * static_cast<double>(shuffled.size()));
  std::vector<Example> train(shuffled.begin(),
                             shuffled.begin() + static_cast<std::ptrdiff_t>(train_count));
  std::vector<Example> test(shuffled.begin() + static_cast<std::ptrdiff_t>(train_count),
                            shuffled.end());
  return std::make_pair(Dataset(std::move(train)), Dataset(std::move(test)));
}

std::vector<Dataset> EnumerateNeighbors(const Dataset& dataset,
                                        const std::vector<Example>& replacement_pool) {
  std::vector<Dataset> neighbors;
  neighbors.reserve(dataset.size() * replacement_pool.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (const Example& replacement : replacement_pool) {
      if (replacement == dataset.at(i)) continue;
      neighbors.push_back(dataset.ReplaceExample(i, replacement).value());
    }
  }
  return neighbors;
}

}  // namespace dplearn
