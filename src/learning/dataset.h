#ifndef DPLEARN_LEARNING_DATASET_H_
#define DPLEARN_LEARNING_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sampling/rng.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {

/// One record Z = (X, Y) of the statistical-prediction framework of
/// Section 2.2: a feature vector and a real-valued label. Classification
/// tasks encode labels in {-1, +1}; the Bernoulli-mean task uses {0, 1} with
/// an empty feature convention (single constant feature).
struct Example {
  Vector features;
  double label = 0.0;

  friend bool operator==(const Example& a, const Example& b) {
    return a.features == b.features && a.label == b.label;
  }
};

/// A sample Ẑ = {Z_1, ..., Z_n}. The *neighbor relation* of
/// differentially-private learning (Section 2.2 of the paper) is defined
/// here: two datasets are neighbors iff they have the same size and differ
/// in exactly one example.
class Dataset {
 public:
  Dataset() : generation_(NextGeneration()) {}
  explicit Dataset(std::vector<Example> examples)
      : examples_(std::move(examples)), generation_(NextGeneration()) {}

  /// A copy keeps its source's generation(). A move hands the generation
  /// to its target; the moved-from dataset is left empty with a fresh one.
  Dataset(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(const Dataset& other);
  Dataset& operator=(Dataset&& other) noexcept;

  std::size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  const Example& at(std::size_t i) const { return examples_[i]; }
  const std::vector<Example>& examples() const { return examples_; }

  /// Appends an example.
  void Add(Example example) {
    examples_.push_back(std::move(example));
    generation_ = NextGeneration();
  }

  /// Returns a neighbor: this dataset with example `index` replaced by
  /// `replacement`. Error if index is out of range.
  StatusOr<Dataset> ReplaceExample(std::size_t index, Example replacement) const;

  /// In-place label overwrite — the allocation-free step between
  /// neighboring datasets that differ only in one label (the channel
  /// builder walks all n+1 representative datasets this way instead of
  /// reconstructing n examples per step). Error if index is out of range.
  Status SetLabel(std::size_t index, double label) {
    if (index >= examples_.size()) {
      return InvalidArgumentError("Dataset::SetLabel: index out of range");
    }
    examples_[index].label = label;
    generation_ = NextGeneration();
    return Status::Ok();
  }

  /// Content identity, unique across the process: every constructor, Add,
  /// SetLabel and the moved-from side of a move take a fresh value from one
  /// process-wide counter, and only copies (and move targets) share one. So
  /// two datasets with equal generations hold bitwise-equal examples, even
  /// when they are distinct objects. The risk-profile cache relies on both
  /// halves: it snapshots the generation around a hash-then-compute window
  /// to refuse memoizing a fill torn by an in-place mutation, and a
  /// generation an entry has already verified proves a later hit equal
  /// without comparing the examples again.
  std::uint64_t generation() const { return generation_; }

  /// A 64-bit hash of the examples' bits (the Ẑ half of the risk-profile
  /// cache's key). Computed on first use and memoized per generation, so
  /// Add and SetLabel stay O(1); concurrent first calls on a const dataset
  /// compute and store the same value.
  std::uint64_t content_hash() const;

  /// Returns true iff `other` is a neighbor of this dataset (same size,
  /// exactly one differing example).
  bool IsNeighborOf(const Dataset& other) const;

  /// Dimensionality of the feature vectors (0 for an empty dataset).
  /// All examples are expected to share it.
  std::size_t FeatureDim() const { return empty() ? 0 : examples_[0].features.size(); }

  /// Splits into (train, test) with `train_fraction` of examples (rounded
  /// down) going to train, after a Fisher–Yates shuffle driven by `rng`.
  /// Error if the dataset is empty or the fraction is outside (0, 1).
  StatusOr<std::pair<Dataset, Dataset>> Split(double train_fraction, Rng* rng) const;

  friend bool operator==(const Dataset& a, const Dataset& b) {
    return a.examples_ == b.examples_;
  }

 private:
  static std::uint64_t NextGeneration();
  /// Copies `other`'s content_hash() memo, if it describes its generation.
  void CopyHashMemo(const Dataset& other);

  std::vector<Example> examples_;
  std::uint64_t generation_;
  /// content_hash() memo: `hash_` is the hash at generation
  /// `hashed_generation_` (0, which no dataset has, until the first call).
  mutable std::atomic<std::uint64_t> hashed_generation_{0};
  mutable std::atomic<std::uint64_t> hash_{0};
};

/// Enumerates all neighbors of `dataset` obtainable by replacing one example
/// with one element of `replacement_pool`. Skips no-op replacements. This is
/// the exhaustive neighbor sweep used by the empirical DP verifier on small
/// discrete domains.
std::vector<Dataset> EnumerateNeighbors(const Dataset& dataset,
                                        const std::vector<Example>& replacement_pool);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_DATASET_H_
