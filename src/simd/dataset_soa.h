#ifndef DPLEARN_SRC_SIMD_DATASET_SOA_H_
#define DPLEARN_SRC_SIMD_DATASET_SOA_H_

#include <cstddef>
#include <vector>

namespace dplearn {
namespace simd {

/// Structure-of-arrays mirror of a learning/Dataset: feature j of every
/// example is contiguous (column-major), labels are contiguous. This is the
/// layout the risk kernels stream over — the array-of-structs Dataset costs
/// one pointer chase per example (each Example owns its feature vector on a
/// separate heap block) exactly in the O(|Θ|·n) loop the profile pays |Θ|
/// times over.
///
/// The container is layout-only: it holds raw doubles and knows nothing of
/// learning/Dataset (the builder lives in learning/risk, keeping simd a
/// leaf library). Reset() reuses capacity, so a thread-local instance
/// rebuilds from a new dataset without touching the heap once warmed.
class DatasetSoA {
 public:
  DatasetSoA() = default;

  /// Re-shapes to n examples of dimension dim; prior contents discarded,
  /// capacity reused. Values are uninitialized until written through
  /// mutable_column()/mutable_labels().
  void Reset(std::size_t n, std::size_t dim) {
    n_ = n;
    dim_ = dim;
    features_.resize(n * dim);
    labels_.resize(n);
  }

  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  /// Feature j of examples 0..n-1, contiguous.
  const double* column(std::size_t j) const { return features_.data() + j * n_; }
  double* mutable_column(std::size_t j) { return features_.data() + j * n_; }

  const double* labels() const { return labels_.data(); }
  double* mutable_labels() { return labels_.data(); }

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> features_;  // column-major: [j * n_ + i]
  std::vector<double> labels_;
};

}  // namespace simd
}  // namespace dplearn

#endif  // DPLEARN_SRC_SIMD_DATASET_SOA_H_
