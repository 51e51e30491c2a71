#ifndef DPLEARN_LEARNING_HYPOTHESIS_H_
#define DPLEARN_LEARNING_HYPOTHESIS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {

/// A finite predictor space Θ = {theta_1, ..., theta_m}. Finite Θ is the
/// setting where every object of the paper — Gibbs posterior, KL terms,
/// I(Ẑ;θ) — is *exactly* computable, making theorem checks sharp. Continuous
/// Θ is handled by gridding (this class, via ScalarGrid) or MCMC
/// (core/gibbs_estimator.h).
///
/// The θ list is immutable and shared: copies (and moves, which copy) share
/// one list, one process-unique id() and one content_hash(), all fixed at
/// creation. Copying a class — once per served Gibbs request, into its
/// GibbsEstimator — therefore allocates nothing, and the risk-profile cache
/// can take an id it has already verified as proof that Θ is unchanged.
class FiniteHypothesisClass {
 public:
  /// Wraps an explicit list of parameter vectors. Error if empty or if the
  /// vectors do not all share one dimension.
  static StatusOr<FiniteHypothesisClass> Create(std::vector<Vector> thetas);

  /// A 1-D grid of `count` scalar hypotheses evenly spaced on [lo, hi];
  /// each hypothesis is the 1-vector {theta}. Error via Linspace on bad
  /// arguments.
  static StatusOr<FiniteHypothesisClass> ScalarGrid(double lo, double hi, std::size_t count);

  // No move operations: a moved-from class must keep its list, so a move
  // copies the shared pointer.
  FiniteHypothesisClass(const FiniteHypothesisClass&) = default;
  FiniteHypothesisClass& operator=(const FiniteHypothesisClass&) = default;

  std::size_t size() const { return thetas_->size(); }
  const Vector& at(std::size_t i) const { return (*thetas_)[i]; }
  const std::vector<Vector>& thetas() const { return *thetas_; }

  /// Unique per Create/ScalarGrid call across the process; shared by copies.
  std::uint64_t id() const { return id_; }
  /// ThetaContentHash(thetas()), computed once at creation.
  std::uint64_t content_hash() const { return content_hash_; }

  /// The uniform prior over this class — the default base measure π of the
  /// exponential mechanism when no domain knowledge is supplied.
  std::vector<double> UniformPrior() const;

  /// Index of the hypothesis minimizing `scores` (ties -> lowest index).
  /// Error if scores.size() != size().
  StatusOr<std::size_t> ArgMin(const std::vector<double>& scores) const;

 private:
  explicit FiniteHypothesisClass(std::vector<Vector> thetas);

  std::shared_ptr<const std::vector<Vector>> thetas_;
  std::uint64_t id_;
  std::uint64_t content_hash_;
};

/// A 64-bit hash of Θ's bits (the Θ half of the risk-profile cache's key),
/// for callers that hold a bare list rather than a FiniteHypothesisClass.
std::uint64_t ThetaContentHash(const std::vector<Vector>& thetas);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_HYPOTHESIS_H_
