#ifndef DPLEARN_PROPTEST_GENERATORS_H_
#define DPLEARN_PROPTEST_GENERATORS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "learning/dataset.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "proptest/arbitrary.h"
#include "util/status.h"

namespace dplearn {
namespace proptest {

/// Domain-specific instance generators for the paper's invariant suites:
/// datasets, hypothesis grids, loss configurations, probability
/// distributions, and (ε, λ, α) parameter ranges. Structured values are
/// generated through small spec structs so shrinking operates on the spec
/// (drop an example, narrow a grid) rather than on opaque objects.

// ---------------------------------------------------------------------------
// Probability distributions.

/// A random probability vector with support size in [min_support,
/// max_support]. The generator mixes three regimes so invariant suites see
/// the shapes that break naive float code: smooth (uniform-ish weights),
/// spiky (one cell carries almost all mass — where rounding drives entropy
/// tiny-negative), and sparse (a fraction of exact zeros — where log(0)
/// conventions matter). Shrinks by cutting support and flattening toward
/// uniform.
Arbitrary<std::vector<double>> ArbitraryDistribution(std::size_t min_support,
                                                     std::size_t max_support);

/// A pair of distributions over one common support — the input shape of
/// every divergence invariant. Second element occasionally equals the
/// first (the D(p‖p) = 0 corner) and occasionally has disjoint support
/// zeros (the +inf corner).
Arbitrary<std::pair<std::vector<double>, std::vector<double>>> ArbitraryDistributionPair(
    std::size_t min_support, std::size_t max_support);

/// A row-stochastic channel matrix with `inputs` rows over `outputs`
/// columns, rows drawn from ArbitraryDistribution (all-positive regime, so
/// composed channels stay strictly positive and DPI ratios stay finite).
Arbitrary<std::vector<std::vector<double>>> ArbitraryChannel(std::size_t inputs,
                                                             std::size_t outputs);

// ---------------------------------------------------------------------------
// Datasets.

/// A Bernoulli dataset (features {1}, labels in {0,1}) of size in
/// [min_n, max_n] — the paper's exactly-enumerable task. Shrinks by
/// dropping examples and zeroing labels.
Arbitrary<Dataset> ArbitraryBernoulliDataset(std::size_t min_n, std::size_t max_n);

/// A bounded regression dataset: feature dim in [1, max_dim], all features
/// and labels in [-radius, radius]. Values include exact zeros, negative
/// values, and magnitudes spread log-uniformly so CSV round-trip and risk
/// paths see both 1e-12 and 1e+6 scales. Shrinks by dropping examples.
Arbitrary<Dataset> ArbitraryRegressionDataset(std::size_t min_n, std::size_t max_n,
                                              std::size_t max_dim, double radius);

// ---------------------------------------------------------------------------
// Hypothesis grids and losses.

/// Spec for a scalar hypothesis grid (FiniteHypothesisClass::ScalarGrid).
struct GridSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t count = 2;
};

/// Random grid over a sub-interval of [-bound, bound] with count in
/// [2, max_count]. Shrinks count toward 2.
Arbitrary<GridSpec> ArbitraryGridSpec(double bound, std::size_t max_count);

/// Materializes the grid (never fails for specs this generator produces).
StatusOr<FiniteHypothesisClass> MakeGrid(const GridSpec& spec);

/// Spec for a bounded loss function.
struct LossConfig {
  enum class Kind { kClippedSquared, kLogistic } kind = Kind::kClippedSquared;
  double clip = 1.0;
};

/// Random loss kind with clip log-uniform in [0.25, 4]. Shrinks clip
/// toward 1 (the canonical [0,1] loss of the paper).
Arbitrary<LossConfig> ArbitraryLossConfig();

/// Materializes the loss. The returned object is self-contained.
std::unique_ptr<LossFunction> MakeLoss(const LossConfig& config);

/// Human-readable rendering (for counterexample reports).
std::string DescribeLossConfig(const LossConfig& config);

// ---------------------------------------------------------------------------
// DP parameter ranges.

/// The (ε, λ, α) tuple the mechanism and info-theory suites sweep.
struct DpParams {
  double epsilon = 1.0;  // log-uniform over [1e-3, eps_hi]
  double lambda = 1.0;   // log-uniform over [1e-2, 1e3]
  double alpha = 2.0;    // Rényi order: (0, 4], never exactly 1
};

/// Random parameter tuple. `eps_hi` controls how far the ε sweep reaches;
/// mechanism-release suites pass single digits. Shrinks every coordinate
/// toward benign values (ε, λ → small; α → 2).
Arbitrary<DpParams> ArbitraryDpParams(double eps_hi);

}  // namespace proptest
}  // namespace dplearn

#endif  // DPLEARN_PROPTEST_GENERATORS_H_
