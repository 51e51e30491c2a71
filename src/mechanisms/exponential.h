#ifndef DPLEARN_MECHANISMS_EXPONENTIAL_H_
#define DPLEARN_MECHANISMS_EXPONENTIAL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "learning/dataset.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// Quality function q(x, u): scores candidate output index `u` on dataset
/// `x` (Section 2.1 of the paper, McSherry–Talwar 2007). Higher is better.
/// Must be a deterministic pure function.
using QualityFn = std::function<double(const Dataset&, std::size_t)>;

/// The exponential mechanism over a FINITE output range
/// {0, ..., num_candidates-1} with base measure `prior`:
///
///   P(output = u | x)  ∝  exp(ε · q(x, u)) · prior[u].
///
/// Theorem 2.2 of the paper: this is 2εΔq-differentially private, where Δq
/// is the global sensitivity of q in its dataset argument (uniformly over
/// candidates). The mechanism is "the most general formulation of a
/// differentially-private mechanism"; the Gibbs estimator of the paper
/// (core/gibbs_estimator.h) is exactly this object with q = -R̂ and the
/// PAC-Bayes prior π as base measure.
class ExponentialMechanism {
 public:
  /// `epsilon` is the exponent scale ε above (NOT the final privacy level;
  /// see PrivacyGuaranteeEpsilon). `quality_sensitivity` is the caller's
  /// claim for Δq. `prior` must be a probability vector of length
  /// `num_candidates`. Errors on invalid arguments.
  static StatusOr<ExponentialMechanism> Create(QualityFn quality, std::size_t num_candidates,
                                               std::vector<double> prior, double epsilon,
                                               double quality_sensitivity);

  /// Convenience: uniform base measure.
  static StatusOr<ExponentialMechanism> CreateUniform(QualityFn quality,
                                                      std::size_t num_candidates,
                                                      double epsilon,
                                                      double quality_sensitivity);

  /// Calibrated constructor: chooses the exponent scale ε = target/(2Δq) so
  /// that PrivacyGuaranteeEpsilon() == target_epsilon exactly.
  static StatusOr<ExponentialMechanism> CreateWithTargetPrivacy(
      QualityFn quality, std::size_t num_candidates, std::vector<double> prior,
      double target_epsilon, double quality_sensitivity);

  /// The EXACT output distribution on `data` — computable because the range
  /// is finite. The empirical DP verifier and the channel construction use
  /// this directly.
  StatusOr<std::vector<double>> OutputDistribution(const Dataset& data) const;

  /// Draws one output index (via the Gumbel-max trick; no normalization).
  StatusOr<std::size_t> Sample(const Dataset& data, Rng* rng) const;

  /// Draws `k` output indices into *out (resized to k), evaluating the
  /// quality function and log-weights ONCE for the whole block instead of
  /// once per draw. Bit- and stream-identical to k Sample() calls on the
  /// same Rng, and each draw is still an individual release (one
  /// "mechanism.sample" fail-point crossing and one metrics tick per draw,
  /// in draw order) — batching is a perf shape, not a change to the privacy
  /// accounting. On error after j successful draws, out[0..j) holds those
  /// draws and out is sized j.
  Status SampleBatch(const Dataset& data, Rng* rng, std::size_t k,
                     std::vector<std::size_t>* out) const;

  /// The privacy level guaranteed by Theorem 2.2: 2 · ε · Δq.
  double PrivacyGuaranteeEpsilon() const { return 2.0 * epsilon_ * quality_sensitivity_; }

  /// McSherry–Talwar utility bound: with probability at least 1 - delta the
  /// sampled output u satisfies q(x,u*) - q(x,u) <= ln(|U|/delta) / ε,
  /// where u* is the best candidate. Returns that quality-gap bound.
  /// Error if delta outside (0,1).
  StatusOr<double> UtilityGapBound(double delta) const;

  double epsilon() const { return epsilon_; }
  double quality_sensitivity() const { return quality_sensitivity_; }
  std::size_t num_candidates() const { return prior_.size(); }
  const std::vector<double>& prior() const { return prior_; }

 private:
  ExponentialMechanism(QualityFn quality, std::vector<double> prior, double epsilon,
                       double quality_sensitivity);

  /// Unnormalized log-weights ε·q(x,u) + log prior[u], via the shared
  /// simd::TiltLogWeights kernel against the log-prior precomputed at
  /// construction — the same instruction sequence the Gibbs estimator tilts
  /// with (Theorem 4.1's identification held bitwise).
  std::vector<double> LogWeights(const Dataset& data) const;

  QualityFn quality_;
  std::vector<double> prior_;
  /// log prior[u] (-inf for zero mass), hoisted out of every release.
  std::vector<double> log_prior_;
  double epsilon_;
  double quality_sensitivity_;
};

/// Report-noisy-max: adds independent Lap(Δq/ε) noise to each candidate's
/// quality score and returns the argmax — an ε-DP selection alternative to
/// the exponential mechanism, included as the standard comparison point.
class ReportNoisyMax {
 public:
  static StatusOr<ReportNoisyMax> Create(QualityFn quality, std::size_t num_candidates,
                                         double epsilon, double quality_sensitivity);

  StatusOr<std::size_t> Sample(const Dataset& data, Rng* rng) const;

  double epsilon() const { return epsilon_; }

 private:
  ReportNoisyMax(QualityFn quality, std::size_t num_candidates, double epsilon,
                 double quality_sensitivity)
      : quality_(std::move(quality)),
        num_candidates_(num_candidates),
        epsilon_(epsilon),
        quality_sensitivity_(quality_sensitivity) {}

  QualityFn quality_;
  std::size_t num_candidates_;
  double epsilon_;
  double quality_sensitivity_;
};

}  // namespace dplearn

#endif  // DPLEARN_MECHANISMS_EXPONENTIAL_H_
