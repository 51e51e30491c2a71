#ifndef DPLEARN_CORE_GIBBS_ESTIMATOR_H_
#define DPLEARN_CORE_GIBBS_ESTIMATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "learning/dataset.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/streaming_risk.h"
#include "mechanisms/exponential.h"
#include "sampling/metropolis.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// The Gibbs estimator / Gibbs posterior (Lemma 3.2 of the paper):
///
///   dπ̂_λ(θ)  =  exp(-λ R̂_Ẑ(θ)) dπ(θ) / E_{θ~π}[exp(-λ R̂_Ẑ(θ))]
///
/// the posterior that minimizes Catoni's PAC-Bayes bound for inverse
/// temperature λ and prior π. The paper's central observation (Theorem 4.1)
/// is that this is EXACTLY the exponential mechanism with quality function
/// q(Ẑ, θ) = -R̂_Ẑ(θ), hence 2λΔ(R̂)-differentially private, where Δ(R̂) is
/// the global sensitivity of the empirical risk (at most B/n for a loss
/// bounded by B).
///
/// This class is the finite-Θ (exactly computable) form; see
/// SampleGibbsContinuous for continuous Θ via MCMC.
class GibbsEstimator {
 public:
  /// `lambda` is the inverse temperature (the paper overloads ε for it).
  /// `prior` must be a distribution over hclass. `loss` must outlive the
  /// estimator. Errors on invalid arguments.
  static StatusOr<GibbsEstimator> Create(const LossFunction* loss,
                                         FiniteHypothesisClass hclass,
                                         std::vector<double> prior, double lambda);

  /// Uniform-prior convenience.
  static StatusOr<GibbsEstimator> CreateUniform(const LossFunction* loss,
                                                FiniteHypothesisClass hclass, double lambda);

  /// The exact posterior π̂_λ(· | data) over hypothesis indices.
  /// Error if data is empty.
  StatusOr<std::vector<double>> Posterior(const Dataset& data) const;

  /// The empirical-risk profile R̂_data(θ_i) over the hypothesis class —
  /// the λ-invariant part of every posterior/sample below, served through
  /// the process-wide perf::RiskProfileCache so ε/λ grid sweeps over one
  /// dataset compute it once. Error if data is empty.
  StatusOr<std::vector<double>> RiskProfile(const Dataset& data) const;

  /// Draws one hypothesis index from the posterior. On a risk-cache hit it
  /// tilts the cached profile in place, so a warm draw copies no profile
  /// and allocates nothing.
  StatusOr<std::size_t> Sample(const Dataset& data, Rng* rng) const;

  /// Sample() with the risk profile supplied by the caller — the fast path
  /// for sweeps that evaluate many temperatures/priors against one profile
  /// (λ selection, grid experiments). Bit-identical to Sample() when
  /// `risks` equals RiskProfile(data). Error if risks is empty or sized
  /// differently from the hypothesis class.
  StatusOr<std::size_t> SampleGivenRisks(const std::vector<double>& risks, Rng* rng) const;

  /// Draws `k` posterior indices into *out (resized to k), computing the
  /// risk profile and log-weights once for the whole block — bit- and
  /// stream-identical to k Sample() calls on the same Rng. Error as
  /// Sample(); on error *out is left resized but unspecified.
  Status SampleBatch(const Dataset& data, Rng* rng, std::size_t k,
                     std::vector<std::size_t>* out) const;

  /// Draws one hypothesis index re-tilted from a LIVE streaming profile:
  /// snapshots the profile's current risks (allocation-free in steady
  /// state) and feeds them through the same tilt + Gumbel-max path as
  /// SampleGivenRisks — bit- and stream-identical to
  /// SampleGivenRisks(*profile.Snapshot(), rng). The profile must be built
  /// over this estimator's hypothesis class (sizes are checked; the risks
  /// themselves are the caller's responsibility, as with SampleGivenRisks).
  /// The draw is 2λΔ(R̂)-DP against the profile's LIVE dataset, so Δ = B/n
  /// uses the profile's current size(), not a batch dataset's.
  /// FailedPrecondition on an empty stream; InvalidArgument on a |Θ|
  /// mismatch.
  StatusOr<std::size_t> SampleStreaming(const StreamingRiskProfile& profile,
                                        Rng* rng) const;

  /// Draws `k` indices from the live streaming posterior into *out (resized
  /// to k) — bit- and stream-identical to k SampleStreaming() calls on the
  /// same Rng against an unchanged profile. Error as SampleStreaming().
  Status SampleStreamingBatch(const StreamingRiskProfile& profile, Rng* rng,
                              std::size_t k, std::vector<std::size_t>* out) const;

  /// Draws one parameter vector from the posterior.
  StatusOr<Vector> SampleTheta(const Dataset& data, Rng* rng) const;

  /// E_{θ~π̂}[R̂_Ẑ(θ)] — the first term of the PAC-Bayes objective.
  StatusOr<double> ExpectedEmpiricalRisk(const Dataset& data) const;

  /// D_KL(π̂(·|data) ‖ π) — the second term of the PAC-Bayes objective.
  StatusOr<double> KlToPrior(const Dataset& data) const;

  /// Privacy level from Theorem 4.1: 2·λ·sensitivity, with `sensitivity`
  /// the caller's bound on Δ(R̂) (e.g. loss->UpperBound()/n, or the exact
  /// domain sensitivity from ExactRiskSensitivity). Error if
  /// sensitivity <= 0.
  StatusOr<double> PrivacyGuaranteeEpsilon(double sensitivity) const;

  /// The same object expressed as a McSherry–Talwar exponential mechanism
  /// with q = -R̂ and base measure π — the identification at the heart of
  /// the paper. Tests assert Posterior() == this mechanism's
  /// OutputDistribution() pointwise.
  StatusOr<ExponentialMechanism> AsExponentialMechanism(double sensitivity) const;

  double lambda() const { return lambda_; }
  const FiniteHypothesisClass& hypothesis_class() const { return hclass_; }
  const std::vector<double>& prior() const { return prior_; }
  const LossFunction& loss() const { return *loss_; }

 private:
  /// Unnormalized log posterior weights -λ·R̂(θ_i) + log π(θ_i) written into
  /// *log_w (resized) — the shared per-hypothesis pass behind Sample() and
  /// SampleBatch(), evaluated by the simd::TiltLogWeights kernel against the
  /// log-prior precomputed at construction. The risk profile feeding it
  /// comes from RiskProfile() (cached; runs on the global thread pool for
  /// large problems).
  void LogWeightsFromRisks(const std::vector<double>& risks,
                           std::vector<double>* log_w) const;

  /// LogWeightsFromRisks over data's risk profile, read in place from the
  /// risk cache (perf::VisitCachedRiskProfile) — the tilt of Sample() and
  /// SampleBatch().
  Status TiltFromProfile(const Dataset& data, std::vector<double>* log_w) const;

  GibbsEstimator(const LossFunction* loss, FiniteHypothesisClass hclass,
                 std::vector<double> prior, double lambda);

  const LossFunction* loss_;  // not owned
  FiniteHypothesisClass hclass_;
  std::vector<double> prior_;
  /// log π(θ_i), with zero-mass atoms at -inf — hoisted out of the sampling
  /// hot path (it is λ/data-invariant, and log() per hypothesis per draw was
  /// a measurable share of SampleGivenRisks).
  std::vector<double> log_prior_;
  double lambda_;
};

/// Computes the Gibbs posterior directly from a risk profile and a prior —
/// the pure math of Lemma 3.2, used by modules that already hold risk
/// vectors (the channel builder, the PAC-Bayes optimizer). Errors on empty
/// or mismatched input, lambda < 0, or invalid prior.
StatusOr<std::vector<double>> GibbsPosteriorFromRisks(const std::vector<double>& risks,
                                                      const std::vector<double>& prior,
                                                      double lambda);

/// Allocation-free core of GibbsPosteriorFromRisks for callers that hold a
/// PRE-VALIDATED prior in log space (log π(θ_i), -inf for zero mass) and an
/// output row to fill: writes the posterior probabilities into out[0..n).
/// out == risks or out == log_prior aliasing is not allowed. The channel
/// builder calls this once per row of an |X|×|Θ| channel with the log-prior
/// hoisted out of the loop. Error if n == 0, lambda < 0, or the weights sum
/// to zero.
Status GibbsPosteriorFromRisksInto(const double* risks, const double* log_prior,
                                   std::size_t n, double lambda, double* out);

/// Continuous-Θ Gibbs sampling: draws `num_samples` parameter vectors from
/// dπ̂ ∝ exp(-λ R̂_Ẑ(θ)) exp(log_prior(θ)) dθ by random-walk Metropolis.
/// `log_prior` is an unnormalized log-density over R^d. The privacy level
/// is still 2λΔ(R̂) in the exact posterior; MCMC approximates it (the
/// approximation gap is measured empirically in the experiments). Errors
/// propagate from EmpiricalRisk at `initial_theta` (non-finite data, or a
/// θ without the data's dimension), checked before the chain draws, and
/// from RunMetropolis.
StatusOr<MetropolisResult> SampleGibbsContinuous(const LossFunction& loss,
                                                 const Dataset& data,
                                                 const LogDensityFn& log_prior, double lambda,
                                                 const Vector& initial_theta,
                                                 std::size_t num_samples,
                                                 const MetropolisOptions& options, Rng* rng);

}  // namespace dplearn

#endif  // DPLEARN_CORE_GIBBS_ESTIMATOR_H_
