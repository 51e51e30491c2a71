#include "core/gibbs_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "learning/risk.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/risk_profile_cache.h"
#include "sampling/distributions.h"
#include "simd/kernels.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

/// Per-thread scratch of the single-draw paths. λ-selection sweeps and the
/// channel sweep's draws call them thousands of times, and reusing these
/// keeps the steady state allocation-free (pinned by tests/perf_alloc_test)
/// while staying stream-identical to the allocating SampleFromLogWeights
/// overload.
struct DrawScratch {
  std::vector<double> log_w;
  std::vector<double> uniforms;
};

DrawScratch& ThreadDrawScratch() {
  thread_local DrawScratch scratch;
  return scratch;
}

void CountSamples(std::size_t k) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* const samples = obs::GlobalMetrics().GetCounter("gibbs.samples");
  samples->Increment(k);
}

}  // namespace

GibbsEstimator::GibbsEstimator(const LossFunction* loss, FiniteHypothesisClass hclass,
                               std::vector<double> prior, double lambda)
    : loss_(loss), hclass_(std::move(hclass)), prior_(std::move(prior)), lambda_(lambda) {
  log_prior_.resize(prior_.size());
  for (std::size_t i = 0; i < prior_.size(); ++i) {
    log_prior_[i] = prior_[i] > 0.0 ? std::log(prior_[i])
                                    : -std::numeric_limits<double>::infinity();
  }
}

StatusOr<GibbsEstimator> GibbsEstimator::Create(const LossFunction* loss,
                                                FiniteHypothesisClass hclass,
                                                std::vector<double> prior, double lambda) {
  if (loss == nullptr) return InvalidArgumentError("GibbsEstimator: loss must be set");
  if (prior.size() != hclass.size()) {
    return InvalidArgumentError("GibbsEstimator: prior size mismatch");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  if (!(lambda >= 0.0)) {
    return InvalidArgumentError("GibbsEstimator: lambda must be non-negative");
  }
  return GibbsEstimator(loss, std::move(hclass), std::move(prior), lambda);
}

StatusOr<GibbsEstimator> GibbsEstimator::CreateUniform(const LossFunction* loss,
                                                       FiniteHypothesisClass hclass,
                                                       double lambda) {
  std::vector<double> prior = hclass.UniformPrior();
  return Create(loss, std::move(hclass), std::move(prior), lambda);
}

StatusOr<std::vector<double>> GibbsEstimator::Posterior(const Dataset& data) const {
  obs::TraceSpan span("gibbs.posterior");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const builds =
        obs::GlobalMetrics().GetCounter("gibbs.posterior_builds");
    builds->Increment();
  }
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> risks, RiskProfile(data));
  return GibbsPosteriorFromRisks(risks, prior_, lambda_);
}

StatusOr<std::vector<double>> GibbsEstimator::RiskProfile(const Dataset& data) const {
  // The per-hypothesis risk profile is the hot loop of Posterior(), Sample()
  // and every PAC-Bayes term below, and it is λ/prior-invariant — so it goes
  // through the process-wide cache. A miss falls through to
  // EmpiricalRiskProfile, which parallelizes over the global pool for large
  // |Θ|·n with bit-identical results at any thread count (each hypothesis
  // keeps its serial inner loop).
  obs::TraceSpan span("gibbs.risk_profile");
  return perf::CachedRiskProfile(*loss_, hclass_, data);
}

Status GibbsEstimator::TiltFromProfile(const Dataset& data, std::vector<double>* log_w) const {
  // The tilt reads a cache hit's risks in place, under the cache's reader
  // stripe, so a hit copies nothing. It is bitwise the tilt of a copied
  // profile: the same kernel on the same bits.
  obs::TraceSpan span("gibbs.risk_profile");
  return perf::VisitCachedRiskProfile(
      *loss_, hclass_, data,
      [this, log_w](const std::vector<double>& risks) { LogWeightsFromRisks(risks, log_w); });
}

StatusOr<std::size_t> GibbsEstimator::Sample(const Dataset& data, Rng* rng) const {
  DrawScratch& scratch = ThreadDrawScratch();
  DPLEARN_RETURN_IF_ERROR(TiltFromProfile(data, &scratch.log_w));
  obs::TraceSpan span("gibbs.sample");
  CountSamples(1);
  return SampleFromLogWeights(rng, scratch.log_w, &scratch.uniforms);
}

StatusOr<std::size_t> GibbsEstimator::SampleGivenRisks(const std::vector<double>& risks,
                                                       Rng* rng) const {
  obs::TraceSpan span("gibbs.sample");
  CountSamples(1);
  if (risks.size() != hclass_.size()) {
    return InvalidArgumentError("SampleGivenRisks: risk profile size mismatch");
  }
  DrawScratch& scratch = ThreadDrawScratch();
  LogWeightsFromRisks(risks, &scratch.log_w);
  return SampleFromLogWeights(rng, scratch.log_w, &scratch.uniforms);
}

Status GibbsEstimator::SampleBatch(const Dataset& data, Rng* rng, std::size_t k,
                                   std::vector<std::size_t>* out) const {
  if (out == nullptr) return InvalidArgumentError("SampleBatch: out must be set");
  obs::TraceSpan span("gibbs.sample_batch");
  CountSamples(k);
  std::vector<double>& log_w = ThreadDrawScratch().log_w;
  DPLEARN_RETURN_IF_ERROR(TiltFromProfile(data, &log_w));
  return SampleFromLogWeightsBatch(rng, log_w, k, out);
}

StatusOr<std::size_t> GibbsEstimator::SampleStreaming(const StreamingRiskProfile& profile,
                                                      Rng* rng) const {
  obs::TraceSpan span("gibbs.sample_streaming");
  if (profile.num_hypotheses() != hclass_.size()) {
    return InvalidArgumentError("SampleStreaming: profile hypothesis count mismatch");
  }
  // Snapshot into thread-local scratch (pre-sized after the first call), then
  // reuse the exact SampleGivenRisks path — same bits, zero steady-state
  // allocations (pinned by tests/perf_alloc_test).
  thread_local std::vector<double> risks;
  DPLEARN_RETURN_IF_ERROR(profile.SnapshotInto(&risks));
  return SampleGivenRisks(risks, rng);
}

Status GibbsEstimator::SampleStreamingBatch(const StreamingRiskProfile& profile, Rng* rng,
                                            std::size_t k,
                                            std::vector<std::size_t>* out) const {
  if (out == nullptr) return InvalidArgumentError("SampleStreamingBatch: out must be set");
  obs::TraceSpan span("gibbs.sample_streaming_batch");
  CountSamples(k);
  if (profile.num_hypotheses() != hclass_.size()) {
    return InvalidArgumentError("SampleStreamingBatch: profile hypothesis count mismatch");
  }
  thread_local std::vector<double> risks;
  DPLEARN_RETURN_IF_ERROR(profile.SnapshotInto(&risks));
  std::vector<double>& log_w = ThreadDrawScratch().log_w;
  LogWeightsFromRisks(risks, &log_w);
  return SampleFromLogWeightsBatch(rng, log_w, k, out);
}

void GibbsEstimator::LogWeightsFromRisks(const std::vector<double>& risks,
                                         std::vector<double>* log_w) const {
  log_w->resize(risks.size());
  // -λ·R̂ + log π via the shared tilt kernel: ε·q + log π with q = -R̂ is
  // bitwise the same operation (Theorem 4.1 made numerically literal).
  simd::TiltLogWeights(risks.data(), log_prior_.data(), risks.size(), -lambda_,
                       log_w->data());
}

StatusOr<Vector> GibbsEstimator::SampleTheta(const Dataset& data, Rng* rng) const {
  DPLEARN_ASSIGN_OR_RETURN(std::size_t index, Sample(data, rng));
  return hclass_.at(index);
}

StatusOr<double> GibbsEstimator::ExpectedEmpiricalRisk(const Dataset& data) const {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> risks, RiskProfile(data));
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> posterior,
                           GibbsPosteriorFromRisks(risks, prior_, lambda_));
  double expected = 0.0;
  for (std::size_t i = 0; i < risks.size(); ++i) expected += posterior[i] * risks[i];
  return expected;
}

StatusOr<double> GibbsEstimator::KlToPrior(const Dataset& data) const {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> posterior, Posterior(data));
  double kl = 0.0;
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    const double term = XLogXOverY(posterior[i], prior_[i]);
    if (std::isinf(term)) return std::numeric_limits<double>::infinity();
    kl += term;
  }
  return ClampRoundingNegative(kl);
}

StatusOr<double> GibbsEstimator::PrivacyGuaranteeEpsilon(double sensitivity) const {
  if (!(sensitivity > 0.0)) {
    return InvalidArgumentError("PrivacyGuaranteeEpsilon: sensitivity must be positive");
  }
  return 2.0 * lambda_ * sensitivity;
}

StatusOr<ExponentialMechanism> GibbsEstimator::AsExponentialMechanism(
    double sensitivity) const {
  if (!(sensitivity > 0.0)) {
    return InvalidArgumentError("AsExponentialMechanism: sensitivity must be positive");
  }
  const LossFunction* loss = loss_;
  // Capture hypotheses by value so the mechanism is self-contained.
  std::vector<Vector> thetas = hclass_.thetas();
  QualityFn quality = [loss, thetas](const Dataset& data, std::size_t u) {
    // q(Ẑ, θ_u) = -R̂_Ẑ(θ_u). EmpiricalRisk only fails on an empty dataset,
    // which OutputDistribution/Sample reject upstream.
    auto risk = EmpiricalRisk(*loss, thetas[u], data);
    return risk.ok() ? -risk.value() : 0.0;
  };
  return ExponentialMechanism::Create(std::move(quality), hclass_.size(), prior_, lambda_,
                                      sensitivity);
}

StatusOr<std::vector<double>> GibbsPosteriorFromRisks(const std::vector<double>& risks,
                                                      const std::vector<double>& prior,
                                                      double lambda) {
  if (risks.empty() || risks.size() != prior.size()) {
    return InvalidArgumentError("GibbsPosteriorFromRisks: empty or mismatched input");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  if (!(lambda >= 0.0)) {
    return InvalidArgumentError("GibbsPosteriorFromRisks: lambda must be non-negative");
  }
  std::vector<double> log_prior(prior.size());
  for (std::size_t i = 0; i < prior.size(); ++i) {
    log_prior[i] = prior[i] > 0.0 ? std::log(prior[i])
                                  : -std::numeric_limits<double>::infinity();
  }
  std::vector<double> posterior(risks.size());
  DPLEARN_RETURN_IF_ERROR(GibbsPosteriorFromRisksInto(risks.data(), log_prior.data(),
                                                      risks.size(), lambda,
                                                      posterior.data()));
  return posterior;
}

Status GibbsPosteriorFromRisksInto(const double* risks, const double* log_prior,
                                   std::size_t n, double lambda, double* out) {
  if (n == 0) return InvalidArgumentError("GibbsPosteriorFromRisks: empty input");
  if (!(lambda >= 0.0)) {
    return InvalidArgumentError("GibbsPosteriorFromRisks: lambda must be non-negative");
  }
  // Tilt into the output row, then softmax it in place — the kernels allow
  // aliasing, so a channel row is built with zero scratch.
  simd::TiltLogWeights(risks, log_prior, n, -lambda, out);
  return SoftmaxFromLogInto(out, n, out);
}

StatusOr<MetropolisResult> SampleGibbsContinuous(const LossFunction& loss,
                                                 const Dataset& data,
                                                 const LogDensityFn& log_prior, double lambda,
                                                 const Vector& initial_theta,
                                                 std::size_t num_samples,
                                                 const MetropolisOptions& options, Rng* rng) {
  if (data.empty()) return InvalidArgumentError("SampleGibbsContinuous: empty dataset");
  if (!(lambda >= 0.0)) {
    return InvalidArgumentError("SampleGibbsContinuous: lambda must be non-negative");
  }
  if (!log_prior) {
    return InvalidArgumentError("SampleGibbsContinuous: log_prior must be set");
  }
  // The target below cannot return a Status, so the data and θ's dimension
  // are checked once here, at initial_theta; every proposal keeps that
  // dimension.
  DPLEARN_RETURN_IF_ERROR(EmpiricalRisk(loss, initial_theta, data).status());
  obs::TraceSpan span("gibbs.mcmc");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const runs = obs::GlobalMetrics().GetCounter("gibbs.mcmc_runs");
    runs->Increment();
  }
  LogDensityFn target = [&loss, &data, &log_prior, lambda](const Vector& theta) {
    const double lp = log_prior(theta);
    if (!std::isfinite(lp)) return lp;
    auto risk = EmpiricalRisk(loss, theta, data);
    return -lambda * risk.value() + lp;
  };
  return RunMetropolis(target, initial_theta, num_samples, options, rng);
}

}  // namespace dplearn
