#include "mechanisms/exponential.h"

#include <cmath>
#include <limits>

#include "robustness/failpoint.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/distributions.h"
#include "simd/kernels.h"
#include "util/math_util.h"

namespace dplearn {

ExponentialMechanism::ExponentialMechanism(QualityFn quality, std::vector<double> prior,
                                           double epsilon, double quality_sensitivity)
    : quality_(std::move(quality)),
      prior_(std::move(prior)),
      epsilon_(epsilon),
      quality_sensitivity_(quality_sensitivity) {
  log_prior_.resize(prior_.size());
  for (std::size_t u = 0; u < prior_.size(); ++u) {
    log_prior_[u] = prior_[u] > 0.0 ? std::log(prior_[u])
                                    : -std::numeric_limits<double>::infinity();
  }
}

StatusOr<ExponentialMechanism> ExponentialMechanism::Create(QualityFn quality,
                                                            std::size_t num_candidates,
                                                            std::vector<double> prior,
                                                            double epsilon,
                                                            double quality_sensitivity) {
  if (!quality) return InvalidArgumentError("ExponentialMechanism: quality must be set");
  if (num_candidates == 0) {
    return InvalidArgumentError("ExponentialMechanism: need at least one candidate");
  }
  if (prior.size() != num_candidates) {
    return InvalidArgumentError("ExponentialMechanism: prior size mismatch");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("ExponentialMechanism: epsilon must be positive");
  }
  if (!(quality_sensitivity > 0.0)) {
    return InvalidArgumentError("ExponentialMechanism: quality_sensitivity must be positive");
  }
  return ExponentialMechanism(std::move(quality), std::move(prior), epsilon,
                              quality_sensitivity);
}

StatusOr<ExponentialMechanism> ExponentialMechanism::CreateUniform(
    QualityFn quality, std::size_t num_candidates, double epsilon,
    double quality_sensitivity) {
  if (num_candidates == 0) {
    return InvalidArgumentError("ExponentialMechanism: need at least one candidate");
  }
  std::vector<double> uniform(num_candidates, 1.0 / static_cast<double>(num_candidates));
  return Create(std::move(quality), num_candidates, std::move(uniform), epsilon,
                quality_sensitivity);
}

StatusOr<ExponentialMechanism> ExponentialMechanism::CreateWithTargetPrivacy(
    QualityFn quality, std::size_t num_candidates, std::vector<double> prior,
    double target_epsilon, double quality_sensitivity) {
  if (!(target_epsilon > 0.0)) {
    return InvalidArgumentError("ExponentialMechanism: target_epsilon must be positive");
  }
  if (!(quality_sensitivity > 0.0)) {
    return InvalidArgumentError("ExponentialMechanism: quality_sensitivity must be positive");
  }
  return Create(std::move(quality), num_candidates, std::move(prior),
                target_epsilon / (2.0 * quality_sensitivity), quality_sensitivity);
}

std::vector<double> ExponentialMechanism::LogWeights(const Dataset& data) const {
  std::vector<double> log_w(prior_.size());
  for (std::size_t u = 0; u < prior_.size(); ++u) log_w[u] = quality_(data, u);
  // ε·q + log π in place — element-wise identical to the per-candidate
  // expression this loop used to compute.
  simd::TiltLogWeights(log_w.data(), log_prior_.data(), log_w.size(), epsilon_,
                       log_w.data());
  return log_w;
}

StatusOr<std::vector<double>> ExponentialMechanism::OutputDistribution(
    const Dataset& data) const {
  obs::TraceSpan span("mechanism.exponential.output_distribution");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const evaluations =
        obs::GlobalMetrics().GetCounter("mechanism.exponential.output_distributions");
    evaluations->Increment();
  }
  return SoftmaxFromLog(LogWeights(data));
}

StatusOr<std::size_t> ExponentialMechanism::Sample(const Dataset& data, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  obs::TraceSpan span("mechanism.exponential.sample");
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.exponential.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const samples =
        obs::GlobalMetrics().GetCounter("mechanism.exponential.samples");
    samples->Increment();
  }
  return SampleFromLogWeights(rng, LogWeights(data));
}

Status ExponentialMechanism::SampleBatch(const Dataset& data, Rng* rng, std::size_t k,
                                         std::vector<std::size_t>* out) const {
  if (out == nullptr) return InvalidArgumentError("SampleBatch: out must be set");
  out->clear();
  obs::TraceSpan span("mechanism.exponential.sample_batch");
  // The quality evaluation is the per-call cost Sample() pays k times over;
  // here it runs once. Everything privacy-relevant stays per draw below.
  const std::vector<double> log_w = LogWeights(data);
  out->reserve(k);
  std::vector<double> scratch;
  scratch.reserve(log_w.size());
  for (std::size_t j = 0; j < k; ++j) {
    // Same per-draw sequence as Sample(): fail-point, metric, then the
    // Gumbel-max draw — so chaos configs fire at the same draw indices
    // whether the caller batched or looped.
    DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
    static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
        "mechanism.exponential.release.us");
    obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
    if (obs::MetricsEnabled()) {
      static obs::Counter* const samples =
          obs::GlobalMetrics().GetCounter("mechanism.exponential.samples");
      samples->Increment();
    }
    DPLEARN_ASSIGN_OR_RETURN(const std::size_t draw,
                             SampleFromLogWeights(rng, log_w, &scratch));
    out->push_back(draw);
  }
  return Status::Ok();
}

StatusOr<double> ExponentialMechanism::UtilityGapBound(double delta) const {
  if (!(delta > 0.0) || delta >= 1.0) {
    return InvalidArgumentError("UtilityGapBound: delta must be in (0,1)");
  }
  return std::log(static_cast<double>(num_candidates()) / delta) / epsilon_;
}

StatusOr<ReportNoisyMax> ReportNoisyMax::Create(QualityFn quality, std::size_t num_candidates,
                                                double epsilon, double quality_sensitivity) {
  if (!quality) return InvalidArgumentError("ReportNoisyMax: quality must be set");
  if (num_candidates == 0) {
    return InvalidArgumentError("ReportNoisyMax: need at least one candidate");
  }
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("ReportNoisyMax: epsilon must be positive");
  }
  if (!(quality_sensitivity > 0.0)) {
    return InvalidArgumentError("ReportNoisyMax: quality_sensitivity must be positive");
  }
  return ReportNoisyMax(std::move(quality), num_candidates, epsilon, quality_sensitivity);
}

StatusOr<std::size_t> ReportNoisyMax::Sample(const Dataset& data, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.report_noisy_max.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const samples =
        obs::GlobalMetrics().GetCounter("mechanism.report_noisy_max.samples");
    samples->Increment();
  }
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t u = 0; u < num_candidates_; ++u) {
    DPLEARN_ASSIGN_OR_RETURN(
        double noise, SampleLaplace(rng, 0.0, quality_sensitivity_ / epsilon_));
    const double score = quality_(data, u) + noise;
    if (score > best_score) {
      best_score = score;
      best = u;
    }
  }
  return best;
}

}  // namespace dplearn
