#include "mechanisms/laplace.h"

#include <cmath>

#include "robustness/failpoint.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/distributions.h"

namespace dplearn {

StatusOr<LaplaceMechanism> LaplaceMechanism::Create(SensitiveQuery query, double epsilon) {
  if (!query.query) return InvalidArgumentError("LaplaceMechanism: query must be set");
  if (!(query.sensitivity > 0.0)) {
    return InvalidArgumentError("LaplaceMechanism: sensitivity must be positive");
  }
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("LaplaceMechanism: epsilon must be positive");
  }
  const double scale = query.sensitivity / epsilon;
  return LaplaceMechanism(std::move(query), epsilon, scale);
}

StatusOr<double> LaplaceMechanism::Release(const Dataset& data, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.laplace.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const releases =
        obs::GlobalMetrics().GetCounter("mechanism.laplace.releases");
    releases->Increment();
  }
  const double true_value = query_.query(data);
  return SampleLaplace(rng, true_value, scale_);
}

Status LaplaceMechanism::ReleaseBatch(const Dataset& data, Rng* rng, std::size_t k,
                                      std::vector<double>* out) const {
  if (out == nullptr) return InvalidArgumentError("ReleaseBatch: out must be set");
  out->clear();
  obs::TraceSpan span("mechanism.laplace.release_batch");
  // The query evaluation is the per-call cost Release() pays k times over;
  // here it runs once. Everything privacy-relevant stays per draw below.
  const double true_value = query_.query(data);
  out->reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    // Same per-draw sequence as Release(): fail-point, metric, then the
    // noise draw — so chaos configs fire at the same draw indices whether
    // the caller batched or looped.
    DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
    static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
        "mechanism.laplace.release.us");
    obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
    if (obs::MetricsEnabled()) {
      static obs::Counter* const releases =
          obs::GlobalMetrics().GetCounter("mechanism.laplace.releases");
      releases->Increment();
    }
    DPLEARN_ASSIGN_OR_RETURN(const double draw, SampleLaplace(rng, true_value, scale_));
    out->push_back(draw);
  }
  return Status::Ok();
}

double LaplaceMechanism::OutputDensity(const Dataset& data, double output) const {
  return LaplacePdf(output, query_.query(data), scale_);
}

StatusOr<GaussianMechanism> GaussianMechanism::Create(SensitiveQuery query,
                                                      PrivacyBudget budget) {
  if (!query.query) return InvalidArgumentError("GaussianMechanism: query must be set");
  if (!(query.sensitivity > 0.0)) {
    return InvalidArgumentError("GaussianMechanism: sensitivity must be positive");
  }
  if (!(budget.epsilon > 0.0) || budget.epsilon > 1.0) {
    return InvalidArgumentError("GaussianMechanism: epsilon must be in (0,1]");
  }
  if (!(budget.delta > 0.0) || budget.delta >= 1.0) {
    return InvalidArgumentError("GaussianMechanism: delta must be in (0,1)");
  }
  const double stddev =
      query.sensitivity * std::sqrt(2.0 * std::log(1.25 / budget.delta)) / budget.epsilon;
  return GaussianMechanism(std::move(query), budget, stddev);
}

StatusOr<double> GaussianMechanism::Release(const Dataset& data, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.gaussian.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const releases =
        obs::GlobalMetrics().GetCounter("mechanism.gaussian.releases");
    releases->Increment();
  }
  const double true_value = query_.query(data);
  return SampleNormal(rng, true_value, stddev_);
}

StatusOr<RandomizedResponse> RandomizedResponse::Create(double epsilon) {
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("RandomizedResponse: epsilon must be positive");
  }
  return RandomizedResponse(epsilon);
}

StatusOr<int> RandomizedResponse::Release(int true_bit, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  if (true_bit != 0 && true_bit != 1) {
    return InvalidArgumentError("RandomizedResponse: bit must be 0 or 1");
  }
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.randomized_response.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const releases =
        obs::GlobalMetrics().GetCounter("mechanism.randomized_response.releases");
    releases->Increment();
  }
  DPLEARN_ASSIGN_OR_RETURN(int keep, SampleBernoulli(rng, p_truth_));
  return keep == 1 ? true_bit : 1 - true_bit;
}

StatusOr<double> RandomizedResponse::ReportOneProbability(int true_bit) const {
  if (true_bit != 0 && true_bit != 1) {
    return InvalidArgumentError("RandomizedResponse: bit must be 0 or 1");
  }
  return true_bit == 1 ? p_truth_ : 1.0 - p_truth_;
}

StatusOr<double> RandomizedResponse::DebiasedMean(const std::vector<int>& reports) const {
  if (reports.empty()) {
    return InvalidArgumentError("RandomizedResponse::DebiasedMean: empty reports");
  }
  double sum = 0.0;
  for (int r : reports) {
    if (r != 0 && r != 1) {
      return InvalidArgumentError("RandomizedResponse::DebiasedMean: reports must be bits");
    }
    sum += static_cast<double>(r);
  }
  const double observed_mean = sum / static_cast<double>(reports.size());
  // E[report] = p*m + (1-p)*(1-m)  =>  m = (E[report] - (1-p)) / (2p - 1).
  return (observed_mean - (1.0 - p_truth_)) / (2.0 * p_truth_ - 1.0);
}

}  // namespace dplearn
