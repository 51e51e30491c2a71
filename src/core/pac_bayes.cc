#include "core/pac_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/math_util.h"

namespace dplearn {
namespace {

Status ValidateCommon(double lambda, std::size_t n) {
  if (!(lambda > 0.0)) return InvalidArgumentError("PAC-Bayes: lambda must be positive");
  if (n == 0) return InvalidArgumentError("PAC-Bayes: n must be positive");
  return Status::Ok();
}

Status ValidateDelta(double delta) {
  if (!(delta > 0.0) || delta >= 1.0) {
    return InvalidArgumentError("PAC-Bayes: delta must be in (0,1)");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<double> CatoniHighProbabilityBound(double expected_empirical_risk, double kl,
                                            double lambda, std::size_t n, double delta) {
  DPLEARN_RETURN_IF_ERROR(ValidateCommon(lambda, n));
  DPLEARN_RETURN_IF_ERROR(ValidateDelta(delta));
  if (expected_empirical_risk < 0.0 || kl < 0.0) {
    return InvalidArgumentError("CatoniHighProbabilityBound: risk and KL must be >= 0");
  }
  const double nd = static_cast<double>(n);
  const double exponent =
      (lambda / nd) * expected_empirical_risk + (kl + std::log(1.0 / delta)) / nd;
  const double numerator = -std::expm1(-exponent);      // 1 - e^{-exponent}
  const double denominator = -std::expm1(-lambda / nd);  // 1 - e^{-lambda/n}
  return std::min(1.0, numerator / denominator);
}

StatusOr<double> CatoniExpectationBound(double expected_objective, double lambda,
                                        std::size_t n) {
  DPLEARN_RETURN_IF_ERROR(ValidateCommon(lambda, n));
  if (expected_objective < 0.0) {
    return InvalidArgumentError("CatoniExpectationBound: objective must be >= 0");
  }
  const double nd = static_cast<double>(n);
  const double exponent = (lambda / nd) * expected_objective;
  const double numerator = -std::expm1(-exponent);
  const double denominator = -std::expm1(-lambda / nd);
  return std::min(1.0, numerator / denominator);
}

StatusOr<double> McAllesterBound(double expected_empirical_risk, double kl, std::size_t n,
                                 double delta) {
  if (n == 0) return InvalidArgumentError("McAllesterBound: n must be positive");
  DPLEARN_RETURN_IF_ERROR(ValidateDelta(delta));
  if (expected_empirical_risk < 0.0 || kl < 0.0) {
    return InvalidArgumentError("McAllesterBound: risk and KL must be >= 0");
  }
  const double nd = static_cast<double>(n);
  const double slack = (kl + std::log(2.0 * std::sqrt(nd) / delta)) / (2.0 * nd);
  return expected_empirical_risk + std::sqrt(slack);
}

StatusOr<double> PacBayesObjective(const std::vector<double>& posterior,
                                   const std::vector<double>& risks,
                                   const std::vector<double>& prior, double lambda) {
  if (posterior.size() != risks.size() || posterior.size() != prior.size() ||
      posterior.empty()) {
    return InvalidArgumentError("PacBayesObjective: empty or mismatched input");
  }
  if (!(lambda > 0.0)) {
    return InvalidArgumentError("PacBayesObjective: lambda must be positive");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(posterior, 1e-6));
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  double expected_risk = 0.0;
  double kl = 0.0;
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    expected_risk += posterior[i] * risks[i];
    const double term = XLogXOverY(posterior[i], prior[i]);
    if (std::isinf(term)) return std::numeric_limits<double>::infinity();
    kl += term;
  }
  return expected_risk + std::max(0.0, kl) / lambda;
}

StatusOr<double> PacBayesObjectiveMinimum(const std::vector<double>& risks,
                                          const std::vector<double>& prior, double lambda) {
  if (risks.empty() || risks.size() != prior.size()) {
    return InvalidArgumentError("PacBayesObjectiveMinimum: empty or mismatched input");
  }
  if (!(lambda > 0.0)) {
    return InvalidArgumentError("PacBayesObjectiveMinimum: lambda must be positive");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  std::vector<double> log_terms(risks.size());
  for (std::size_t i = 0; i < risks.size(); ++i) {
    const double log_prior = prior[i] > 0.0 ? std::log(prior[i])
                                            : -std::numeric_limits<double>::infinity();
    log_terms[i] = log_prior - lambda * risks[i];
  }
  // min F = -(1/lambda) * ln sum_i pi_i exp(-lambda r_i).
  return -LogSumExp(log_terms) / lambda;
}

double SuggestLambda(std::size_t n, double kl_scale) {
  const double nd = static_cast<double>(n);
  const double lambda = std::sqrt(2.0 * nd * std::max(kl_scale, 1e-12));
  return Clamp(lambda, 1.0, nd);
}

}  // namespace dplearn
