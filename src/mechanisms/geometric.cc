#include "mechanisms/geometric.h"

#include <cmath>
#include <limits>

#include "obs/audit_log.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"

namespace dplearn {
namespace {

/// Validates that the query's integer-valued double fits in int64 before it
/// is cast — the cast is undefined behavior outside [-2^63, 2^63). The upper
/// bound is exclusive: 2^63 is exactly representable as a double but one
/// past INT64_MAX, while every integral double strictly below it is
/// representable.
StatusOr<std::int64_t> CheckedInt64FromQuery(double true_value) {
  if (std::floor(true_value) != true_value) {
    return FailedPreconditionError("GeometricMechanism: query returned a non-integer");
  }
  constexpr double kInt64Min = -9223372036854775808.0;  // -2^63, exact
  constexpr double kInt64UpperBound = 9223372036854775808.0;  // 2^63, exact
  if (!(true_value >= kInt64Min) || !(true_value < kInt64UpperBound)) {
    return FailedPreconditionError(
        "GeometricMechanism: query value is not representable as int64");
  }
  return static_cast<std::int64_t>(true_value);
}

}  // namespace

StatusOr<std::int64_t> SampleTwoSidedGeometric(Rng* rng, double alpha) {
  if (!(alpha > 0.0) || alpha >= 1.0) {
    return InvalidArgumentError("SampleTwoSidedGeometric: alpha must be in (0,1)");
  }
  // Inverse CDF: mass (1-a)/(1+a) at 0, then symmetric geometric tails.
  const double u = rng->NextDoubleOpen();
  const double p_zero = (1.0 - alpha) / (1.0 + alpha);
  if (u < p_zero) return std::int64_t{0};
  // Map the remainder to a sign and a Geometric(1-alpha) magnitude >= 1.
  const double v = (u - p_zero) / (1.0 - p_zero);  // Uniform(0,1)
  const double sign = v < 0.5 ? -1.0 : 1.0;
  const double w = rng->NextDoubleOpen();
  // magnitude m >= 1 with P(m) prop. to alpha^m: m = 1 + floor(log(w)/log(alpha)).
  const std::int64_t magnitude =
      1 + static_cast<std::int64_t>(std::floor(std::log(w) / std::log(alpha)));
  return static_cast<std::int64_t>(sign) * magnitude;
}

StatusOr<GeometricMechanism> GeometricMechanism::Create(SensitiveQuery query,
                                                        double epsilon) {
  if (!query.query) return InvalidArgumentError("GeometricMechanism: query must be set");
  if (!(query.sensitivity >= 1.0)) {
    return InvalidArgumentError(
        "GeometricMechanism: integer query sensitivity must be >= 1");
  }
  if (std::floor(query.sensitivity) != query.sensitivity) {
    return InvalidArgumentError("GeometricMechanism: sensitivity must be an integer");
  }
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("GeometricMechanism: epsilon must be positive");
  }
  const double alpha = std::exp(-epsilon / query.sensitivity);
  return GeometricMechanism(std::move(query), epsilon, alpha);
}

StatusOr<std::int64_t> GeometricMechanism::Release(const Dataset& data, Rng* rng) const {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
      "mechanism.geometric.release.us");
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const releases =
        obs::GlobalMetrics().GetCounter("mechanism.geometric.releases");
    releases->Increment();
  }
  obs::AuditMechanismInvocation("geometric", epsilon_, 0.0);
  DPLEARN_ASSIGN_OR_RETURN(std::int64_t true_int,
                           CheckedInt64FromQuery(query_.query(data)));
  DPLEARN_ASSIGN_OR_RETURN(std::int64_t noise, SampleTwoSidedGeometric(rng, alpha_));
  // Saturate instead of wrapping when the noise would push a near-boundary
  // value past the int64 range (signed overflow is UB).
  std::int64_t released = 0;
  if (__builtin_add_overflow(true_int, noise, &released)) {
    return noise > 0 ? std::numeric_limits<std::int64_t>::max()
                     : std::numeric_limits<std::int64_t>::min();
  }
  return released;
}

StatusOr<double> GeometricMechanism::OutputProbability(const Dataset& data,
                                                       std::int64_t output) const {
  DPLEARN_ASSIGN_OR_RETURN(std::int64_t true_int,
                           CheckedInt64FromQuery(query_.query(data)));
  // |output - true_int| in double: the int64 difference can overflow (e.g.
  // output near INT64_MAX against a negative query value), while the double
  // form is safe for any pair and exact wherever the pmf is not already
  // flushed to zero by pow().
  const double magnitude =
      std::fabs(static_cast<double>(output) - static_cast<double>(true_int));
  return (1.0 - alpha_) / (1.0 + alpha_) * std::pow(alpha_, magnitude);
}

StatusOr<double> GeometricMechanism::NoiseTailProbability(std::int64_t t) const {
  if (t < 0) return InvalidArgumentError("NoiseTailProbability: t must be >= 0");
  if (t == 0) return 1.0;
  return 2.0 * std::pow(alpha_, static_cast<double>(t)) / (1.0 + alpha_);
}

}  // namespace dplearn
