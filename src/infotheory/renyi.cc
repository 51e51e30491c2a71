#include "infotheory/renyi.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/math_util.h"

namespace dplearn {

StatusOr<double> RenyiDivergence(const std::vector<double>& p, const std::vector<double>& q,
                                 double alpha) {
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(p, 1e-6));
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(q, 1e-6));
  if (p.size() != q.size()) {
    return InvalidArgumentError("RenyiDivergence: size mismatch");
  }
  if (!(alpha > 0.0) || alpha == 1.0) {
    return InvalidArgumentError("RenyiDivergence: alpha must be positive and != 1");
  }
  // D_alpha = (1/(alpha-1)) ln sum_i p_i^alpha q_i^{1-alpha}, accumulated in
  // log space: at extreme orders the two pow() factors under/overflow
  // individually (pow(p,64) -> 0 times pow(q,-63) -> inf is NaN) even when
  // the term p^alpha q^{1-alpha} itself is perfectly representable.
  std::vector<double> log_terms;
  log_terms.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0.0) continue;
    if (q[i] == 0.0) {
      if (alpha > 1.0) return std::numeric_limits<double>::infinity();
      continue;  // alpha < 1: q-zero cells contribute 0
    }
    log_terms.push_back(alpha * std::log(p[i]) + (1.0 - alpha) * std::log(q[i]));
  }
  if (log_terms.empty()) {
    // alpha < 1 with disjoint supports.
    return std::numeric_limits<double>::infinity();
  }
  const double log_sum = LogSumExp(log_terms);
  if (std::isinf(log_sum) && log_sum < 0.0) {
    // Every term underflowed: only possible for alpha < 1 with nearly
    // disjoint supports, where the true divergence diverges too.
    return std::numeric_limits<double>::infinity();
  }
  return ClampRoundingNegative(log_sum / (alpha - 1.0));
}

StatusOr<RdpBudget> GaussianMechanismRdp(double sigma, double sensitivity, double alpha) {
  if (!(sigma > 0.0)) return InvalidArgumentError("GaussianMechanismRdp: sigma must be > 0");
  if (!(sensitivity > 0.0)) {
    return InvalidArgumentError("GaussianMechanismRdp: sensitivity must be > 0");
  }
  if (!(alpha > 1.0)) return InvalidArgumentError("GaussianMechanismRdp: alpha must be > 1");
  RdpBudget budget;
  budget.alpha = alpha;
  budget.epsilon = alpha * sensitivity * sensitivity / (2.0 * sigma * sigma);
  return budget;
}

StatusOr<RdpBudget> LaplaceMechanismRdp(double scale, double sensitivity, double alpha) {
  if (!(scale > 0.0)) return InvalidArgumentError("LaplaceMechanismRdp: scale must be > 0");
  if (!(sensitivity > 0.0)) {
    return InvalidArgumentError("LaplaceMechanismRdp: sensitivity must be > 0");
  }
  if (!(alpha > 1.0)) return InvalidArgumentError("LaplaceMechanismRdp: alpha must be > 1");
  const double t = sensitivity / scale;
  const double log_term =
      LogAddExp(std::log(alpha / (2.0 * alpha - 1.0)) + (alpha - 1.0) * t,
                std::log((alpha - 1.0) / (2.0 * alpha - 1.0)) - alpha * t);
  RdpBudget budget;
  budget.alpha = alpha;
  budget.epsilon = ClampRoundingNegative(log_term / (alpha - 1.0));
  return budget;
}

StatusOr<RdpBudget> ComposeRdp(const RdpBudget& per_mechanism, std::size_t k) {
  if (!(per_mechanism.alpha > 1.0) || !(per_mechanism.epsilon >= 0.0)) {
    return InvalidArgumentError("ComposeRdp: invalid RDP budget");
  }
  if (k == 0) return InvalidArgumentError("ComposeRdp: k must be positive");
  RdpBudget total = per_mechanism;
  total.epsilon *= static_cast<double>(k);
  return total;
}

StatusOr<double> RdpToApproximateDpEpsilon(const RdpBudget& rdp, double delta) {
  if (!(rdp.alpha > 1.0) || !(rdp.epsilon >= 0.0)) {
    return InvalidArgumentError("RdpToApproximateDpEpsilon: invalid RDP budget");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return InvalidArgumentError("RdpToApproximateDpEpsilon: delta must be in (0,1)");
  }
  return rdp.epsilon + std::log(1.0 / delta) / (rdp.alpha - 1.0);
}

StatusOr<double> BestEpsilonFromRdpCurve(const std::vector<RdpBudget>& curve,
                                         double delta) {
  if (curve.empty()) return InvalidArgumentError("BestEpsilonFromRdpCurve: empty curve");
  double best = std::numeric_limits<double>::infinity();
  for (const RdpBudget& point : curve) {
    DPLEARN_ASSIGN_OR_RETURN(double eps, RdpToApproximateDpEpsilon(point, delta));
    best = std::min(best, eps);
  }
  return best;
}

}  // namespace dplearn
