#include "core/utility_bounds.h"

#include <cmath>

namespace dplearn {

StatusOr<double> GibbsExcessTrueRiskBound(double lambda, std::size_t num_hypotheses,
                                          std::size_t n, double loss_bound, double delta) {
  if (num_hypotheses == 0) {
    return InvalidArgumentError("GibbsExcessTrueRiskBound: need at least one hypothesis");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return InvalidArgumentError("GibbsExcessTrueRiskBound: delta must be in (0,1)");
  }
  if (!(lambda > 0.0)) {
    return InvalidArgumentError("GibbsExcessTrueRiskBound: lambda must be positive");
  }
  if (n == 0) return InvalidArgumentError("GibbsExcessTrueRiskBound: n must be positive");
  if (!(loss_bound > 0.0)) {
    return InvalidArgumentError("GibbsExcessTrueRiskBound: loss bound must be positive");
  }
  const double m = static_cast<double>(num_hypotheses);
  const double nd = static_cast<double>(n);
  const double empirical_term = std::log(3.0 * m / delta) / lambda;
  const double generalization_term =
      2.0 * loss_bound * std::sqrt(std::log(6.0 * m / delta) / (2.0 * nd));
  return empirical_term + generalization_term;
}

}  // namespace dplearn
