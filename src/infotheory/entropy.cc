#include "infotheory/entropy.h"

#include <cmath>
#include <limits>

#include "util/math_util.h"

namespace dplearn {

StatusOr<double> Entropy(const std::vector<double>& p) {
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(p, 1e-6));
  double h = 0.0;
  for (double v : p) h -= XLogX(v);
  return h;
}

StatusOr<double> KlDivergence(const std::vector<double>& p, const std::vector<double>& q) {
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(p, 1e-6));
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(q, 1e-6));
  if (p.size() != q.size()) {
    return InvalidArgumentError("KlDivergence: size mismatch");
  }
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double term = XLogXOverY(p[i], q[i]);
    if (std::isinf(term)) return std::numeric_limits<double>::infinity();
    d += term;
  }
  // Library-wide clamp policy (math_util.h): rounding-scale negatives (p ~= q)
  // become exactly 0, larger negatives would be a real bug and pass through.
  return ClampRoundingNegative(d);
}

StatusOr<double> JensenShannonDivergence(const std::vector<double>& p,
                                         const std::vector<double>& q) {
  if (p.size() != q.size()) {
    return InvalidArgumentError("JensenShannonDivergence: size mismatch");
  }
  std::vector<double> m(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) m[i] = 0.5 * (p[i] + q[i]);
  DPLEARN_ASSIGN_OR_RETURN(double dpm, KlDivergence(p, m));
  DPLEARN_ASSIGN_OR_RETURN(double dqm, KlDivergence(q, m));
  return 0.5 * dpm + 0.5 * dqm;
}

StatusOr<double> BinaryEntropy(double p) {
  if (p < 0.0 || p > 1.0) return InvalidArgumentError("BinaryEntropy: p must be in [0,1]");
  return -XLogX(p) - XLogX(1.0 - p);
}

}  // namespace dplearn
