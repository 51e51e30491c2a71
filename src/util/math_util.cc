#include "util/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace dplearn {

double LogSumExp(const double* x, std::size_t n) {
  if (n == 0) return -std::numeric_limits<double>::infinity();
  // Max by explicit scan: max_element's comparator gives an arbitrary
  // answer when NaN is present, and NaN must propagate, not vanish.
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i])) return x[i];
    if (x[i] > m) m = x[i];
  }
  // all -inf -> log of a zero sum; any +inf dominates. A single finite
  // element returns exactly that element (exp(0) == 1, log(1) == 0).
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += std::exp(x[i] - m);
  return m + std::log(sum);
}

double LogSumExp(const std::vector<double>& x) { return LogSumExp(x.data(), x.size()); }

double LogAddExp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double m = std::max(a, b);
  return m + std::log1p(std::exp(std::min(a, b) - m));
}

StatusOr<std::vector<double>> SoftmaxFromLog(const std::vector<double>& log_weights) {
  std::vector<double> p(log_weights.size());
  DPLEARN_RETURN_IF_ERROR(SoftmaxFromLogInto(log_weights.data(), log_weights.size(), p.data()));
  return p;
}

Status SoftmaxFromLogInto(const double* log_weights, std::size_t n, double* out) {
  if (n == 0) {
    return InvalidArgumentError("SoftmaxFromLog: empty input");
  }
  const double lse = LogSumExp(log_weights, n);
  if (!std::isfinite(lse)) {
    return InvalidArgumentError("SoftmaxFromLog: weights sum to zero or are non-finite");
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(log_weights[i] - lse);
  return Status::Ok();
}

double XLogX(double x) {
  if (x == 0.0) return 0.0;
  return x * std::log(x);
}

double XLogXOverY(double x, double y) {
  if (x == 0.0) return 0.0;
  if (y == 0.0) return std::numeric_limits<double>::infinity();
  return x * std::log(x / y);
}

bool ApproxEqual(double a, double b, double abs_tol, double rel_tol) {
  const double diff = std::fabs(a - b);
  return diff <= abs_tol + rel_tol * std::max(std::fabs(a), std::fabs(b));
}

Status ValidateDistribution(const std::vector<double>& p, double tol) {
  if (p.empty()) return InvalidArgumentError("ValidateDistribution: empty distribution");
  double sum = 0.0;
  for (double v : p) {
    if (!(v >= 0.0)) {
      return InvalidArgumentError("ValidateDistribution: negative or NaN probability " +
                                  std::to_string(v));
    }
    sum += v;
  }
  if (std::fabs(sum - 1.0) > tol) {
    return InvalidArgumentError("ValidateDistribution: probabilities sum to " +
                                std::to_string(sum) + ", expected 1");
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> Normalize(const std::vector<double>& w) {
  if (w.empty()) return InvalidArgumentError("Normalize: empty weights");
  double sum = 0.0;
  for (double v : w) {
    if (!(v >= 0.0) || !std::isfinite(v)) {
      return InvalidArgumentError("Normalize: weights must be finite and non-negative");
    }
    sum += v;
  }
  if (sum <= 0.0) return InvalidArgumentError("Normalize: weights sum to zero");
  std::vector<double> p(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) p[i] = w[i] / sum;
  return p;
}

StatusOr<std::vector<double>> Linspace(double lo, double hi, std::size_t count) {
  if (count < 2) return InvalidArgumentError("Linspace: count must be >= 2");
  if (!(lo < hi)) return InvalidArgumentError("Linspace: lo must be < hi");
  std::vector<double> grid(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) grid[i] = lo + step * static_cast<double>(i);
  grid.back() = hi;  // avoid accumulated rounding at the endpoint
  return grid;
}

}  // namespace dplearn
