#include "infotheory/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/math_util.h"

namespace dplearn {
namespace {

/// Digamma (psi) function via upward recurrence + asymptotic series; accurate
/// to ~1e-12 for x > 0, which is all the KSG estimator needs.
double Digamma(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0)));
  return result;
}

/// The continuous estimators' input guard: a NaN has no bin (casting it to
/// an index is undefined) and no order (nth_element needs one), and an
/// infinity stretches the binning range or the k-NN distances to inf.
Status RequireFinite(const char* fn, const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(ys[i])) {
      return InvalidArgumentError(std::string(fn) + ": non-finite sample at index " +
                                  std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<JointDistribution> JointDistribution::Create(std::size_t num_x, std::size_t num_y,
                                                      std::vector<double> joint) {
  if (num_x == 0 || num_y == 0) {
    return InvalidArgumentError("JointDistribution: alphabet sizes must be positive");
  }
  if (joint.size() != num_x * num_y) {
    return InvalidArgumentError("JointDistribution: joint size " +
                                std::to_string(joint.size()) + " != " +
                                std::to_string(num_x * num_y));
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(joint, 1e-6));
  return JointDistribution(num_x, num_y, std::move(joint));
}

StatusOr<JointDistribution> JointDistribution::FromMarginalAndConditional(
    const std::vector<double>& marginal_x,
    const std::vector<std::vector<double>>& conditional_y_given_x) {
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(marginal_x, 1e-6));
  if (conditional_y_given_x.size() != marginal_x.size()) {
    return InvalidArgumentError(
        "FromMarginalAndConditional: conditional must have one row per input symbol");
  }
  if (conditional_y_given_x.empty() || conditional_y_given_x[0].empty()) {
    return InvalidArgumentError("FromMarginalAndConditional: empty conditional");
  }
  const std::size_t num_x = marginal_x.size();
  const std::size_t num_y = conditional_y_given_x[0].size();
  std::vector<double> joint(num_x * num_y, 0.0);
  for (std::size_t x = 0; x < num_x; ++x) {
    const auto& row = conditional_y_given_x[x];
    if (row.size() != num_y) {
      return InvalidArgumentError("FromMarginalAndConditional: ragged conditional rows");
    }
    // Rows with zero marginal mass may be arbitrary; skip validation there.
    if (marginal_x[x] > 0.0) {
      DPLEARN_RETURN_IF_ERROR(ValidateDistribution(row, 1e-6));
    }
    for (std::size_t y = 0; y < num_y; ++y) {
      joint[x * num_y + y] = marginal_x[x] * row[y];
    }
  }
  return JointDistribution(num_x, num_y, std::move(joint));
}

std::vector<double> JointDistribution::MarginalX() const {
  std::vector<double> m(num_x_, 0.0);
  for (std::size_t x = 0; x < num_x_; ++x) {
    for (std::size_t y = 0; y < num_y_; ++y) m[x] += P(x, y);
  }
  return m;
}

std::vector<double> JointDistribution::MarginalY() const {
  std::vector<double> m(num_y_, 0.0);
  for (std::size_t x = 0; x < num_x_; ++x) {
    for (std::size_t y = 0; y < num_y_; ++y) m[y] += P(x, y);
  }
  return m;
}

double JointDistribution::MutualInformation() const {
  const std::vector<double> px = MarginalX();
  const std::vector<double> py = MarginalY();
  double mi = 0.0;
  for (std::size_t x = 0; x < num_x_; ++x) {
    for (std::size_t y = 0; y < num_y_; ++y) {
      const double pxy = P(x, y);
      // Log-difference form: the product px*py can underflow to zero for
      // subnormal cells even though each factor is positive (px, py >= pxy
      // guarantees each log is finite whenever pxy > 0).
      if (pxy > 0.0) mi += pxy * (std::log(pxy) - std::log(px[x]) - std::log(py[y]));
    }
  }
  return ClampRoundingNegative(mi);
}

StatusOr<double> PluginMiFromSamples(const std::vector<std::size_t>& xs,
                                     const std::vector<std::size_t>& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return InvalidArgumentError("PluginMiFromSamples: need equal-length non-empty samples");
  }
  const std::size_t max_x = *std::max_element(xs.begin(), xs.end());
  const std::size_t max_y = *std::max_element(ys.begin(), ys.end());
  // (max_x + 1)·(max_y + 1) <= kPluginMiMaxCells, tested without forming a
  // product or a +1 that could wrap.
  if (max_x >= kPluginMiMaxCells || max_y >= kPluginMiMaxCells / (max_x + 1)) {
    return InvalidArgumentError("PluginMiFromSamples: symbols up to " + std::to_string(max_x) +
                                " x " + std::to_string(max_y) + " need more than " +
                                std::to_string(kPluginMiMaxCells) + " joint cells");
  }
  const std::size_t num_x = max_x + 1;
  const std::size_t num_y = max_y + 1;
  // Each cell adds 1/n per sample in sample order, and the sum walks the
  // nonzero cells x-major, then y. The order fixes the result's bits:
  // tests/proptest_infotheory_test.cc pins them to a std::map reference.
  const double n = static_cast<double>(xs.size());
  std::vector<double> px(num_x, 0.0);
  std::vector<double> py(num_y, 0.0);
  std::vector<double> pxy(num_x * num_y, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    px[xs[i]] += 1.0 / n;
    py[ys[i]] += 1.0 / n;
    pxy[xs[i] * num_y + ys[i]] += 1.0 / n;
  }
  std::vector<double> log_py(num_y, 0.0);
  for (std::size_t y = 0; y < num_y; ++y) {
    if (py[y] > 0.0) log_py[y] = std::log(py[y]);
  }
  double mi = 0.0;
  for (std::size_t x = 0; x < num_x; ++x) {
    if (px[x] == 0.0) continue;
    const double log_px = std::log(px[x]);
    const double* row = &pxy[x * num_y];
    for (std::size_t y = 0; y < num_y; ++y) {
      // Zero cells contribute 0, as in JointDistribution::MutualInformation,
      // and the log-difference form never forms the product px*py, which can
      // underflow.
      const double p = row[y];
      if (p == 0.0) continue;
      mi += p * (std::log(p) - log_px - log_py[y]);
    }
  }
  return ClampRoundingNegative(mi);
}

double MillerMadowCorrection(std::size_t support_x, std::size_t support_y,
                             std::size_t support_joint, std::size_t n) {
  // Bias of plug-in MI ~= (Kxy - Kx - Ky + 1) / (2n); subtracting this from
  // the plug-in estimate reduces small-sample bias.
  const double kx = static_cast<double>(support_x);
  const double ky = static_cast<double>(support_y);
  const double kxy = static_cast<double>(support_joint);
  return (kxy - kx - ky + 1.0) / (2.0 * static_cast<double>(n));
}

StatusOr<double> HistogramMi(const std::vector<double>& xs, const std::vector<double>& ys,
                             std::size_t bins) {
  if (xs.size() < 2 || xs.size() != ys.size()) {
    return InvalidArgumentError("HistogramMi: need >=2 equal-length samples");
  }
  if (bins == 0) return InvalidArgumentError("HistogramMi: bins must be positive");
  DPLEARN_RETURN_IF_ERROR(RequireFinite("HistogramMi", xs, ys));
  const auto [xmin_it, xmax_it] = std::minmax_element(xs.begin(), xs.end());
  const auto [ymin_it, ymax_it] = std::minmax_element(ys.begin(), ys.end());
  const double xspan = std::max(*xmax_it - *xmin_it, 1e-300);
  const double yspan = std::max(*ymax_it - *ymin_it, 1e-300);
  if (!std::isfinite(xspan) || !std::isfinite(yspan)) {
    return InvalidArgumentError("HistogramMi: sample range overflows a double");
  }
  std::vector<std::size_t> bx(xs.size());
  std::vector<std::size_t> by(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    bx[i] = std::min(bins - 1,
                     static_cast<std::size_t>((xs[i] - *xmin_it) / xspan * static_cast<double>(bins)));
    by[i] = std::min(bins - 1,
                     static_cast<std::size_t>((ys[i] - *ymin_it) / yspan * static_cast<double>(bins)));
  }
  return PluginMiFromSamples(bx, by);
}

StatusOr<double> KsgMi(const std::vector<double>& xs, const std::vector<double>& ys,
                       std::size_t k) {
  const std::size_t n = xs.size();
  if (n != ys.size()) return InvalidArgumentError("KsgMi: size mismatch");
  if (k == 0) return InvalidArgumentError("KsgMi: k must be positive");
  if (n <= k) return InvalidArgumentError("KsgMi: need more samples than k");
  DPLEARN_RETURN_IF_ERROR(RequireFinite("KsgMi", xs, ys));

  // O(n^2) brute-force neighbor search: the library uses this for n up to a
  // few thousand, where exactness and simplicity beat a k-d tree.
  double psi_sum = 0.0;
  std::vector<double> dists(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dists[j] = (j == i) ? std::numeric_limits<double>::infinity()
                          : std::max(std::fabs(xs[i] - xs[j]), std::fabs(ys[i] - ys[j]));
    }
    std::vector<double> sorted = dists;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     sorted.end());
    const double eps = sorted[k - 1];  // distance to the k-th neighbor
    std::size_t nx = 0;
    std::size_t ny = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (std::fabs(xs[i] - xs[j]) < eps) ++nx;
      if (std::fabs(ys[i] - ys[j]) < eps) ++ny;
    }
    psi_sum += Digamma(static_cast<double>(nx) + 1.0) + Digamma(static_cast<double>(ny) + 1.0);
  }
  const double mi = Digamma(static_cast<double>(k)) + Digamma(static_cast<double>(n)) -
                    psi_sum / static_cast<double>(n);
  return ClampRoundingNegative(mi);
}

}  // namespace dplearn
