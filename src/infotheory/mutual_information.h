#ifndef DPLEARN_INFOTHEORY_MUTUAL_INFORMATION_H_
#define DPLEARN_INFOTHEORY_MUTUAL_INFORMATION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dplearn {

/// Mutual-information estimators for the channel view of DP learning
/// (Section 4.1 of the paper): I(Ẑ; θ) is the average information the
/// released predictor carries about the training sample. All results are in
/// nats.

/// A joint distribution over a finite product space X x Y, stored row-major:
/// joint[x*num_y + y] = P(X=x, Y=y).
class JointDistribution {
 public:
  /// Validates and wraps `joint` (must be a distribution over num_x*num_y
  /// cells).
  static StatusOr<JointDistribution> Create(std::size_t num_x, std::size_t num_y,
                                            std::vector<double> joint);

  /// Builds the joint P(x,y) = marginal_x[x] * conditional[x][y] from an
  /// input distribution and a row-stochastic conditional (channel) matrix.
  static StatusOr<JointDistribution> FromMarginalAndConditional(
      const std::vector<double>& marginal_x,
      const std::vector<std::vector<double>>& conditional_y_given_x);

  std::size_t num_x() const { return num_x_; }
  std::size_t num_y() const { return num_y_; }
  double P(std::size_t x, std::size_t y) const { return joint_[x * num_y_ + y]; }

  /// Marginal distribution of X.
  std::vector<double> MarginalX() const;
  /// Marginal distribution of Y.
  std::vector<double> MarginalY() const;

  /// Exact mutual information I(X;Y) = sum_{x,y} P(x,y) log(P(x,y)/(P(x)P(y))).
  double MutualInformation() const;

 private:
  JointDistribution(std::size_t num_x, std::size_t num_y, std::vector<double> joint)
      : num_x_(num_x), num_y_(num_y), joint_(std::move(joint)) {}

  std::size_t num_x_;
  std::size_t num_y_;
  std::vector<double> joint_;
};

/// The largest empirical joint PluginMiFromSamples builds, in cells
/// (max(xs)+1)·(max(ys)+1): 32 MiB of doubles.
inline constexpr std::size_t kPluginMiMaxCells = std::size_t{1} << 22;

/// Plug-in MI estimate from paired categorical samples: builds the empirical
/// joint and returns its exact MI. Symbols are alphabet indices: the joint
/// is a dense (max(xs)+1)×(max(ys)+1) table, and the result is the same for
/// any relabelling. Biased upward by ~ (|X||Y|-|X|-|Y|+1)/(2n)
/// (Miller–Madow); callers comparing against theory at small n should apply
/// the correction below. Error if the sample lists are empty or of
/// different lengths, or (before allocating) if the table would exceed
/// kPluginMiMaxCells.
StatusOr<double> PluginMiFromSamples(const std::vector<std::size_t>& xs,
                                     const std::vector<std::size_t>& ys);

/// Miller–Madow bias correction term for a plug-in MI estimate with the
/// given numbers of *observed* distinct symbols and sample size.
double MillerMadowCorrection(std::size_t support_x, std::size_t support_y,
                             std::size_t support_joint, std::size_t n);

/// Histogram MI estimate for continuous (scalar x, scalar y) samples:
/// equal-width binning over the observed ranges. Error if fewer than 2
/// samples, size mismatch, a NaN or infinite sample, bins == 0, or a bin
/// table PluginMiFromSamples rejects.
StatusOr<double> HistogramMi(const std::vector<double>& xs, const std::vector<double>& ys,
                             std::size_t bins);

/// Kraskov–Stögbauer–Grassberger (KSG, estimator 1) k-NN MI estimate for
/// continuous scalar pairs. Consistent without binning; the estimator used
/// for MI between a continuous parameter θ and a sample statistic. Error if
/// k == 0, n <= k, or a sample is NaN or infinite.
StatusOr<double> KsgMi(const std::vector<double>& xs, const std::vector<double>& ys,
                       std::size_t k);

}  // namespace dplearn

#endif  // DPLEARN_INFOTHEORY_MUTUAL_INFORMATION_H_
