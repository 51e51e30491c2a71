#ifndef DPLEARN_LEARNING_LOSS_H_
#define DPLEARN_LEARNING_LOSS_H_

#include <memory>
#include <optional>
#include <string>

#include "learning/dataset.h"
#include "simd/kernels.h"
#include "util/matrix.h"

namespace dplearn {

/// A loss l_theta(Z) of the statistical-prediction framework (Section 2.2).
///
/// Every loss declares an upper bound B such that l lies in [0, B] for all
/// (theta, Z) the caller will supply; this bound drives two quantities at
/// the heart of the paper:
///   * the global sensitivity of the empirical risk, Δ(R̂) <= B/n, which
///     calibrates the Gibbs estimator's privacy level (Theorem 4.1), and
///   * the [0,1]-scaling required by Catoni's PAC-Bayes bound (Theorem 3.1).
/// Losses that are naturally unbounded (squared) are provided in clipped
/// form.
///
/// Name() and UpperBound() together must identify Loss(): the risk-profile
/// cache (src/perf) keys entries on (Name, UpperBound, Θ, Ẑ), so two losses
/// that share both must compute the same values.
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// The devirtualized kernel (src/simd) that computes Loss(), or nullopt,
  /// the default, for a custom loss, whose risks run the virtual loop. An
  /// override promises that Loss() is EXACTLY the formula of spec.kind
  /// (same operations, same clamp order) with spec.clip == UpperBound():
  /// the kernels reproduce it element-wise from (theta·x, label, clip).
  virtual std::optional<simd::LossSpec> KernelSpec() const { return std::nullopt; }

  /// The loss of predictor `theta` on example `z`. Implementations must be
  /// deterministic and must honor the declared bound for valid inputs.
  virtual double Loss(const Vector& theta, const Example& z) const = 0;

  /// B with l in [0, B].
  virtual double UpperBound() const = 0;

  /// Human-readable name for reports, and half of the cache's loss key.
  virtual std::string Name() const = 0;

  /// True if Gradient() is implemented (needed by gradient-descent ERM and
  /// objective perturbation).
  virtual bool HasGradient() const { return false; }

  /// d/d(theta) of the loss; only valid when HasGradient(). Default aborts.
  virtual Vector Gradient(const Vector& theta, const Example& z) const;
};

/// 0-1 classification loss: 1 if sign(theta . x) != label, else 0.
/// Labels must be in {-1, +1}; a zero margin counts as an error.
class ZeroOneLoss final : public LossFunction {
 public:
  double Loss(const Vector& theta, const Example& z) const override;
  double UpperBound() const override { return 1.0; }
  std::string Name() const override { return "zero_one"; }
  std::optional<simd::LossSpec> KernelSpec() const override {
    return simd::LossSpec{simd::LossKind::kZeroOne, 1.0};
  }
};

/// Squared loss (theta . x - label)^2 clipped to [0, clip]. The clip keeps
/// the loss bounded as Catoni's bound and risk sensitivity require.
class ClippedSquaredLoss final : public LossFunction {
 public:
  /// `clip` must be positive (checked at construction; aborts otherwise).
  explicit ClippedSquaredLoss(double clip);
  double Loss(const Vector& theta, const Example& z) const override;
  double UpperBound() const override { return clip_; }
  std::string Name() const override { return "clipped_squared"; }
  std::optional<simd::LossSpec> KernelSpec() const override {
    return simd::LossSpec{simd::LossKind::kClippedSquared, clip_};
  }

 private:
  double clip_;
};

/// Logistic loss log(1 + exp(-label * theta . x)) clipped to [0, clip];
/// labels in {-1, +1}. Differentiable: the loss used by the private
/// logistic-regression baselines (Chaudhuri–Monteleoni). The gradient is of
/// the *unclipped* loss; callers keep theta in a region where the clip is
/// inactive (|theta.x| bounded), as the baselines do via L2 regularization.
class LogisticLoss final : public LossFunction {
 public:
  explicit LogisticLoss(double clip);
  double Loss(const Vector& theta, const Example& z) const override;
  double UpperBound() const override { return clip_; }
  std::string Name() const override { return "logistic"; }
  std::optional<simd::LossSpec> KernelSpec() const override {
    return simd::LossSpec{simd::LossKind::kLogistic, clip_};
  }
  bool HasGradient() const override { return true; }
  Vector Gradient(const Vector& theta, const Example& z) const override;

 private:
  double clip_;
};

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_LOSS_H_
