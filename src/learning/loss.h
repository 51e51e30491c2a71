#ifndef DPLEARN_LEARNING_LOSS_H_
#define DPLEARN_LEARNING_LOSS_H_

#include <memory>
#include <string>

#include "learning/dataset.h"
#include "util/matrix.h"

namespace dplearn {

/// The closed set of built-in loss formulas. The simd kernels (src/simd)
/// devirtualize the risk loop over this set; kCustom means "no known
/// formula" and keeps callers on the virtual-dispatch path.
enum class LossKind {
  kZeroOne,
  kClippedSquared,
  kLogistic,
  kHuber,
  kCustom,
};

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
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// Which built-in formula Loss() computes, or kCustom for user-defined
  /// subclasses. An override promises that Loss() is EXACTLY the formula
  /// documented for that kind (same operations, same clamp order) — the
  /// devirtualized kernels reproduce it element-wise from (theta·x, label,
  /// UpperBound, ParameterFingerprint) alone.
  virtual LossKind Kind() const { return LossKind::kCustom; }

  /// The loss of predictor `theta` on example `z`. Implementations must be
  /// deterministic and must honor the declared bound for valid inputs.
  virtual double Loss(const Vector& theta, const Example& z) const = 0;

  /// B with l in [0, B].
  virtual double UpperBound() const = 0;

  /// Human-readable name for reports.
  virtual std::string Name() const = 0;

  /// True if Gradient() is implemented (needed by gradient-descent ERM and
  /// objective perturbation).
  virtual bool HasGradient() const { return false; }

  /// Distinguishes losses whose Loss() depends on parameters beyond Name()
  /// and UpperBound() — the risk-profile cache (src/perf) keys entries on
  /// (Name, UpperBound, ParameterFingerprint, Θ, Ẑ), so a loss with hidden
  /// parameters that does not override this would alias a differently
  /// parameterized instance of the same class. Losses fully identified by
  /// name + bound keep the default.
  virtual double ParameterFingerprint() const { return 0.0; }

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
  LossKind Kind() const override { return LossKind::kZeroOne; }
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
  LossKind Kind() const override { return LossKind::kClippedSquared; }

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
  LossKind Kind() const override { return LossKind::kLogistic; }
  bool HasGradient() const override { return true; }
  Vector Gradient(const Vector& theta, const Example& z) const override;

 private:
  double clip_;
};

/// Huber loss: quadratic within `delta` of the residual, linear beyond,
/// clipped to [0, clip].
class HuberLoss final : public LossFunction {
 public:
  HuberLoss(double delta, double clip);
  double Loss(const Vector& theta, const Example& z) const override;
  double UpperBound() const override { return clip_; }
  std::string Name() const override { return "huber"; }
  LossKind Kind() const override { return LossKind::kHuber; }
  /// `delta` shapes the loss but is invisible in Name()/UpperBound().
  double ParameterFingerprint() const override { return delta_; }

 private:
  double delta_;
  double clip_;
};

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_LOSS_H_
