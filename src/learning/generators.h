#ifndef DPLEARN_LEARNING_GENERATORS_H_
#define DPLEARN_LEARNING_GENERATORS_H_

#include <cstddef>
#include <vector>

#include "learning/dataset.h"
#include "sampling/rng.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {

/// Synthetic tasks with a *known* data distribution Q.
///
/// The paper's quantities — true risk R(theta) = E_Z[l_theta(Z)], the
/// expectation over Ẑ ~ Q^n in Theorem 3.1, the mutual information I(Ẑ;θ)
/// of Section 4 — are all defined against Q, which is unknowable for real
/// data. Seeded synthetic generators are the substitution that makes every
/// theorem empirically checkable: Q is known, so true risk and exact
/// channel distributions are available (see DESIGN.md §3).

/// Bernoulli mean estimation: Z ~ Bernoulli(p), encoded as an example with
/// features {1} and label in {0,1}. With ClippedSquaredLoss(1) and
/// theta in [0,1], the loss (theta - z)^2 lies in [0,1] and the true risk
/// has the closed form (theta - p)^2 + p(1-p). The smallest task on which
/// every theorem of the paper can be verified *exactly*: the sample space
/// is {0,1}, so channels over all datasets of size n are enumerable.
class BernoulliMeanTask {
 public:
  /// Error if p outside [0,1].
  static StatusOr<BernoulliMeanTask> Create(double p);

  double p() const { return p_; }

  /// Draws n i.i.d. examples.
  StatusOr<Dataset> Sample(std::size_t n, Rng* rng) const;

  /// Closed-form true risk of scalar predictor theta under squared loss.
  double TrueRisk(double theta) const { return (theta - p_) * (theta - p_) + p_ * (1.0 - p_); }

  /// The Bayes-optimal predictor (theta = p) and its risk p(1-p).
  double BayesRisk() const { return p_ * (1.0 - p_); }

  /// The full example domain {z=0, z=1} — input to exhaustive neighbor
  /// enumeration and to exact channel construction.
  static std::vector<Example> Domain();

  /// Probability of observing a dataset with `num_ones` ones among n draws,
  /// i.e. C(n,k) p^k (1-p)^(n-k). Error if num_ones > n.
  StatusOr<double> DatasetProbability(std::size_t n, std::size_t num_ones) const;

 private:
  explicit BernoulliMeanTask(double p) : p_(p) {}
  double p_;
};

/// Linear regression: X uniform on [-x_radius, x_radius]^d,
/// Y = w . X + Normal(0, noise_stddev).
class LinearRegressionTask {
 public:
  /// Error if w empty, x_radius <= 0, or noise_stddev < 0.
  static StatusOr<LinearRegressionTask> Create(Vector w, double x_radius,
                                               double noise_stddev);

  const Vector& w() const { return w_; }
  double x_radius() const { return x_radius_; }
  double noise_stddev() const { return noise_stddev_; }

  StatusOr<Dataset> Sample(std::size_t n, Rng* rng) const;

 private:
  LinearRegressionTask(Vector w, double x_radius, double noise_stddev)
      : w_(std::move(w)), x_radius_(x_radius), noise_stddev_(noise_stddev) {}

  Vector w_;
  double x_radius_;
  double noise_stddev_;
};

/// Symmetric two-Gaussian classification: Y uniform on {-1,+1},
/// X ~ Normal(Y * mean, stddev^2 I). The 0-1 risk of a linear predictor
/// theta has the closed form Phi(-(theta . mean) / (stddev * ||theta||)).
class GaussianMixtureTask {
 public:
  /// Error if mean empty or zero, or stddev <= 0.
  static StatusOr<GaussianMixtureTask> Create(Vector mean, double stddev);

  const Vector& mean() const { return mean_; }
  double stddev() const { return stddev_; }

  StatusOr<Dataset> Sample(std::size_t n, Rng* rng) const;

  /// Exact 0-1 risk of linear predictor theta (zero theta -> risk 0.5).
  double TrueZeroOneRisk(const Vector& theta) const;

  /// The Bayes risk Phi(-||mean||/stddev), attained by theta = mean.
  double BayesRisk() const;

 private:
  GaussianMixtureTask(Vector mean, double stddev)
      : mean_(std::move(mean)), stddev_(stddev) {}

  Vector mean_;
  double stddev_;
};

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_GENERATORS_H_
