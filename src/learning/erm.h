#ifndef DPLEARN_LEARNING_ERM_H_
#define DPLEARN_LEARNING_ERM_H_

#include <cstddef>

#include "learning/dataset.h"
#include "learning/loss.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {

/// Non-private empirical risk minimization. These are (a) the baselines
/// the private learners are measured against and (b) the inner solver that
/// objective perturbation wraps.

/// Configuration for gradient-descent ERM.
struct GradientErmOptions {
  /// L2 regularization strength lambda in R̂(theta) + (lambda/2)||theta||^2.
  double l2_lambda = 0.0;
  /// Fixed step size.
  double learning_rate = 0.1;
  /// Maximum full-gradient iterations.
  std::size_t max_iters = 2000;
  /// Stop when the gradient infinity-norm falls below this.
  double gradient_tolerance = 1e-8;
  /// Optional extra linear term b . theta / n added to the objective —
  /// this is the hook objective perturbation uses to inject its noise
  /// vector. Empty means no extra term.
  Vector linear_perturbation;
};

/// Result of a gradient-descent ERM run.
struct GradientErmResult {
  Vector theta;
  double objective = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Full-batch gradient descent on
///   J(theta) = R̂_Ẑ(theta) + (lambda/2)||theta||^2 + (b . theta)/n.
/// Requires loss.HasGradient(). Error on empty data, dimension mismatch, or
/// invalid options. Convex for the logistic loss with lambda > 0, where
/// this converges to the unique minimizer.
StatusOr<GradientErmResult> GradientDescentErm(const LossFunction& loss, const Dataset& data,
                                               const GradientErmOptions& options,
                                               const Vector& initial_theta);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_ERM_H_
