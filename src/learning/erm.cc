#include "learning/erm.h"

#include <algorithm>
#include <cmath>

#include "learning/risk.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/trial_runner.h"

namespace dplearn {
namespace {

/// Gradient accumulation is chunked into FIXED-size blocks of examples and
/// the per-chunk partial sums are combined in chunk order. The chunk
/// geometry depends only on n, never on the thread count, so the (non-
/// associative) floating-point sum is bit-identical whether the chunks run
/// on the pool or inline — the determinism contract of src/parallel applied
/// to a reduction. Datasets with n <= kGradientChunk take the plain serial
/// path, which is the historical summation order.
constexpr std::size_t kGradientChunk = 1024;

void AccumulateGradient(const LossFunction& loss, const Dataset& data, const Vector& theta,
                        double inv_n, Vector* grad) {
  const std::size_t n = data.size();
  if (n <= kGradientChunk) {
    for (const Example& z : data.examples()) {
      AxpyInPlace(grad, inv_n, loss.Gradient(theta, z));
    }
    return;
  }
  const std::size_t num_chunks = (n + kGradientChunk - 1) / kGradientChunk;
  std::vector<Vector> partials(num_chunks);
  parallel::ParallelTrialRunner runner;
  runner.ForIndex(num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kGradientChunk;
    const std::size_t end = std::min(n, begin + kGradientChunk);
    Vector partial(theta.size(), 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      AxpyInPlace(&partial, inv_n, loss.Gradient(theta, data.at(i)));
    }
    partials[c] = std::move(partial);
  });
  for (const Vector& partial : partials) AxpyInPlace(grad, 1.0, partial);
}

}  // namespace

StatusOr<GradientErmResult> GradientDescentErm(const LossFunction& loss, const Dataset& data,
                                               const GradientErmOptions& options,
                                               const Vector& initial_theta) {
  if (data.empty()) return InvalidArgumentError("GradientDescentErm: empty dataset");
  if (!loss.HasGradient()) {
    return InvalidArgumentError("GradientDescentErm: loss '" + loss.Name() +
                                "' has no gradient");
  }
  if (options.learning_rate <= 0.0) {
    return InvalidArgumentError("GradientDescentErm: learning_rate must be positive");
  }
  if (options.l2_lambda < 0.0) {
    return InvalidArgumentError("GradientDescentErm: l2_lambda must be non-negative");
  }
  if (initial_theta.size() != data.FeatureDim()) {
    return InvalidArgumentError("GradientDescentErm: initial theta dimension mismatch");
  }
  if (!options.linear_perturbation.empty() &&
      options.linear_perturbation.size() != initial_theta.size()) {
    return InvalidArgumentError("GradientDescentErm: perturbation dimension mismatch");
  }

  obs::TraceSpan span("erm.gradient_descent");

  const double n = static_cast<double>(data.size());
  Vector theta = initial_theta;
  GradientErmResult result;

  for (std::size_t iter = 0; iter < options.max_iters; ++iter) {
    // grad = (1/n) sum_i dl/dtheta + lambda*theta + b/n.
    Vector grad(theta.size(), 0.0);
    AccumulateGradient(loss, data, theta, 1.0 / n, &grad);
    AxpyInPlace(&grad, options.l2_lambda, theta);
    if (!options.linear_perturbation.empty()) {
      AxpyInPlace(&grad, 1.0 / n, options.linear_perturbation);
    }
    result.iterations = iter + 1;
    if (NormInf(grad) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    AxpyInPlace(&theta, -options.learning_rate, grad);
  }

  if (obs::MetricsEnabled()) {
    static obs::Counter* const runs = obs::GlobalMetrics().GetCounter("erm.gd_runs");
    static obs::Counter* const iters = obs::GlobalMetrics().GetCounter("erm.gd_iterations");
    runs->Increment();
    iters->Increment(result.iterations);
  }
  result.theta = theta;
  DPLEARN_ASSIGN_OR_RETURN(double risk, EmpiricalRisk(loss, theta, data));
  result.objective = risk + 0.5 * options.l2_lambda * Dot(theta, theta);
  if (!options.linear_perturbation.empty()) {
    result.objective += Dot(options.linear_perturbation, theta) / n;
  }
  return result;
}

}  // namespace dplearn
