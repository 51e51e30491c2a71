#include "infotheory/channel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/math_util.h"

namespace dplearn {

StatusOr<DiscreteChannel> DiscreteChannel::Create(
    std::vector<std::vector<double>> transition) {
  if (transition.empty() || transition[0].empty()) {
    return InvalidArgumentError("DiscreteChannel: transition matrix must be non-empty");
  }
  const std::size_t num_outputs = transition[0].size();
  for (const auto& row : transition) {
    if (row.size() != num_outputs) {
      return InvalidArgumentError("DiscreteChannel: ragged transition matrix");
    }
    DPLEARN_RETURN_IF_ERROR(ValidateDistribution(row, 1e-6));
  }
  return DiscreteChannel(std::move(transition));
}

StatusOr<std::vector<double>> DiscreteChannel::OutputDistribution(
    const std::vector<double>& px) const {
  if (px.size() != num_inputs()) {
    return InvalidArgumentError("OutputDistribution: input distribution size mismatch");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(px, 1e-6));
  std::vector<double> py(num_outputs(), 0.0);
  for (std::size_t x = 0; x < num_inputs(); ++x) {
    for (std::size_t y = 0; y < num_outputs(); ++y) {
      py[y] += px[x] * transition_[x][y];
    }
  }
  return py;
}

StatusOr<JointDistribution> DiscreteChannel::Joint(const std::vector<double>& px) const {
  return JointDistribution::FromMarginalAndConditional(px, transition_);
}

StatusOr<double> DiscreteChannel::MutualInformation(const std::vector<double>& px) const {
  DPLEARN_ASSIGN_OR_RETURN(JointDistribution joint, Joint(px));
  return joint.MutualInformation();
}

double DiscreteChannel::MaxLogRatio(
    const std::vector<std::pair<std::size_t, std::size_t>>& neighbors) const {
  double max_ratio = 0.0;
  auto consider = [&](std::size_t a, std::size_t b) {
    for (std::size_t y = 0; y < num_outputs(); ++y) {
      const double pa = transition_[a][y];
      const double pb = transition_[b][y];
      if (pa == 0.0) continue;
      if (pb == 0.0) {
        max_ratio = std::numeric_limits<double>::infinity();
        return;
      }
      max_ratio = std::max(max_ratio, std::log(pa / pb));
    }
  };
  if (neighbors.empty()) {
    for (std::size_t a = 0; a < num_inputs(); ++a) {
      for (std::size_t b = 0; b < num_inputs(); ++b) {
        if (a != b) consider(a, b);
      }
    }
  } else {
    for (const auto& [a, b] : neighbors) {
      consider(a, b);
      consider(b, a);
    }
  }
  return max_ratio;
}

StatusOr<double> DiscreteChannel::Capacity(double tol, std::size_t max_iters) const {
  // Written so a NaN tol is rejected too.
  if (!(tol > 0.0)) return InvalidArgumentError("Capacity: tol must be positive");
  if (max_iters == 0) return InvalidArgumentError("Capacity: max_iters must be positive");

  const std::size_t nx = num_inputs();
  const std::size_t ny = num_outputs();
  std::vector<double> px(nx, 1.0 / static_cast<double>(nx));
  // D[x] = sum_y W log(W/q[y]) = sum_y W log W - sum_y W log q[y] over the
  // nonzero W[x][y]. The first sum does not depend on px, so an iteration
  // takes one log per output, not one per nonzero entry.
  std::vector<double> w_log_w(nx, 0.0);
  for (std::size_t x = 0; x < nx; ++x) {
    for (const double w : transition_[x]) {
      if (w > 0.0) w_log_w[x] += w * std::log(w);
    }
  }
  std::vector<double> q(ny);
  std::vector<double> log_q(ny);
  std::vector<double> d(nx);
  std::vector<double> log_unnorm(nx);
  // Over-relaxation: the step px <- px exp(mu D) grows mu by kStepGrowth
  // after every iteration whose lower bound did not fall, up to kMaxStep,
  // and falls back to the plain Blahut–Arimoto step (mu = 1, which never
  // lowers the bound) after one where it fell.
  constexpr double kStepGrowth = 1.1;
  constexpr double kMaxStep = 64.0;
  double mu = 1.0;
  double previous_lower = -std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // q[y] = sum_x px[x] W[x][y]
    std::fill(q.begin(), q.end(), 0.0);
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) q[y] += px[x] * transition_[x][y];
    }
    bool log_q_finite = true;
    for (std::size_t y = 0; y < ny; ++y) {
      log_q[y] = std::log(q[y]);
      log_q_finite = log_q_finite && q[y] > 0.0;
    }
    // Σ_y W log q over the nonzero W, four rows per pass: four independent
    // add chains instead of one, each still adding its row in y order. With
    // every log q[y] finite, a zero W adds a signed zero, which leaves a sum
    // that starts at +0.0 (and so is never -0.0) bitwise unchanged: the
    // rows need no skip, and every row sum keeps its bits. A zero q[y]
    // would make 0·log q NaN, so then the loop below skips zero W as before;
    // it also takes the rows past the last multiple of four.
    std::size_t x = 0;
    if (log_q_finite) {
      for (; x + 4 <= nx; x += 4) {
        const double* w0 = transition_[x].data();
        const double* w1 = transition_[x + 1].data();
        const double* w2 = transition_[x + 2].data();
        const double* w3 = transition_[x + 3].data();
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t y = 0; y < ny; ++y) {
          s0 += w0[y] * log_q[y];
          s1 += w1[y] * log_q[y];
          s2 += w2[y] * log_q[y];
          s3 += w3[y] * log_q[y];
        }
        d[x] = w_log_w[x] - s0;
        d[x + 1] = w_log_w[x + 1] - s1;
        d[x + 2] = w_log_w[x + 2] - s2;
        d[x + 3] = w_log_w[x + 3] - s3;
      }
    }
    for (; x < nx; ++x) {
      double w_log_q = 0.0;
      for (std::size_t y = 0; y < ny; ++y) {
        const double w = transition_[x][y];
        if (w > 0.0) w_log_q += w * log_q[y];
      }
      d[x] = w_log_w[x] - w_log_q;
    }
    // Capacity sandwich: max_x D[x] >= C >= sum_x px[x] D[x] = I(px), for
    // any px, so the stopping rule certifies the result whatever the step.
    double upper = -std::numeric_limits<double>::infinity();
    double lower = 0.0;
    for (std::size_t x = 0; x < nx; ++x) {
      upper = std::max(upper, d[x]);
      lower += px[x] * d[x];
    }
    if (upper - lower < tol) return std::max(0.0, lower);
    mu = lower < previous_lower ? 1.0 : std::min(kStepGrowth * mu, kMaxStep);
    previous_lower = lower;
    // px[x] <- px[x] exp(mu D[x]) / normalizer.
    for (std::size_t x = 0; x < nx; ++x) {
      log_unnorm[x] = (px[x] > 0.0 ? std::log(px[x]) : -std::numeric_limits<double>::infinity()) +
                      mu * d[x];
    }
    DPLEARN_RETURN_IF_ERROR(SoftmaxFromLogInto(log_unnorm.data(), nx, px.data()));
  }
  return InternalError("Capacity: Blahut-Arimoto did not converge");
}

}  // namespace dplearn
