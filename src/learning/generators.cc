#include "learning/generators.h"

#include <cmath>

#include "sampling/distributions.h"

namespace dplearn {

StatusOr<BernoulliMeanTask> BernoulliMeanTask::Create(double p) {
  if (p < 0.0 || p > 1.0) {
    return InvalidArgumentError("BernoulliMeanTask: p must be in [0,1]");
  }
  return BernoulliMeanTask(p);
}

StatusOr<Dataset> BernoulliMeanTask::Sample(std::size_t n, Rng* rng) const {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    DPLEARN_ASSIGN_OR_RETURN(int bit, SampleBernoulli(rng, p_));
    data.Add(Example{Vector{1.0}, static_cast<double>(bit)});
  }
  return data;
}

std::vector<Example> BernoulliMeanTask::Domain() {
  return {Example{Vector{1.0}, 0.0}, Example{Vector{1.0}, 1.0}};
}

StatusOr<double> BernoulliMeanTask::DatasetProbability(std::size_t n,
                                                       std::size_t num_ones) const {
  if (num_ones > n) {
    return InvalidArgumentError("DatasetProbability: num_ones exceeds n");
  }
  // log C(n,k) + k log p + (n-k) log(1-p), exponentiated at the end.
  double log_prob = std::lgamma(static_cast<double>(n) + 1.0) -
                    std::lgamma(static_cast<double>(num_ones) + 1.0) -
                    std::lgamma(static_cast<double>(n - num_ones) + 1.0);
  if (num_ones > 0) {
    if (p_ == 0.0) return 0.0;
    log_prob += static_cast<double>(num_ones) * std::log(p_);
  }
  if (num_ones < n) {
    if (p_ == 1.0) return 0.0;
    log_prob += static_cast<double>(n - num_ones) * std::log(1.0 - p_);
  }
  return std::exp(log_prob);
}

StatusOr<LinearRegressionTask> LinearRegressionTask::Create(Vector w, double x_radius,
                                                            double noise_stddev) {
  if (w.empty()) return InvalidArgumentError("LinearRegressionTask: w must be non-empty");
  if (x_radius <= 0.0) {
    return InvalidArgumentError("LinearRegressionTask: x_radius must be positive");
  }
  if (noise_stddev < 0.0) {
    return InvalidArgumentError("LinearRegressionTask: noise_stddev must be non-negative");
  }
  return LinearRegressionTask(std::move(w), x_radius, noise_stddev);
}

StatusOr<Dataset> LinearRegressionTask::Sample(std::size_t n, Rng* rng) const {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector x(w_.size());
    for (double& xi : x) {
      DPLEARN_ASSIGN_OR_RETURN(xi, SampleUniform(rng, -x_radius_, x_radius_));
    }
    double y = Dot(w_, x);
    if (noise_stddev_ > 0.0) {
      DPLEARN_ASSIGN_OR_RETURN(double noise, SampleNormal(rng, 0.0, noise_stddev_));
      y += noise;
    }
    data.Add(Example{std::move(x), y});
  }
  return data;
}

StatusOr<GaussianMixtureTask> GaussianMixtureTask::Create(Vector mean, double stddev) {
  if (mean.empty()) return InvalidArgumentError("GaussianMixtureTask: mean must be non-empty");
  if (Norm2(mean) == 0.0) {
    return InvalidArgumentError("GaussianMixtureTask: mean must be non-zero");
  }
  if (stddev <= 0.0) {
    return InvalidArgumentError("GaussianMixtureTask: stddev must be positive");
  }
  return GaussianMixtureTask(std::move(mean), stddev);
}

StatusOr<Dataset> GaussianMixtureTask::Sample(std::size_t n, Rng* rng) const {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    DPLEARN_ASSIGN_OR_RETURN(int bit, SampleBernoulli(rng, 0.5));
    const double y = bit == 1 ? 1.0 : -1.0;
    Vector x(mean_.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      DPLEARN_ASSIGN_OR_RETURN(x[j], SampleNormal(rng, y * mean_[j], stddev_));
    }
    data.Add(Example{std::move(x), y});
  }
  return data;
}

double GaussianMixtureTask::TrueZeroOneRisk(const Vector& theta) const {
  const double norm = Norm2(theta);
  if (norm == 0.0) return 0.5;  // sign(0) is always wrong for one class
  // P(sign(theta.X) != Y) = P(N(theta.mean, stddev^2 ||theta||^2) <= 0)
  //                       = Phi(-(theta.mean)/(stddev ||theta||)).
  const double margin = Dot(theta, mean_) / (stddev_ * norm);
  return NormalCdf(-margin, 0.0, 1.0);
}

double GaussianMixtureTask::BayesRisk() const {
  return NormalCdf(-Norm2(mean_) / stddev_, 0.0, 1.0);
}

}  // namespace dplearn
