#ifndef DPLEARN_MECHANISMS_LAPLACE_H_
#define DPLEARN_MECHANISMS_LAPLACE_H_

#include <cmath>
#include <vector>

#include "learning/dataset.h"
#include "mechanisms/privacy_budget.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// The Laplace mechanism of Dwork et al. (Theorem 2.1 of the paper):
/// releases f(D) + Lap(Δf / ε), which is ε-differentially private.
class LaplaceMechanism {
 public:
  /// Error if the query has non-positive sensitivity or epsilon <= 0.
  static StatusOr<LaplaceMechanism> Create(SensitiveQuery query, double epsilon);

  /// Releases one ε-DP noisy answer on `data`.
  StatusOr<double> Release(const Dataset& data, Rng* rng) const;

  /// Releases `k` independent ε-DP noisy answers into *out (resized to k),
  /// evaluating the query f(data) ONCE for the whole block. Bit- and
  /// stream-identical to k Release() calls on the same Rng, and each draw is
  /// still an individual release (one "mechanism.sample" fail-point crossing
  /// and one metrics tick per draw, in draw order) — batching is a perf
  /// shape, not a change to the privacy accounting, exactly as with
  /// ExponentialMechanism::SampleBatch. On error after j successful draws,
  /// out[0..j) holds those draws and out is sized j. The composed guarantee
  /// of the batch is k·ε by sequential composition; the caller's accountant
  /// charges it.
  Status ReleaseBatch(const Dataset& data, Rng* rng, std::size_t k,
                      std::vector<double>* out) const;

  /// The exact density of the mechanism's output at `output` given `data` —
  /// Laplace(f(data), scale) evaluated at `output`. This is what the
  /// empirical DP verifier compares between neighboring datasets.
  double OutputDensity(const Dataset& data, double output) const;

  /// Noise scale b = Δf / ε.
  double noise_scale() const { return scale_; }

  /// The guarantee this mechanism provides.
  PrivacyBudget Guarantee() const { return PrivacyBudget{epsilon_, 0.0}; }

  /// Expected absolute error |noise| = b = Δf/ε (the mechanism's utility).
  double ExpectedAbsoluteError() const { return scale_; }

 private:
  LaplaceMechanism(SensitiveQuery query, double epsilon, double scale)
      : query_(std::move(query)), epsilon_(epsilon), scale_(scale) {}

  SensitiveQuery query_;
  double epsilon_;
  double scale_;
};

/// The Gaussian mechanism: releases f(D) + Normal(0, sigma^2) with
/// sigma = Δf * sqrt(2 ln(1.25/δ)) / ε, which is (ε, δ)-DP for ε in (0,1].
/// Included as the standard approximate-DP comparison point.
class GaussianMechanism {
 public:
  /// Error on non-positive sensitivity, epsilon outside (0,1], or
  /// delta outside (0,1).
  static StatusOr<GaussianMechanism> Create(SensitiveQuery query, PrivacyBudget budget);

  StatusOr<double> Release(const Dataset& data, Rng* rng) const;
  double noise_stddev() const { return stddev_; }
  PrivacyBudget Guarantee() const { return budget_; }

 private:
  GaussianMechanism(SensitiveQuery query, PrivacyBudget budget, double stddev)
      : query_(std::move(query)), budget_(budget), stddev_(stddev) {}

  SensitiveQuery query_;
  PrivacyBudget budget_;
  double stddev_;
};

/// Binary randomized response (Warner 1965), the oldest ε-DP mechanism:
/// reports the true bit with probability e^ε/(1+e^ε), the flipped bit
/// otherwise. Local-model member of the mechanism family; also the simplest
/// channel on which MaxLogRatio == ε exactly.
class RandomizedResponse {
 public:
  /// Error if epsilon <= 0.
  static StatusOr<RandomizedResponse> Create(double epsilon);

  /// Perturbs one bit (`true_bit` in {0,1}; error otherwise).
  StatusOr<int> Release(int true_bit, Rng* rng) const;

  /// P(report 1 | true bit).
  StatusOr<double> ReportOneProbability(int true_bit) const;

  /// Unbiased estimate of the population mean of bits from `reports`
  /// perturbed by this mechanism. Error if reports is empty.
  StatusOr<double> DebiasedMean(const std::vector<int>& reports) const;

  double epsilon() const { return epsilon_; }

 private:
  explicit RandomizedResponse(double epsilon)
      : epsilon_(epsilon), p_truth_(std::exp(epsilon) / (1.0 + std::exp(epsilon))) {}

  double epsilon_;
  double p_truth_;
};

}  // namespace dplearn

#endif  // DPLEARN_MECHANISMS_LAPLACE_H_
