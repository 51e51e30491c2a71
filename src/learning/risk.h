#ifndef DPLEARN_LEARNING_RISK_H_
#define DPLEARN_LEARNING_RISK_H_

#include <vector>

#include "learning/dataset.h"
#include "learning/loss.h"
#include "simd/dataset_soa.h"
#include "util/status.h"

namespace dplearn {

/// Mirrors `data` into the structure-of-arrays layout the simd risk kernels
/// stream over, validating on the way: every example must have FeatureDim()
/// features (no ragged rows) and every feature and label must be finite.
/// Non-finite inputs return OutOfRangeError — the NaN-poisoning policy of
/// DESIGN.md §14 rejects bad INPUTS rather than scanning outputs, because
/// clipped losses silently launder NaN (Clamp(NaN, 0, B) == 0).
/// `out` is Reset() first; capacity is reused across calls.
Status BuildDatasetSoA(const Dataset& data, simd::DatasetSoA* out);

/// Empirical risk R̂_Ẑ(theta) = (1/n) sum_i l_theta(Z_i) (Section 2.2).
/// InvalidArgumentError if the dataset is empty or theta or an example does
/// not have FeatureDim() features; OutOfRangeError if theta, a feature, or
/// a label is non-finite (and, for custom losses, if the summed risk is).
///
/// When the loss has a KernelSpec(), the sum runs through
/// simd::MeanLossKernel — ULP-equivalent to the virtual loop a custom loss
/// runs (bitwise below simd::kBlockedSumMinN examples) and
/// bitwise-deterministic within a build. EmpiricalRiskProfile takes the
/// same path for the same loss, so profile entries equal single-theta
/// calls exactly.
StatusOr<double> EmpiricalRisk(const LossFunction& loss, const Vector& theta,
                               const Dataset& data);

/// Empirical risk of every hypothesis in `thetas` on `data` — the risk
/// vector that parameterizes a finite-Θ Gibbs posterior. Errors as
/// EmpiricalRisk, and InvalidArgumentError if the hypothesis list is
/// empty.
StatusOr<std::vector<double>> EmpiricalRiskProfile(const LossFunction& loss,
                                                   const std::vector<Vector>& thetas,
                                                   const Dataset& data);

/// The a-priori upper bound on the global sensitivity of empirical risk:
/// replacing one example moves R̂ by at most B/n for a loss in [0, B].
/// Error if n == 0.
StatusOr<double> EmpiricalRiskSensitivityBound(const LossFunction& loss, std::size_t n);

/// The *exact* sensitivity of the empirical-risk profile over a finite
/// hypothesis class and a finite example domain:
///   Δ = max_theta max_{z, z'} |l_theta(z) - l_theta(z')| / n.
/// Tighter than B/n whenever the loss does not span its full range on the
/// domain; used to sharpen the privacy accounting in the experiments.
/// Error if any list is empty or n == 0.
StatusOr<double> ExactRiskSensitivity(const LossFunction& loss,
                                      const std::vector<Vector>& thetas,
                                      const std::vector<Example>& domain, std::size_t n);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_RISK_H_
