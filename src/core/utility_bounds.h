#ifndef DPLEARN_CORE_UTILITY_BOUNDS_H_
#define DPLEARN_CORE_UTILITY_BOUNDS_H_

#include <cstddef>

#include "util/status.h"

namespace dplearn {

/// Closed-form UTILITY guarantee for the Gibbs / exponential-mechanism
/// learner — the other half of Theorem 4.1's story. Privacy says the
/// posterior cannot depend too much on the data; this bound says it still
/// concentrates on low-risk hypotheses.

/// Excess TRUE risk bound for one Gibbs draw over a finite Θ with a
/// uniform prior. McSherry–Talwar bounds the excess empirical risk by
/// ln(|Θ|/δ)/λ; two uniform-convergence passes (Hoeffding over the finite
/// class) carry it to the true risk: with probability >= 1 - delta,
///   R(θ) − min R(θ') <= ln(3|Θ|/δ)/λ + 2 B sqrt( ln(6|Θ|/δ) / (2n) ).
/// Loose but fully explicit; E7 checks it exactly on every Part A cell.
/// Errors on invalid arguments.
StatusOr<double> GibbsExcessTrueRiskBound(double lambda, std::size_t num_hypotheses,
                                          std::size_t n, double loss_bound, double delta);

}  // namespace dplearn

#endif  // DPLEARN_CORE_UTILITY_BOUNDS_H_
