#ifndef DPLEARN_INFOTHEORY_FANO_H_
#define DPLEARN_INFOTHEORY_FANO_H_

#include <cstddef>

#include "util/status.h"

namespace dplearn {

/// Fano- and Le Cam-style LOWER bounds: the converse direction of the
/// paper's information-theoretic program (and of Zhang 2006, its reference
/// [12]). The forward direction says privacy throttles I(Ẑ;θ); these
/// results say a throttled channel cannot identify the truth — turning the
/// measured MI of the learning channel into a floor on achievable risk.
/// E6 checks Fano against the MAP decoder of the Gibbs channel, and E13
/// checks Pinsker + Le Cam against the Bayes membership adversary.

/// Fano's inequality: for a uniform M-ary hypothesis test (M >= 2) over a
/// channel carrying `mutual_information` nats,
///   P(error) >= 1 - (I + ln 2) / ln M.
/// Returns the bound clamped into [0, 1]. Errors if M < 2 or I is negative
/// or NaN.
StatusOr<double> FanoErrorLowerBound(double mutual_information, std::size_t num_hypotheses);

/// Le Cam two-point bound: for any estimator distinguishing two hypotheses
/// whose output-distribution total variation is `tv`,
///   P(error) >= (1 - tv) / 2.
/// Errors if tv is outside [0, 1] or NaN.
StatusOr<double> LeCamErrorLowerBound(double total_variation);

/// Pinsker's inequality: TV <= sqrt(KL/2) — converts a KL (or an ε-DP
/// max-divergence, since KL <= max-div) budget into the TV that feeds
/// Le Cam. Errors if kl is negative or NaN.
StatusOr<double> PinskerTvUpperBound(double kl);

}  // namespace dplearn

#endif  // DPLEARN_INFOTHEORY_FANO_H_
