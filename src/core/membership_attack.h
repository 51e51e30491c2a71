#ifndef DPLEARN_CORE_MEMBERSHIP_ATTACK_H_
#define DPLEARN_CORE_MEMBERSHIP_ATTACK_H_

#include <cstddef>
#include <functional>

#include "learning/dataset.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// Membership-inference attacks against finite-output learning mechanisms —
/// the operational meaning of the paper's channel view. If the predictor θ
/// carries I(Ẑ;θ) nats about the sample, an adversary can convert that
/// information into guesses about individual records; ε-DP caps ANY such
/// adversary's advantage at (e^ε − 1)/(e^ε + 1) for the balanced
/// replace-one game. This module plays the game against the actual
/// mechanism and reports the measured advantage next to the bound.

/// A mechanism exposed through its exact finite output distribution (same
/// contract as the DP verifier's).
using AttackTargetMechanism =
    std::function<StatusOr<std::vector<double>>(const Dataset&)>;

/// Result of a simulated membership-inference game.
struct MembershipAttackResult {
  /// P(adversary guesses correctly) over the balanced game.
  double accuracy = 0.5;
  /// advantage = 2*accuracy - 1, in [0, 1].
  double advantage = 0.0;
  /// The DP cap (e^eps - 1)/(e^eps + 1) for the epsilon supplied.
  double dp_advantage_bound = 0.0;
  /// Number of game rounds played.
  std::size_t rounds = 0;
};

/// Plays the balanced replace-one membership game:
///   a coin picks world 0 (dataset = base) or world 1 (dataset = base with
///   record `index` replaced by `replacement`); the mechanism releases one
///   output; the BAYES-OPTIMAL adversary (who knows both exact output
///   distributions) guesses the world by likelihood ratio.
/// The Bayes accuracy equals 1/2 + TV(P0, P1)/2, computed in closed form
/// from the exact distributions — no sampling noise. `claimed_epsilon`
/// fills the bound field. Errors on invalid inputs.
StatusOr<MembershipAttackResult> BayesMembershipAttack(
    const AttackTargetMechanism& mechanism, const Dataset& base, std::size_t index,
    const Example& replacement, double claimed_epsilon);

/// Monte-Carlo version for mechanisms only exposed through sampling: plays
/// `rounds` rounds with a likelihood-ratio adversary built from the exact
/// distributions (supplied separately); reports empirical accuracy. Used
/// to validate that the closed form matches a simulated adversary.
using SamplingAttackTarget = std::function<StatusOr<std::size_t>(const Dataset&, Rng*)>;
StatusOr<MembershipAttackResult> SimulatedMembershipAttack(
    const SamplingAttackTarget& mechanism, const AttackTargetMechanism& exact_distributions,
    const Dataset& base, std::size_t index, const Example& replacement,
    double claimed_epsilon, std::size_t rounds, Rng* rng);

/// The DP advantage cap (e^eps - 1)/(e^eps + 1). Error if eps is negative or
/// NaN.
StatusOr<double> DpMembershipAdvantageBound(double epsilon);

}  // namespace dplearn

#endif  // DPLEARN_CORE_MEMBERSHIP_ATTACK_H_
