#include "core/membership_attack.h"

#include <cmath>

#include "sampling/distributions.h"

namespace dplearn {

StatusOr<double> DpMembershipAdvantageBound(double epsilon) {
  if (!(epsilon >= 0.0)) {
    return InvalidArgumentError("DpMembershipAdvantageBound: epsilon must be >= 0");
  }
  // (e^eps - 1) / (e^eps + 1) = tanh(eps/2).
  return std::tanh(epsilon / 2.0);
}

StatusOr<MembershipAttackResult> BayesMembershipAttack(
    const AttackTargetMechanism& mechanism, const Dataset& base, std::size_t index,
    const Example& replacement, double claimed_epsilon) {
  if (!mechanism) {
    return InvalidArgumentError("BayesMembershipAttack: mechanism must be set");
  }
  if (index >= base.size()) {
    return InvalidArgumentError("BayesMembershipAttack: index out of range");
  }
  DPLEARN_ASSIGN_OR_RETURN(Dataset world1, base.ReplaceExample(index, replacement));
  if (!base.IsNeighborOf(world1)) {
    return InvalidArgumentError(
        "BayesMembershipAttack: replacement equals the existing record");
  }
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p0, mechanism(base));
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p1, mechanism(world1));
  if (p0.size() != p1.size() || p0.empty()) {
    return InternalError("BayesMembershipAttack: mechanism output arity mismatch");
  }
  // Bayes accuracy of the balanced binary hypothesis test:
  //   1/2 + TV(P0, P1) / 2.
  double tv = 0.0;
  for (std::size_t u = 0; u < p0.size(); ++u) tv += 0.5 * std::fabs(p0[u] - p1[u]);

  MembershipAttackResult result;
  result.accuracy = 0.5 + tv / 2.0;
  result.advantage = tv;
  DPLEARN_ASSIGN_OR_RETURN(result.dp_advantage_bound,
                           DpMembershipAdvantageBound(claimed_epsilon));
  result.rounds = 0;  // closed form
  return result;
}

StatusOr<MembershipAttackResult> SimulatedMembershipAttack(
    const SamplingAttackTarget& mechanism, const AttackTargetMechanism& exact_distributions,
    const Dataset& base, std::size_t index, const Example& replacement,
    double claimed_epsilon, std::size_t rounds, Rng* rng) {
  if (!mechanism || !exact_distributions) {
    return InvalidArgumentError("SimulatedMembershipAttack: mechanisms must be set");
  }
  if (rounds == 0) {
    return InvalidArgumentError("SimulatedMembershipAttack: rounds must be positive");
  }
  if (index >= base.size()) {
    return InvalidArgumentError("SimulatedMembershipAttack: index out of range");
  }
  DPLEARN_ASSIGN_OR_RETURN(Dataset world1, base.ReplaceExample(index, replacement));
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p0, exact_distributions(base));
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p1, exact_distributions(world1));
  if (p0.size() != p1.size() || p0.empty()) {
    return InternalError("SimulatedMembershipAttack: output arity mismatch");
  }

  std::size_t correct = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    DPLEARN_ASSIGN_OR_RETURN(int world, SampleBernoulli(rng, 0.5));
    const Dataset& chosen = world == 0 ? base : world1;
    DPLEARN_ASSIGN_OR_RETURN(std::size_t output, mechanism(chosen, rng));
    if (output >= p0.size()) {
      return InternalError("SimulatedMembershipAttack: out-of-range output");
    }
    // Likelihood-ratio rule; ties guess world 0.
    const int guess = p1[output] > p0[output] ? 1 : 0;
    if (guess == world) ++correct;
  }

  MembershipAttackResult result;
  result.accuracy = static_cast<double>(correct) / static_cast<double>(rounds);
  result.advantage = std::max(0.0, 2.0 * result.accuracy - 1.0);
  DPLEARN_ASSIGN_OR_RETURN(result.dp_advantage_bound,
                           DpMembershipAdvantageBound(claimed_epsilon));
  result.rounds = rounds;
  return result;
}

}  // namespace dplearn
