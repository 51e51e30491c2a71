#ifndef DPLEARN_INFOTHEORY_ENTROPY_H_
#define DPLEARN_INFOTHEORY_ENTROPY_H_

#include <vector>

#include "util/status.h"

namespace dplearn {

/// Discrete information measures. All quantities are returned in NATS
/// (natural log) because the paper's PAC-Bayes machinery — KL terms in
/// Catoni's bound, the (1/ε)·I(Ẑ;θ) regularizer — is stated in nats.

/// Shannon entropy H(p) of a probability vector. Error if `p` is not a
/// valid distribution.
StatusOr<double> Entropy(const std::vector<double>& p);

/// Kullback–Leibler divergence D(p || q) = sum p_i log(p_i/q_i).
/// +infinity when p is not absolutely continuous w.r.t. q. Error on invalid
/// distributions or size mismatch. This is the D_KL(π̂ ‖ π) term of
/// Theorem 3.1.
StatusOr<double> KlDivergence(const std::vector<double>& p, const std::vector<double>& q);

/// Jensen–Shannon divergence (symmetric, bounded by log 2). Error on invalid
/// input.
StatusOr<double> JensenShannonDivergence(const std::vector<double>& p,
                                         const std::vector<double>& q);

/// Entropy of a Bernoulli(p) bit. Error if p outside [0,1].
StatusOr<double> BinaryEntropy(double p);

}  // namespace dplearn

#endif  // DPLEARN_INFOTHEORY_ENTROPY_H_
