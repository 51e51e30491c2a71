#ifndef DPLEARN_CORE_LEARNING_CHANNEL_H_
#define DPLEARN_CORE_LEARNING_CHANNEL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "infotheory/channel.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "util/status.h"

namespace dplearn {

/// The information channel of Figure 1 / Section 4.1: differentially-private
/// learning viewed as a channel whose input is the training sample Ẑ and
/// whose output is the predictor θ, with transition kernel
/// p(θ|Ẑ) = Gibbs posterior π̂_λ(θ|Ẑ).
///
/// For the Bernoulli mean-estimation task the channel is EXACTLY
/// constructible: the Gibbs posterior depends on Ẑ only through the
/// sufficient statistic k = #ones, so the channel input alphabet collapses
/// to k ∈ {0..n} with marginal Binomial(n, p), and I(Ẑ; θ) = I(k; θ) by
/// sufficiency. The DP neighbor relation becomes |k - k'| <= 1.
struct GibbsLearningChannel {
  /// Transition kernel: rows indexed by k, columns by hypothesis index.
  DiscreteChannel channel;
  /// P(k) = Binomial(n, p) — the push-forward of Q^n.
  std::vector<double> input_marginal;
  /// risk_matrix[k][i] = R̂ of hypothesis i on any dataset with k ones.
  std::vector<std::vector<double>> risk_matrix;
  /// All (k, k+1) pairs — the neighbor relation on inputs.
  std::vector<std::pair<std::size_t, std::size_t>> neighbor_pairs;
};

/// Builds the exact Gibbs learning channel for `task` at sample size n,
/// hypothesis class `hclass`, prior `prior`, loss `loss`, and inverse
/// temperature lambda. Errors on invalid arguments.
StatusOr<GibbsLearningChannel> BuildBernoulliGibbsChannel(const BernoulliMeanTask& task,
                                                          std::size_t n,
                                                          const LossFunction& loss,
                                                          const FiniteHypothesisClass& hclass,
                                                          const std::vector<double>& prior,
                                                          double lambda);

/// I(Ẑ; θ) of the channel under its input marginal — the quantity the
/// privacy parameter regularizes in Theorem 4.2.
StatusOr<double> ChannelMutualInformation(const GibbsLearningChannel& channel);

/// The channel's tight privacy level ε* = max over neighbor pairs and
/// outputs of the log transition ratio (Definition 2.1 made computable).
double ChannelPrivacyLevel(const GibbsLearningChannel& channel);

}  // namespace dplearn

#endif  // DPLEARN_CORE_LEARNING_CHANNEL_H_
