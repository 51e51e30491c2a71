#include "core/learning_channel.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/gibbs_estimator.h"
#include "learning/dataset.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/risk_profile_cache.h"
#include "util/math_util.h"

namespace dplearn {

StatusOr<GibbsLearningChannel> BuildBernoulliGibbsChannel(const BernoulliMeanTask& task,
                                                          std::size_t n,
                                                          const LossFunction& loss,
                                                          const FiniteHypothesisClass& hclass,
                                                          const std::vector<double>& prior,
                                                          double lambda) {
  if (n == 0) return InvalidArgumentError("BuildBernoulliGibbsChannel: n must be positive");
  if (prior.size() != hclass.size()) {
    return InvalidArgumentError("BuildBernoulliGibbsChannel: prior size mismatch");
  }

  obs::TraceSpan span("channel.build");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const builds = obs::GlobalMetrics().GetCounter("channel.builds");
    builds->Increment();
  }

  // The prior is row-invariant: validate it once and hoist its log out of
  // the n+1 row builds (GibbsPosteriorFromRisks would redo both per row).
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(prior, 1e-6));
  std::vector<double> log_prior(prior.size());
  for (std::size_t i = 0; i < prior.size(); ++i) {
    log_prior[i] = prior[i] > 0.0 ? std::log(prior[i])
                                  : -std::numeric_limits<double>::infinity();
  }

  std::vector<std::vector<double>> risk_matrix(n + 1);
  std::vector<std::vector<double>> transition(n + 1);
  std::vector<double> input_marginal(n + 1);

  // One representative dataset with exactly k ones per row; the empirical
  // risk of every hypothesis depends on Ẑ only through k, and consecutive
  // rows differ in one label — walk them by a single SetLabel per step
  // instead of reconstructing n examples each time.
  Dataset representative;
  for (std::size_t i = 0; i < n; ++i) {
    representative.Add(Example{Vector{1.0}, 0.0});
  }
  for (std::size_t k = 0; k <= n; ++k) {
    if (k > 0) DPLEARN_RETURN_IF_ERROR(representative.SetLabel(k - 1, 1.0));
    // Routed through the risk-profile cache: λ sweeps rebuild the channel
    // over the same n+1 representative datasets, and only the Gibbs tilt
    // below depends on λ.
    DPLEARN_ASSIGN_OR_RETURN(risk_matrix[k],
                             perf::CachedRiskProfile(loss, hclass, representative));
    // Tilt + softmax straight into the row — same bits as the allocating
    // GibbsPosteriorFromRisks (the kernels are element-wise).
    transition[k].resize(risk_matrix[k].size());
    DPLEARN_RETURN_IF_ERROR(GibbsPosteriorFromRisksInto(risk_matrix[k].data(),
                                                        log_prior.data(),
                                                        risk_matrix[k].size(), lambda,
                                                        transition[k].data()));
    DPLEARN_ASSIGN_OR_RETURN(input_marginal[k], task.DatasetProbability(n, k));
  }

  DPLEARN_ASSIGN_OR_RETURN(DiscreteChannel channel,
                           DiscreteChannel::Create(std::move(transition)));

  std::vector<std::pair<std::size_t, std::size_t>> neighbor_pairs;
  neighbor_pairs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) neighbor_pairs.emplace_back(k, k + 1);

  return GibbsLearningChannel{std::move(channel), std::move(input_marginal),
                              std::move(risk_matrix), std::move(neighbor_pairs)};
}

StatusOr<double> ChannelMutualInformation(const GibbsLearningChannel& channel) {
  return channel.channel.MutualInformation(channel.input_marginal);
}

double ChannelPrivacyLevel(const GibbsLearningChannel& channel) {
  return channel.channel.MaxLogRatio(channel.neighbor_pairs);
}

}  // namespace dplearn
