/// E6 — Figure 1 / Section 4.1: differentially-private learning as an
/// information channel Ẑ -> θ, with I(Ẑ;θ) governed by the privacy level.
///
/// The exact Gibbs channel is built for the Bernoulli task (input alphabet
/// = the sufficient statistic k, marginal Binomial(n,p)). For a λ sweep the
/// table reports: measured privacy ε*, exact I(Ẑ;θ), the channel capacity,
/// the input entropy H(Ẑ) (both upper bounds), and a sampled plug-in MI
/// estimate validating the estimator stack against the exact value.
/// Expected shape: I grows monotonically with ε* and is crushed to 0 at
/// high privacy — the paper's trade-off made quantitative.
///
/// The converse (infotheory/fano.h): decoding k from θ under a uniform k is
/// an (n+1)-ary test over a channel carrying at most `capacity` nats, so the
/// MAP decoder's exact error must stay above Fano's floor at every λ.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/experiment_util.h"
#include "core/finite_domain_channel.h"
#include "core/gibbs_estimator.h"
#include "core/learning_channel.h"
#include "infotheory/entropy.h"
#include "infotheory/fano.h"
#include "infotheory/mutual_information.h"
#include "learning/generators.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

void Run() {
  bench::PrintHeader("E6 (Figure 1 / Thm 4.2)",
                     "the DP-learning channel: I(Z;theta) vs privacy level");

  const std::size_t n = 12;
  const double p = 0.4;
  auto task = bench::Unwrap(BernoulliMeanTask::Create(p), "task");
  ClippedSquaredLoss loss(1.0);
  auto hclass = bench::Unwrap(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 13), "grid");

  const std::size_t mi_samples = bench::TrialCount(200000, 5000);
  Rng rng(bench::BaseSeed(606));

  std::printf("channel: Z=(k ones of %zu) ~ Binomial(%zu, %.1f) -> theta (|Theta|=%zu)\n",
              n, n, p, hclass.size());

  double input_entropy = 0.0;
  std::printf("\n%8s %14s %12s %12s %12s %14s %12s %12s\n", "lambda", "measured eps*",
              "I(Z;theta)", "capacity", "H(Z)", "sampled MI", "Fano floor", "MAP error");

  bool monotone = true;
  bool bounded = true;
  bool above_fano = true;
  double previous_mi = -1.0;
  for (double lambda : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    // Guarded cell: an injected fault records a failure for this lambda and
    // the sweep moves on (ParallelTrialRunner rethrows worker faults here,
    // on the main thread, so the guard sees them too).
    char cell[48];
    std::snprintf(cell, sizeof cell, "binary_lambda%.1f", lambda);
    bench::GuardCell(cell, [&] {
    auto channel = bench::Unwrap(
        BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), lambda),
        "channel");
    input_entropy = bench::Unwrap(Entropy(channel.input_marginal), "H(Z)");
    const double eps = ChannelPrivacyLevel(channel);
    const double mi = bench::Unwrap(ChannelMutualInformation(channel), "MI");
    const double capacity = bench::Unwrap(channel.channel.Capacity(1e-8), "capacity");
    const double fano_floor = bench::Unwrap(FanoErrorLowerBound(capacity, n + 1), "Fano");
    // MAP decoder of k from theta under a uniform k: it is right with
    // probability (1/(n+1)) sum_theta max_k W(theta|k).
    double map_success = 0.0;
    for (std::size_t theta = 0; theta < channel.channel.num_outputs(); ++theta) {
      double best = 0.0;
      for (std::size_t k = 0; k <= n; ++k) {
        best = std::max(best, channel.channel.TransitionProbability(k, theta));
      }
      map_success += best;
    }
    const double map_error = 1.0 - map_success / static_cast<double>(n + 1);

    // Validate the estimator stack: draw (k, theta) pairs through the
    // actual estimator and compare plug-in MI to the exact channel MI.
    std::vector<std::size_t> ks(mi_samples);
    std::vector<std::size_t> thetas(mi_samples);
    auto gibbs =
        bench::Unwrap(GibbsEstimator::CreateUniform(&loss, hclass, lambda), "gibbs");
    // Pre-build one representative dataset per k; sampling theta given k
    // only needs the sufficient statistic.
    std::vector<Dataset> representatives;
    for (std::size_t k = 0; k <= n; ++k) {
      Dataset d;
      for (std::size_t i = 0; i < n; ++i) d.Add(Example{Vector{1.0}, i < k ? 1.0 : 0.0});
      representatives.push_back(d);
    }
    // The MI sampling loop is the hot path of this experiment: each draw
    // pushes a fresh Ẑ through the actual estimator. Draws are independent
    // Monte-Carlo trials, so they map over the thread pool — draw s always
    // uses the s-th Split() of rng and lands in slot s, making the plug-in
    // estimate bit-identical at any DPLEARN_THREADS setting.
    struct Draw {
      std::size_t k = 0;
      std::size_t theta = 0;
    };
    const std::vector<Draw> draws = bench::RunTrials<Draw>(
        mi_samples, &rng, [&](std::size_t, Rng& draw_rng) {
          Draw draw;
          for (std::size_t i = 0; i < n; ++i) {
            draw.k +=
                static_cast<std::size_t>(bench::Unwrap(SampleBernoulli(&draw_rng, p), "bit"));
          }
          draw.theta =
              bench::Unwrap(gibbs.Sample(representatives[draw.k], &draw_rng), "theta");
          return draw;
        });
    for (std::size_t s = 0; s < mi_samples; ++s) {
      ks[s] = draws[s].k;
      thetas[s] = draws[s].theta;
    }
    double sampled_mi = bench::Unwrap(PluginMiFromSamples(ks, thetas), "plug-in MI");
    sampled_mi -= MillerMadowCorrection(n + 1, hclass.size(), (n + 1) * hclass.size(),
                                        mi_samples);

    monotone = monotone && mi >= previous_mi - 1e-9;
    bounded = bounded && mi <= capacity + 1e-9 && mi <= input_entropy + 1e-9;
    above_fano = above_fano && map_error >= fano_floor;
    previous_mi = mi;

    std::printf("%8.1f %14.6f %12.6f %12.6f %12.6f %14.6f %12.4f %12.4f\n", lambda, eps, mi,
                capacity, input_entropy, std::max(0.0, sampled_mi), fano_floor, map_error);
    // The sampled MI is the Monte-Carlo product of the parallel loop above;
    // CI's determinism gate asserts it is bit-identical for 1 vs 8 threads.
    char key[48];
    std::snprintf(key, sizeof key, "sampled_mi_lambda%.1f", lambda);
    bench::RecordScalar(key, sampled_mi);
    std::snprintf(key, sizeof key, "fano_floor_lambda%.1f", lambda);
    bench::RecordScalar(key, fano_floor);
    std::snprintf(key, sizeof key, "map_error_lambda%.1f", lambda);
    bench::RecordScalar(key, map_error);
    });
  }

  // Beyond-Bernoulli: the same channel construction on a TERNARY example
  // domain (ratings {0, 1/2, 1}), exact via the multinomial sufficient
  // statistic — Figure 1 is not a binary-data artifact.
  bench::PrintSection("generalized channel: ternary domain {0, 0.5, 1}, n = 8");
  std::vector<Example> ternary = {Example{Vector{1.0}, 0.0}, Example{Vector{1.0}, 0.5},
                                  Example{Vector{1.0}, 1.0}};
  std::vector<double> ternary_probs = {0.5, 0.3, 0.2};
  std::printf("%8s %14s %12s %12s\n", "lambda", "measured eps*", "I(Z;theta)",
              "inputs |Z|");
  bool ternary_monotone = true;
  double ternary_previous = -1.0;
  for (double lambda : {0.5, 2.0, 8.0, 32.0}) {
    char cell[48];
    std::snprintf(cell, sizeof cell, "ternary_lambda%.1f", lambda);
    bench::GuardCell(cell, [&] {
    auto tchannel = bench::Unwrap(
        BuildFiniteDomainGibbsChannel(ternary, ternary_probs, 8, loss, hclass,
                                      hclass.UniformPrior(), lambda),
        "ternary channel");
    const double tmi =
        bench::Unwrap(FiniteDomainChannelMutualInformation(tchannel), "ternary MI");
    ternary_monotone = ternary_monotone && tmi >= ternary_previous - 1e-9;
    ternary_previous = tmi;
    std::printf("%8.1f %14.6f %12.6f %12zu\n", lambda,
                FiniteDomainChannelPrivacyLevel(tchannel), tmi,
                tchannel.channel.num_inputs());
    });
  }

  bench::PrintSection("verdicts");
  bench::Verdict(monotone, "I(Z;theta) is monotone in lambda (less privacy => more MI)");
  bench::Verdict(bounded, "I(Z;theta) <= min(channel capacity, H(Z)) at every lambda");
  bench::Verdict(above_fano,
                 "MAP decoding of k from theta errs at least Fano's floor "
                 "1 - (capacity + ln 2)/ln(n+1) at every lambda");
  bench::Verdict(ternary_monotone,
                 "the same monotone trade-off holds on the generalized ternary channel");
  std::printf(
      "note: at lambda=0 the channel releases nothing (I=0, eps*=0); as lambda grows the\n"
      "      predictor reveals more about the sample — Figure 1's channel, quantified.\n");
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, [] { dplearn::Run(); });
}
