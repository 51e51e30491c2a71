/// E11 (ablation, DESIGN.md §3) — finite-grid exactness vs MCMC realism.
///
/// The library computes the Gibbs posterior EXACTLY on finite Θ and
/// APPROXIMATELY by Metropolis–Hastings on continuous Θ; the privacy
/// theorem applies to the exact posterior, so the MCMC approximation gap
/// is a privacy-relevant quantity. This ablation measures, on a problem
/// where both paths exist (scalar Bernoulli-mean Gibbs posterior):
///   * total-variation distance between the MCMC sample histogram and the
///     exact posterior, as a function of burn-in and thinning, and
///   * the induced error on the posterior mean and on E[R̂].
/// Expected shape: TV decays with burn-in/thinning and is already < 0.03
/// at the `MetropolisOptions` defaults (burn-in 1000, thinning 10).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/experiment_util.h"
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/risk.h"
#include "parallel/trial_runner.h"
#include "sampling/metropolis.h"
#include "sampling/rng.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

void Run() {
  bench::PrintHeader("E11 (ablation)", "grid-exact Gibbs posterior vs MCMC approximation");

  // Problem: Bernoulli data, lambda fixed; Theta = [0,1].
  const std::size_t n = 40;
  const double lambda = 30.0;
  auto task = bench::Unwrap(BernoulliMeanTask::Create(0.35), "task");
  ClippedSquaredLoss loss(1.0);
  Rng rng(111);
  Dataset data = bench::Unwrap(task.Sample(n, &rng), "sample");

  // Exact reference: fine grid (the continuous posterior restricted to
  // cells; 200 cells makes discretization error negligible here).
  const std::size_t cells = 200;
  auto hclass =
      bench::Unwrap(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, cells + 1), "grid");
  auto gibbs = bench::Unwrap(GibbsEstimator::CreateUniform(&loss, hclass, lambda), "gibbs");
  auto exact = bench::Unwrap(gibbs.Posterior(data), "posterior");
  double exact_mean = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) exact_mean += exact[i] * hclass.at(i)[0];

  LogDensityFn log_prior = [](const Vector& t) {
    if (t[0] < 0.0 || t[0] > 1.0) return -std::numeric_limits<double>::infinity();
    return 0.0;
  };

  std::printf("reference: exact posterior on a %zu-cell grid; posterior mean %.4f\n",
              cells, exact_mean);
  std::printf("\n%10s %10s %10s %12s %14s %12s\n", "burn-in", "thinning", "samples",
              "TV to exact", "|mean error|", "accept rate");

  struct Config {
    std::size_t burn_in;
    std::size_t thinning;
    std::size_t samples;
  };
  const Config configs[] = {
      {0, 1, 2000},    {100, 1, 2000},  {1000, 1, 2000},
      {1000, 5, 2000}, {1000, 10, 8000}, {5000, 10, 20000},
  };

  // Each configuration runs its own chain from a fresh Rng(222), so the
  // configs are independent and map over the thread pool unchanged; rows
  // are printed from the collected results in config order.
  const std::size_t num_configs = sizeof(configs) / sizeof(configs[0]);
  struct Row {
    double tv = 0.0;
    double mean_error = 0.0;
    double acceptance_rate = 0.0;
  };
  // Guarded as one section: the configs run on pool workers, so an injected
  // fault surfaces out of Map on the main thread and is recorded here.
  bench::GuardCell("config_sweep", [&] {
  parallel::ParallelTrialRunner runner;
  const std::vector<Row> rows = runner.Map<Row>(num_configs, [&](std::size_t c) {
    const Config& config = configs[c];
    MetropolisOptions options;
    options.proposal_stddev = 0.15;
    options.burn_in = config.burn_in;
    options.thinning = config.thinning;
    Rng chain_rng(222);
    auto chain = bench::Unwrap(
        SampleGibbsContinuous(loss, data, log_prior, lambda, {0.9}, config.samples,
                              options, &chain_rng),
        "chain");

    // Histogram the chain onto the reference cells.
    std::vector<double> histogram(exact.size(), 0.0);
    double mcmc_mean = 0.0;
    for (const auto& sample : chain.samples) {
      const std::size_t cell = static_cast<std::size_t>(
          Clamp(sample[0], 0.0, 1.0) * static_cast<double>(cells));
      histogram[cell] += 1.0 / static_cast<double>(chain.samples.size());
      mcmc_mean += sample[0] / static_cast<double>(chain.samples.size());
    }
    Row row;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      row.tv += 0.5 * std::fabs(histogram[i] - exact[i]);
    }
    row.mean_error = std::fabs(mcmc_mean - exact_mean);
    row.acceptance_rate = chain.acceptance_rate;
    return row;
  });

  bool converges = true;
  double last_tv = 1.0;
  for (std::size_t c = 0; c < num_configs; ++c) {
    std::printf("%10zu %10zu %10zu %12.4f %14.4f %12.3f\n", configs[c].burn_in,
                configs[c].thinning, configs[c].samples, rows[c].tv, rows[c].mean_error,
                rows[c].acceptance_rate);
    last_tv = rows[c].tv;
  }
  bench::RecordScalar("final_tv_to_exact", last_tv);
  converges = converges && last_tv < 0.05;

  bench::PrintSection("verdicts");
  bench::Verdict(converges,
                 "MCMC chain converges to the exact Gibbs posterior (final TV < 0.05)");
  std::printf(
      "note: the un-burned chain started at theta=0.9 (far from the posterior mode\n"
      "      ~0.35) shows the worst TV — exactly the transient the privacy analysis of\n"
      "      an MCMC release must account for. The grid path has no such gap, which is\n"
      "      why the theorem-checking experiments use finite Theta (DESIGN.md §3).\n");
  });
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, [] { dplearn::Run(); });
}
