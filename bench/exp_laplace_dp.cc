/// E1 — Theorem 2.1: the Laplace mechanism is ε-differentially private.
///
/// Workload: bounded-mean query on Bernoulli data (n = 200), ε sweep.
/// For each ε we (a) audit the exact output densities over an exhaustive
/// replace-one neighbor sweep and a probe grid extending deep into the
/// tails, and (b) measure the mechanism's utility (mean absolute error of
/// the released mean) by simulation. The measured privacy ε* must satisfy
/// ε* <= ε (tight in the tails); utility error must scale as Δf/ε.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/experiment_util.h"
#include "core/dp_verifier.h"
#include "learning/generators.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

void Run() {
  bench::PrintHeader("E1 (Theorem 2.1)", "Laplace mechanism is eps-DP");

  const std::size_t n = 200;
  // The privacy verdict is exact (density audit), so smoke mode only thins
  // the utility simulation.
  const std::size_t utility_trials = bench::TrialCount(20000, 500);
  auto task = bench::Unwrap(BernoulliMeanTask::Create(0.4), "task");
  Rng rng(bench::BaseSeed(101));
  Dataset data = bench::Unwrap(task.Sample(n, &rng), "sample");

  std::printf("workload: bounded mean over {0,1}, n=%zu, sensitivity=1/n=%.5f\n", n,
              1.0 / static_cast<double>(n));
  std::printf("\n%8s %14s %14s %12s %16s %16s\n", "eps", "measured eps*", "guarantee",
              "tight?", "mean |error|", "theory |error|");

  bool all_ok = true;
  for (double eps : {0.1, 0.5, 1.0, 2.0}) {
    auto query = bench::Unwrap(BoundedMeanQuery(0.0, 1.0, n), "query");
    auto mechanism = bench::Unwrap(LaplaceMechanism::Create(query, eps), "mechanism");

    ScalarDensityFn density = [&mechanism](const Dataset& d, double out) {
      return mechanism.OutputDensity(d, out);
    };
    // Probe far beyond the reachable means so the tail ratio is observed.
    std::vector<double> probes;
    const double reach = 20.0 * mechanism.noise_scale();
    for (double x = -reach; x <= 1.0 + reach; x += reach / 200.0) probes.push_back(x);
    auto audit = bench::Unwrap(
        AuditScalarDensityMechanism(density, {data}, BernoulliMeanTask::Domain(), probes),
        "audit");

    // The trials re-measure the same mechanism over the thread pool, one
    // split stream per trial so the mean is thread-count invariant.
    auto trial_body = [&](std::size_t, Rng& trial_rng) {
      const double released = bench::Unwrap(mechanism.Release(data, &trial_rng), "release");
      return std::fabs(released - query.query(data));
    };
    double total_error = 0.0;
    for (double err : bench::RunTrials<double>(utility_trials, &rng, trial_body)) {
      total_error += err;
    }
    const double mean_error = total_error / static_cast<double>(utility_trials);
    const double theory_error = mechanism.ExpectedAbsoluteError();

    const bool private_ok = !audit.unbounded && audit.max_log_ratio <= eps + 1e-9;
    const bool tight = audit.max_log_ratio > 0.95 * eps;
    all_ok = all_ok && private_ok;
    std::printf("%8.2f %14.6f %14.6f %12s %16.6f %16.6f\n", eps, audit.max_log_ratio, eps,
                tight ? "yes" : "no", mean_error, theory_error);

    char key[64];
    std::snprintf(key, sizeof(key), "measured_eps_star_at_eps_%.1f", eps);
    bench::RecordScalar(key, audit.max_log_ratio);
    std::snprintf(key, sizeof(key), "mean_abs_error_at_eps_%.1f", eps);
    bench::RecordScalar(key, mean_error);
  }

  bench::PrintSection("verdicts");
  bench::Verdict(all_ok, "measured eps* <= eps for every epsilon (Theorem 2.1)");
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, [] { dplearn::Run(); });
}
