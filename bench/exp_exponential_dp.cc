/// E2 — Theorem 2.2: the exponential mechanism is 2εΔq-DP, with the
/// McSherry–Talwar utility guarantee.
///
/// Workload: differentially-private median selection. The dataset holds
/// n = 101 integer values in {0..20}; candidates are the 21 values; the
/// quality of candidate u is q(x,u) = -|#{x_i < u} - #{x_i > u}| (rank
/// balance). Replacing one record can move BOTH counts (a value below u
/// swapped for one above u), so the global sensitivity is Dq = 2. For each ε we audit the exact
/// output distributions over an exhaustive neighbor sweep and measure the
/// utility (quality gap of the sampled output) against the
/// ln(|U|/δ)/ε bound.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/experiment_util.h"
#include "learning/dataset.h"
#include "mechanisms/exponential.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

constexpr std::size_t kNumValues = 21;

QualityFn MedianQuality() {
  return [](const Dataset& data, std::size_t u) {
    double below = 0.0;
    double above = 0.0;
    const double candidate = static_cast<double>(u);
    for (const Example& z : data.examples()) {
      if (z.label < candidate) below += 1.0;
      if (z.label > candidate) above += 1.0;
    }
    return -std::fabs(below - above);
  };
}

Dataset SkewedData(std::size_t n, Rng* rng) {
  // Values concentrated around 13 with spread — a realistic median target.
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 13.0 + static_cast<double>(rng->NextBounded(9)) -
                     static_cast<double>(rng->NextBounded(9));
    d.Add(Example{Vector{1.0},
                  std::min(20.0, std::max(0.0, v))});
  }
  return d;
}

std::vector<Example> ValueDomain() {
  std::vector<Example> domain;
  for (std::size_t v = 0; v < kNumValues; ++v) {
    domain.push_back(Example{Vector{1.0}, static_cast<double>(v)});
  }
  return domain;
}

void Run() {
  bench::PrintHeader("E2 (Theorem 2.2)",
                     "exponential mechanism is 2*eps*Dq-DP; utility ~ ln(|U|/d)/eps");

  const std::size_t n = 101;
  Rng rng(202);
  Dataset data = SkewedData(n, &rng);
  const double quality_sensitivity = 2.0;
  // The privacy verdict is an exhaustive exact audit; smoke mode only thins
  // the utility simulation (violation-rate verdict keeps ample slack).
  const std::size_t utility_trials = bench::TrialCount(5000, 250);
  const double delta = 0.05;

  // True (non-private) best candidate and quality.
  QualityFn quality = MedianQuality();
  double best_quality = -1e300;
  std::size_t best_candidate = 0;
  for (std::size_t u = 0; u < kNumValues; ++u) {
    const double q = quality(data, u);
    if (q > best_quality) {
      best_quality = q;
      best_candidate = u;
    }
  }
  std::printf("workload: private median over {0..20}, n=%zu, true median=%zu, Dq=2\n", n,
              best_candidate);
  std::printf("\n%8s %14s %14s %10s %16s %18s\n", "eps", "measured eps*", "2*eps*Dq",
              "tight%", "mean qual gap", "bound@delta=.05");

  bool privacy_ok = true;
  bool utility_ok = true;
  for (double eps : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    auto mechanism = bench::Unwrap(
        ExponentialMechanism::CreateUniform(quality, kNumValues, eps, quality_sensitivity),
        "mechanism");

    // Exhaustive privacy audit over all replace-one neighbors.
    double max_log_ratio = 0.0;
    auto p_base = bench::Unwrap(mechanism.OutputDistribution(data), "dist");
    for (const Dataset& nb : EnumerateNeighbors(data, ValueDomain())) {
      auto p_nb = bench::Unwrap(mechanism.OutputDistribution(nb), "dist");
      for (std::size_t u = 0; u < kNumValues; ++u) {
        max_log_ratio =
            std::max(max_log_ratio, std::fabs(std::log(p_base[u] / p_nb[u])));
      }
    }
    const double guarantee = mechanism.PrivacyGuaranteeEpsilon();
    privacy_ok = privacy_ok && max_log_ratio <= guarantee + 1e-9;

    // Utility: empirical quality gap of sampled outputs vs the MT bound,
    // mapped over the thread pool with one split stream per trial
    // (thread-count invariant results).
    const double gap_bound = bench::Unwrap(mechanism.UtilityGapBound(delta), "bound");
    auto trial_body = [&](std::size_t, Rng& trial_rng) {
      const std::size_t u = bench::Unwrap(mechanism.Sample(data, &trial_rng), "sample");
      return best_quality - quality(data, u);
    };
    double total_gap = 0.0;
    std::size_t bound_violations = 0;
    for (double gap : bench::RunTrials<double>(utility_trials, &rng, trial_body)) {
      total_gap += gap;
      if (gap > gap_bound) ++bound_violations;
    }
    const double mean_gap = total_gap / static_cast<double>(utility_trials);
    const double violation_rate =
        static_cast<double>(bound_violations) / static_cast<double>(utility_trials);
    utility_ok = utility_ok && violation_rate <= delta;

    std::printf("%8.2f %14.6f %14.6f %9.1f%% %16.3f %18.3f\n", eps, max_log_ratio,
                guarantee, 100.0 * max_log_ratio / guarantee, mean_gap, gap_bound);
  }

  bench::PrintSection("verdicts");
  bench::Verdict(privacy_ok, "measured eps* <= 2*eps*Dq for every epsilon (Theorem 2.2)");
  bench::Verdict(utility_ok,
                 "P[quality gap > ln(|U|/delta)/eps] <= delta (McSherry-Talwar utility)");
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, [] { dplearn::Run(); });
}
