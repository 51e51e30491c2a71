// Generative invariants over the mechanism layer: every mechanism's
// pairwise likelihood ratio on adjacent datasets stays within e^ε, and
// batched samplers are stream-identical to loops.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/dp_verifier.h"
#include "gtest/gtest.h"
#include "learning/generators.h"
#include "mechanisms/exponential.h"
#include "mechanisms/geometric.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "proptest/generators.h"
#include "proptest/property.h"
#include "util/math_util.h"

namespace dplearn {
namespace proptest {
namespace {

Config SuiteConfig(std::uint64_t default_seed) {
  Config config = Config::FromEnv();
  if (std::getenv("DPLEARN_PROPTEST_SEED") == nullptr) config.seed = default_seed;
  return config;
}

// One generated mechanism scenario: DP parameters plus a Bernoulli dataset
// (the domain on which neighbor enumeration is exhaustive).
using Scenario = std::pair<DpParams, Dataset>;

Arbitrary<Scenario> ArbitraryScenario(double eps_hi, std::size_t min_n, std::size_t max_n) {
  return PairOf(ArbitraryDpParams(eps_hi), ArbitraryBernoulliDataset(min_n, max_n));
}

// --------------------------------------------------------------------------
// Laplace: density ratios at probe outputs never exceed e^ε.

TEST(ProptestMechanisms, LaplaceDensityRatioWithinEpsilon) {
  auto property = [](const Scenario& s) -> Status {
    const double epsilon = s.first.epsilon;
    auto mechanism = LaplaceMechanism::Create(
        CountQuery([](const Example& z) { return z.label > 0.5; }), epsilon);
    if (!mechanism.ok()) return Violation(mechanism.status().message());
    ScalarDensityFn density = [&mechanism](const Dataset& data, double output) {
      return mechanism.value().OutputDensity(data, output);
    };
    // Probes must reach past the achievable counts into the tails.
    std::vector<double> probes;
    const double n = static_cast<double>(s.second.size());
    for (double t = -n - 4.0; t <= 2.0 * n + 4.0; t += 0.5) probes.push_back(t);
    auto audit = AuditScalarDensityMechanism(density, {s.second},
                                             BernoulliMeanTask::Domain(), probes);
    if (!audit.ok()) return Violation(audit.status().message());
    if (audit.value().unbounded) return Violation("unbounded privacy loss");
    if (audit.value().max_log_ratio > epsilon + 1e-9) {
      return Violation("max log ratio " + std::to_string(audit.value().max_log_ratio) +
                       " exceeds epsilon " + std::to_string(epsilon));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("laplace_density_ratio", ArbitraryScenario(4.0, 2, 8),
                                property, SuiteConfig(101)));
}

// --------------------------------------------------------------------------
// Geometric: exact pmf ratios on adjacent datasets never exceed e^ε.

TEST(ProptestMechanisms, GeometricPmfRatioWithinEpsilon) {
  auto property = [](const Scenario& s) -> Status {
    const double epsilon = s.first.epsilon;
    auto mechanism = GeometricMechanism::Create(
        CountQuery([](const Example& z) { return z.label > 0.5; }), epsilon);
    if (!mechanism.ok()) return Violation(mechanism.status().message());
    const std::vector<Dataset> neighbors =
        EnumerateNeighbors(s.second, BernoulliMeanTask::Domain());
    const std::int64_t n = static_cast<std::int64_t>(s.second.size());
    for (const Dataset& neighbor : neighbors) {
      for (std::int64_t output = -20; output <= n + 20; ++output) {
        auto pa = mechanism.value().OutputProbability(s.second, output);
        auto pb = mechanism.value().OutputProbability(neighbor, output);
        if (!pa.ok()) return Violation(pa.status().message());
        if (!pb.ok()) return Violation(pb.status().message());
        const double ratio = std::log(pa.value()) - std::log(pb.value());
        if (std::fabs(ratio) > epsilon + 1e-9) {
          return Violation("pmf log ratio " + std::to_string(ratio) + " at output " +
                           std::to_string(output) + " exceeds epsilon " +
                           std::to_string(epsilon));
        }
      }
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("geometric_pmf_ratio", ArbitraryScenario(3.0, 2, 6),
                                property, SuiteConfig(102)));
}

// --------------------------------------------------------------------------
// Randomized response: the channel's log ratio equals ε exactly.

TEST(ProptestMechanisms, RandomizedResponseRatioIsExactlyEpsilon) {
  auto property = [](const DpParams& params) -> Status {
    auto rr = RandomizedResponse::Create(params.epsilon);
    if (!rr.ok()) return Violation(rr.status().message());
    auto p1 = rr.value().ReportOneProbability(1);
    auto p0 = rr.value().ReportOneProbability(0);
    if (!p1.ok() || !p0.ok()) return Violation("ReportOneProbability failed");
    const double log_ratio_one = std::log(p1.value() / p0.value());
    const double log_ratio_zero =
        std::log((1.0 - p0.value()) / (1.0 - p1.value()));
    if (!ApproxEqual(log_ratio_one, params.epsilon, 1e-9, 1e-9)) {
      return Violation("report-1 ratio " + std::to_string(log_ratio_one));
    }
    if (!ApproxEqual(log_ratio_zero, params.epsilon, 1e-9, 1e-9)) {
      return Violation("report-0 ratio " + std::to_string(log_ratio_zero));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("randomized_response_exact", ArbitraryDpParams(5.0),
                                property, SuiteConfig(103)));
}

// --------------------------------------------------------------------------
// Exponential mechanism: audited ε* never exceeds the Theorem 2.2 guarantee,
// and SampleBatch is bit-identical to a Sample loop (the batched-sampler
// clause of the issue).

TEST(ProptestMechanisms, ExponentialMechanismAuditWithinGuarantee) {
  auto property = [](const Scenario& s) -> Status {
    const std::size_t candidates = 5;
    // Quality: negative distance between candidate u/4 and the dataset mean —
    // sensitivity 1/(4n) in the replace-one relation... claim the loose 1/n.
    const double n = static_cast<double>(s.second.size());
    QualityFn quality = [](const Dataset& data, std::size_t u) {
      double ones = 0.0;
      for (const Example& z : data.examples()) ones += z.label;
      const double mean = ones / static_cast<double>(data.size());
      return -std::fabs(static_cast<double>(u) / 4.0 - mean);
    };
    auto mechanism = ExponentialMechanism::CreateUniform(quality, candidates,
                                                         s.first.epsilon, 1.0 / n);
    if (!mechanism.ok()) return Violation(mechanism.status().message());
    FiniteOutputMechanism as_finite = [&mechanism](const Dataset& data) {
      return mechanism.value().OutputDistribution(data);
    };
    auto audit =
        AuditFiniteMechanism(as_finite, {s.second}, BernoulliMeanTask::Domain());
    if (!audit.ok()) return Violation(audit.status().message());
    const double guarantee = mechanism.value().PrivacyGuaranteeEpsilon();
    if (audit.value().unbounded || audit.value().max_log_ratio > guarantee + 1e-9) {
      return Violation("audited " + std::to_string(audit.value().max_log_ratio) +
                       " exceeds guaranteed " + std::to_string(guarantee));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("exponential_audit", ArbitraryScenario(3.0, 2, 7),
                                property, SuiteConfig(104)));
}

TEST(ProptestMechanisms, ExponentialSampleBatchMatchesLoop) {
  auto property = [](const Scenario& s) -> Status {
    QualityFn quality = [](const Dataset& data, std::size_t u) {
      double ones = 0.0;
      for (const Example& z : data.examples()) ones += z.label;
      return -std::fabs(static_cast<double>(u) - ones);
    };
    auto mechanism = ExponentialMechanism::CreateUniform(
        quality, 6, s.first.epsilon, 1.0 / static_cast<double>(s.second.size()));
    if (!mechanism.ok()) return Violation(mechanism.status().message());
    const std::uint64_t stream_seed =
        static_cast<std::uint64_t>(s.second.size()) * 7919u + 13u;
    Rng batch_rng(stream_seed);
    Rng loop_rng(stream_seed);
    std::vector<std::size_t> batch;
    Status status = mechanism.value().SampleBatch(s.second, &batch_rng, 16, &batch);
    if (!status.ok()) return Violation(status.message());
    for (std::size_t i = 0; i < 16; ++i) {
      auto draw = mechanism.value().Sample(s.second, &loop_rng);
      if (!draw.ok()) return Violation(draw.status().message());
      if (draw.value() != batch[i]) {
        return Violation("batch draw " + std::to_string(i) + " diverged: " +
                         std::to_string(batch[i]) + " vs " + std::to_string(draw.value()));
      }
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("exponential_batch_vs_loop", ArbitraryScenario(3.0, 2, 8),
                                property, SuiteConfig(105)));
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
