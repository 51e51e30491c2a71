// Generative invariants over the local-DP layer: every channel's realized
// per-example likelihood ratio stays within e^eps across random inputs and
// outputs, channel mutual information respects the DJW local-privacy bound
// (exactly and through the plug-in estimator), and a federated round is
// bit-identical at 1 vs 8 worker threads for every privacy model.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "infotheory/channel.h"
#include "infotheory/mutual_information.h"
#include "learning/loss.h"
#include "localdp/federated.h"
#include "localdp/local_channel.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"
#include "proptest/arbitrary.h"
#include "proptest/generators.h"
#include "proptest/property.h"

namespace dplearn {
namespace proptest {
namespace {

using localdp::DjwL2Channel;
using localdp::FederatedOptions;
using localdp::FederatedPrivacyModel;
using localdp::FederatedResult;
using localdp::FederatedSimulator;
using localdp::LocalChannel;
using localdp::RandomizedResponseChannel;

Config SuiteConfig(std::uint64_t default_seed) {
  Config config = Config::FromEnv();
  if (std::getenv("DPLEARN_PROPTEST_SEED") == nullptr) config.seed = default_seed;
  return config;
}

/// I(input; output) of ANY eps-local channel is bounded by
/// min(eps, min(4, e^eps) (e^eps - 1)^2) nats — the DJW pairwise-KL bound
/// with total variation at its maximum (same constant exp_local_dp gates).
double LdpMiBound(double eps) {
  const double e = std::exp(eps);
  return std::min(eps, std::min(4.0, e) * (e - 1.0) * (e - 1.0));
}

Example MakeExample(Vector features, double label) {
  Example z;
  z.features = std::move(features);
  z.label = label;
  return z;
}

/// A vector drawn uniformly-in-coordinates inside the L2 ball of `radius`
/// (rejection-free: scale down when the draw lands outside).
Vector BallVector(Rng* rng, std::size_t dim, double radius) {
  Vector v(dim, 0.0);
  for (double& coordinate : v) coordinate = radius * (2.0 * rng->NextDouble() - 1.0);
  const double norm = Norm2(v);
  if (norm > radius) {
    const double scale = radius / norm * rng->NextDouble();
    for (double& coordinate : v) coordinate *= scale;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Per-example likelihood-ratio invariants.

/// A randomized-response scenario: channel parameters plus an input pair.
struct RrInstance {
  double eps = 1.0;
  std::size_t k = 2;
  std::size_t input_a = 0;
  std::size_t input_b = 1;
  std::uint64_t draw_seed = 0;
};

Arbitrary<RrInstance> ArbitraryRrInstance() {
  Arbitrary<RrInstance> arb;
  arb.generate = [](Rng* rng) {
    RrInstance inst;
    inst.eps = LogUniformDouble(0.05, 4.0).generate(rng);
    inst.k = SizeBetween(2, 6).generate(rng);
    inst.input_a = static_cast<std::size_t>(rng->NextBounded(inst.k));
    inst.input_b = static_cast<std::size_t>(rng->NextBounded(inst.k));
    inst.draw_seed = rng->NextBounded(1u << 30);
    return inst;
  };
  arb.describe = [](const RrInstance& inst) {
    std::ostringstream os;
    os.precision(17);
    os << "{eps=" << inst.eps << ", k=" << inst.k << ", a=" << inst.input_a
       << ", b=" << inst.input_b << ", draw_seed=" << inst.draw_seed << "}";
    return os.str();
  };
  return arb;
}

StatusOr<RandomizedResponseChannel> MakeRrChannel(double eps, std::size_t k) {
  std::vector<double> labels(k);
  for (std::size_t i = 0; i < k; ++i) labels[i] = static_cast<double>(i);
  return RandomizedResponseChannel::Create(eps, std::move(labels));
}

/// The shared body of the ratio invariants: privatize `a` several times and
/// check every realized output against the channel's own audit hook, from
/// both input orders (|log ratio| is symmetric; the audit must agree).
Status CheckRatioInvariant(const LocalChannel& channel, const Example& a,
                           const Example& b, Rng* rng) {
  for (int draw = 0; draw < 8; ++draw) {
    auto output = channel.Privatize(draw % 2 == 0 ? a : b, rng);
    if (!output.ok()) return Violation(output.status().message());
    auto ratio = channel.LogLikelihoodRatio(a, b, output.value());
    if (!ratio.ok()) return Violation(ratio.status().message());
    if (ratio.value() > channel.epsilon() + 1e-9) {
      return Violation(std::string(channel.Name()) + ": |log ratio| " +
                       std::to_string(ratio.value()) + " > eps " +
                       std::to_string(channel.epsilon()));
    }
    Status audit = channel.SelfAuditPair(a, b, output.value());
    if (!audit.ok()) return Violation(audit.message());
    audit = channel.SelfAuditPair(b, a, output.value());
    if (!audit.ok()) return Violation(audit.message());
  }
  return Status::Ok();
}

TEST(ProptestLocaldp, RandomizedResponseLikelihoodRatioWithinEpsilon) {
  auto property = [](const RrInstance& inst) -> Status {
    auto channel = MakeRrChannel(inst.eps, inst.k);
    if (!channel.ok()) return Violation(channel.status().message());
    Rng rng(inst.draw_seed);
    return CheckRatioInvariant(channel.value(),
                               MakeExample({1.0}, static_cast<double>(inst.input_a)),
                               MakeExample({1.0}, static_cast<double>(inst.input_b)),
                               &rng);
  };
  DPLEARN_EXPECT_PROPERTY(Check("localdp_rr_ratio_bounded", ArbitraryRrInstance(),
                                property, SuiteConfig(1601)));
}

/// A DJW scenario: channel parameters plus two inputs in the ball.
struct DjwInstance {
  double eps = 1.0;
  double radius = 1.0;
  std::size_t dim = 2;
  std::uint64_t draw_seed = 0;
};

Arbitrary<DjwInstance> ArbitraryDjwInstance() {
  Arbitrary<DjwInstance> arb;
  arb.generate = [](Rng* rng) {
    DjwInstance inst;
    inst.eps = LogUniformDouble(0.05, 4.0).generate(rng);
    inst.radius = LogUniformDouble(0.1, 10.0).generate(rng);
    inst.dim = SizeBetween(1, 6).generate(rng);
    inst.draw_seed = rng->NextBounded(1u << 30);
    return inst;
  };
  arb.describe = [](const DjwInstance& inst) {
    std::ostringstream os;
    os.precision(17);
    os << "{eps=" << inst.eps << ", r=" << inst.radius << ", d=" << inst.dim
       << ", draw_seed=" << inst.draw_seed << "}";
    return os.str();
  };
  return arb;
}

TEST(ProptestLocaldp, DjwLikelihoodRatioWithinEpsilon) {
  auto property = [](const DjwInstance& inst) -> Status {
    auto channel = DjwL2Channel::Create(inst.eps, inst.radius, inst.dim);
    if (!channel.ok()) return Violation(channel.status().message());
    Rng rng(inst.draw_seed);
    const Example a = MakeExample(BallVector(&rng, inst.dim, inst.radius), 0.0);
    const Example b = MakeExample(BallVector(&rng, inst.dim, inst.radius), 0.0);
    return CheckRatioInvariant(channel.value(), a, b, &rng);
  };
  DPLEARN_EXPECT_PROPERTY(Check("localdp_djw_ratio_bounded", ArbitraryDjwInstance(),
                                property, SuiteConfig(1602)));
}

// ---------------------------------------------------------------------------
// Information-theoretic invariants.

TEST(ProptestLocaldp, RrMutualInformationWithinLdpBound) {
  // Exactly (through the transition matrix) and empirically (through the
  // plug-in estimator on privatized samples), I(X;Z) of the RR channel must
  // respect the eps-LDP information bound under ANY input distribution.
  auto arb = PairOf(ArbitraryRrInstance(), ArbitraryDistribution(2, 6));
  auto property = [](const std::pair<RrInstance, std::vector<double>>& pair) -> Status {
    const RrInstance& inst = pair.first;
    std::vector<double> px = pair.second;
    px.resize(inst.k, 0.0);  // align the support with the alphabet
    double mass = 0.0;
    for (const double p : px) mass += p;
    if (mass <= 0.0) return Status::Ok();  // degenerate resize — skip
    for (double& p : px) p /= mass;

    auto channel = MakeRrChannel(inst.eps, inst.k);
    if (!channel.ok()) return Violation(channel.status().message());
    auto discrete = DiscreteChannel::Create(channel.value().TransitionMatrix());
    if (!discrete.ok()) return Violation(discrete.status().message());
    auto exact = discrete.value().MutualInformation(px);
    if (!exact.ok()) return Violation(exact.status().message());
    const double bound = LdpMiBound(inst.eps);
    if (exact.value() > bound + 1e-9) {
      return Violation("exact MI " + std::to_string(exact.value()) +
                       " above LDP bound " + std::to_string(bound));
    }

    // Empirical check: n privatizations of labels drawn from px, plug-in MI
    // with Miller-Madow correction. Slack covers the O(1/sqrt(n)) estimator
    // fluctuation on top of the exact-MI slack already verified above.
    Rng rng(inst.draw_seed);
    const std::size_t n = 600;
    std::vector<std::size_t> xs, zs;
    xs.reserve(n);
    zs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      double u = rng.NextDouble();
      std::size_t x = inst.k - 1;
      for (std::size_t j = 0; j < inst.k; ++j) {
        if (u < px[j]) {
          x = j;
          break;
        }
        u -= px[j];
      }
      auto out = channel.value().Privatize(
          MakeExample({1.0}, static_cast<double>(x)), &rng);
      if (!out.ok()) return Violation(out.status().message());
      auto z = channel.value().LabelIndex(out.value().label);
      if (!z.ok()) return Violation(z.status().message());
      xs.push_back(x);
      zs.push_back(z.value());
    }
    auto plugin = PluginMiFromSamples(xs, zs);
    if (!plugin.ok()) return Violation(plugin.status().message());
    const double corrected =
        plugin.value() -
        MillerMadowCorrection(inst.k, inst.k, inst.k * inst.k, n);
    const double slack = 0.05 + 2.0 / std::sqrt(static_cast<double>(n));
    if (corrected > bound + slack) {
      return Violation("plug-in MI " + std::to_string(corrected) +
                       " above LDP bound " + std::to_string(bound) + " + slack " +
                       std::to_string(slack));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(
      Check("localdp_rr_mi_bounded", arb, property, SuiteConfig(1604)));
}

// ---------------------------------------------------------------------------
// Federated determinism.

/// A federated scenario small enough to run twice per case: data, client
/// count, rounds, privacy model, run seed.
struct FederatedInstance {
  std::size_t num_clients = 2;
  std::size_t rounds = 1;
  std::size_t local_steps = 1;
  std::size_t dim = 1;
  std::size_t n = 8;
  int model = 0;
  std::uint64_t data_seed = 0;
  std::uint64_t run_seed = 0;
};

Arbitrary<FederatedInstance> ArbitraryFederatedInstance() {
  Arbitrary<FederatedInstance> arb;
  arb.generate = [](Rng* rng) {
    FederatedInstance inst;
    inst.num_clients = SizeBetween(2, 5).generate(rng);
    inst.rounds = SizeBetween(1, 3).generate(rng);
    inst.local_steps = SizeBetween(1, 2).generate(rng);
    inst.dim = SizeBetween(1, 3).generate(rng);
    inst.n = SizeBetween(inst.num_clients, 20).generate(rng);
    inst.model = static_cast<int>(rng->NextBounded(3));
    inst.data_seed = rng->NextBounded(1u << 30);
    inst.run_seed = rng->NextBounded(1u << 30);
    return inst;
  };
  arb.describe = [](const FederatedInstance& inst) {
    std::ostringstream os;
    os << "{m=" << inst.num_clients << ", T=" << inst.rounds << ", steps="
       << inst.local_steps << ", d=" << inst.dim << ", n=" << inst.n
       << ", model=" << inst.model << ", data_seed=" << inst.data_seed
       << ", run_seed=" << inst.run_seed << "}";
    return os.str();
  };
  return arb;
}

TEST(ProptestLocaldp, FederatedRoundBitIdenticalAcrossThreads) {
  // One shared pool for the whole suite (the property runs per case).
  parallel::ThreadPool pool(8);
  auto property = [&pool](const FederatedInstance& inst) -> Status {
    Rng data_rng(inst.data_seed);
    Dataset data;
    for (std::size_t i = 0; i < inst.n; ++i) {
      data.Add(MakeExample(BallVector(&data_rng, inst.dim, 1.0),
                           data_rng.NextBounded(2) == 0 ? -1.0 : 1.0));
    }
    static const LogisticLoss loss(8.0);
    FederatedOptions options;
    options.num_clients = inst.num_clients;
    options.rounds = inst.rounds;
    options.local_steps = inst.local_steps;
    options.model = static_cast<FederatedPrivacyModel>(inst.model);
    auto simulator = FederatedSimulator::Create(&loss, std::move(data), options);
    if (!simulator.ok()) return Violation(simulator.status().message());

    Rng inline_rng(inst.run_seed);
    auto inline_run = simulator.value().RunWith(
        parallel::ParallelTrialRunner(nullptr), &inline_rng);
    if (!inline_run.ok()) return Violation(inline_run.status().message());
    Rng pooled_rng(inst.run_seed);
    auto pooled_run = simulator.value().RunWith(
        parallel::ParallelTrialRunner(&pool), &pooled_rng);
    if (!pooled_run.ok()) return Violation(pooled_run.status().message());

    if (inline_run.value().theta != pooled_run.value().theta) {
      return Violation("theta diverged between 1 and 8 worker threads");
    }
    if (inline_run.value().mean_update_norm != pooled_run.value().mean_update_norm) {
      return Violation("mean_update_norm diverged between 1 and 8 worker threads");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("localdp_federated_bit_identical",
                                ArbitraryFederatedInstance(), property,
                                SuiteConfig(1605)));
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
