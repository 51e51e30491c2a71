// Generative invariants over the streaming risk layer (DESIGN.md §15):
// random add/remove/query interleavings track a multiset model and stay
// within the drift bound of a full recompute, structural edges (remove of a
// never-added example, empty-stream queries) are rejected with the typed
// Status taxonomy and mutate nothing.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "learning/streaming_risk.h"
#include "proptest/generators.h"
#include "proptest/property.h"
#include "simd/kernels.h"

namespace dplearn {
namespace proptest {
namespace {

Config SuiteConfig(std::uint64_t default_seed) {
  Config config = Config::FromEnv();
  if (std::getenv("DPLEARN_PROPTEST_SEED") == nullptr) config.seed = default_seed;
  return config;
}

/// The documented drift bound — kept in sync with
/// streaming_equivalence_test.cc (the deterministic sweep pins it; this
/// file exercises it under random interleavings).
std::uint64_t StreamingUlpBound(std::size_t n, std::uint64_t mutations) {
  const std::uint64_t reduction =
      n < simd::kBlockedSumMinN ? 4 : static_cast<std::uint64_t>(n) / 4;
  return reduction + mutations / 2 + 16;
}

std::uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  const std::uint64_t ua = static_cast<std::uint64_t>(ia);
  const std::uint64_t ub = static_cast<std::uint64_t>(ib);
  return ua >= ub ? ua - ub : ub - ua;
}

/// The drift contract is stated at the scale of the running SUM, whose
/// magnitude peaks at B·n_peak — so when a stream shrinks back down, the
/// surviving risk can be small relative to where the rounding happened and
/// a pure ULP-of-the-result comparison over-demands (cancellation amplifies
/// relative error without adding absolute error). Accept either the ULP
/// bound or the equivalent absolute slack at sum scale.
bool WithinDriftBound(double streamed, double full, std::uint64_t ulp_bound,
                      double loss_bound, std::size_t peak_n) {
  if (UlpDistance(streamed, full) <= ulp_bound) return true;
  const double scale =
      loss_bound * static_cast<double>(peak_n == 0 ? std::size_t{1} : peak_n);
  const double slack = static_cast<double>(ulp_bound) * scale *
                       std::numeric_limits<double>::epsilon();
  return std::fabs(streamed - full) <= slack;
}

Example RandomExample(Rng* rng, std::size_t dim) {
  Example z;
  z.features.resize(dim);
  for (double& v : z.features) v = 2.0 * rng->NextDouble() - 1.0;
  z.label = 2.0 * rng->NextDouble() - 1.0;
  return z;
}

struct StreamInstance {
  std::uint64_t seed = 0;
  std::size_t dim = 1;
  std::size_t num_thetas = 2;
  std::size_t num_ops = 1;
  std::size_t resync_every = 0;  // 0, or a small period, chosen randomly
  LossConfig loss;
};

Arbitrary<StreamInstance> ArbitraryStreamInstance() {
  Arbitrary<StreamInstance> arb;
  arb.generate = [](Rng* rng) {
    StreamInstance inst;
    inst.seed = rng->NextUint64();
    inst.dim = 1 + static_cast<std::size_t>(rng->NextBounded(3));
    inst.num_thetas = 2 + static_cast<std::size_t>(rng->NextBounded(12));
    inst.num_ops = 1 + static_cast<std::size_t>(rng->NextBounded(120));
    inst.resync_every = rng->NextBounded(3) == 0
                            ? 1 + static_cast<std::size_t>(rng->NextBounded(9))
                            : 0;
    inst.loss = ArbitraryLossConfig().generate(rng);
    return inst;
  };
  arb.describe = [](const StreamInstance& inst) {
    return "seed=" + std::to_string(inst.seed) + " dim=" + std::to_string(inst.dim) +
           " thetas=" + std::to_string(inst.num_thetas) +
           " ops=" + std::to_string(inst.num_ops) +
           " resync_every=" + std::to_string(inst.resync_every) + " loss=" +
           DescribeLossConfig(inst.loss);
  };
  return arb;
}

std::vector<Vector> RandomThetas(Rng* rng, std::size_t m, std::size_t dim) {
  std::vector<Vector> thetas(m, Vector(dim));
  for (Vector& theta : thetas) {
    for (double& v : theta) v = 2.0 * rng->NextDouble() - 1.0;
  }
  return thetas;
}

// --------------------------------------------------------------------------
// Random interleavings against a multiset model: every query agrees with a
// full recompute over the model within the drift bound; structural edges
// return the typed errors and leave the stream untouched.

TEST(ProptestStreaming, RandomInterleavingsMatchFullRecompute) {
  auto property = [](const StreamInstance& inst) -> Status {
    Rng rng(inst.seed);
    const auto loss = MakeLoss(inst.loss);
    StreamingRiskProfile::Options options;
    options.resync_every = inst.resync_every;
    auto profile = StreamingRiskProfile::Create(
        loss.get(), RandomThetas(&rng, inst.num_thetas, inst.dim), options);
    if (!profile.ok()) return Violation(profile.status().message());

    std::vector<Example> model;  // the live multiset, ground truth
    std::size_t peak_n = 0;      // scale at which rounding error accumulated
    for (std::size_t op = 0; op < inst.num_ops; ++op) {
      const std::uint64_t kind = rng.NextBounded(4);
      if (kind == 0 || model.empty()) {  // add
        Example z = RandomExample(&rng, inst.dim);
        const Status added = profile->AddExample(z);
        if (!added.ok()) return Violation("add rejected: " + added.message());
        model.push_back(std::move(z));
      } else if (kind == 1) {  // remove a live example
        const std::size_t victim =
            static_cast<std::size_t>(rng.NextBounded(model.size()));
        const Status removed = profile->RemoveExample(model[victim]);
        if (!removed.ok()) return Violation("remove of live example rejected: " +
                                            removed.message());
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(victim));
      } else if (kind == 2) {  // remove a never-added example: NotFound, no-op
        Example ghost = RandomExample(&rng, inst.dim);
        ghost.label = 5.0 + rng.NextDouble();  // outside the generated range
        const std::vector<double> before =
            model.empty() ? std::vector<double>{} : profile->Snapshot().value();
        const Status removed = profile->RemoveExample(ghost);
        const StatusCode want =
            model.empty() ? StatusCode::kFailedPrecondition : StatusCode::kNotFound;
        if (removed.code() != want) {
          return Violation("ghost removal returned wrong code: " + removed.message());
        }
        if (!model.empty() && profile->Snapshot().value() != before) {
          return Violation("failed removal mutated the profile");
        }
      } else {  // query: compare against the model's full recompute
        if (model.empty()) {
          if (profile->Snapshot().status().code() != StatusCode::kFailedPrecondition) {
            return Violation("empty-stream snapshot was not FailedPrecondition");
          }
          continue;
        }
        auto snapshot = profile->Snapshot();
        if (!snapshot.ok()) return Violation(snapshot.status().message());
        auto full = EmpiricalRiskProfile(*loss, profile->thetas(), Dataset(model));
        if (!full.ok()) return Violation(full.status().message());
        const std::uint64_t bound =
            StreamingUlpBound(model.size(), profile->mutations_since_resync());
        for (std::size_t i = 0; i < full.value().size(); ++i) {
          if (!WithinDriftBound(snapshot.value()[i], full.value()[i], bound,
                                loss->UpperBound(), peak_n)) {
            return Violation("entry " + std::to_string(i) + " drifted past " +
                             std::to_string(bound) + " ulps at n=" +
                             std::to_string(model.size()) + " (peak n=" +
                             std::to_string(peak_n) + ")");
          }
        }
      }
      if (profile->size() != model.size()) {
        return Violation("live count diverged from the model");
      }
      peak_n = std::max(peak_n, model.size());
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("streaming_interleavings", ArbitraryStreamInstance(),
                                property, SuiteConfig(501)));
}

// --------------------------------------------------------------------------
// Resync is always safe to call and pins the snapshot to the batch bits.

TEST(ProptestStreaming, ResyncAlwaysLandsOnBatchBits) {
  auto property = [](const StreamInstance& inst) -> Status {
    Rng rng(inst.seed);
    const auto loss = MakeLoss(inst.loss);
    auto profile = StreamingRiskProfile::Create(
        loss.get(), RandomThetas(&rng, inst.num_thetas, inst.dim),
        StreamingRiskProfile::Options{});
    if (!profile.ok()) return Violation(profile.status().message());
    const std::size_t n = 1 + inst.num_ops % 40;
    for (std::size_t i = 0; i < n; ++i) {
      const Status added = profile->AddExample(RandomExample(&rng, inst.dim));
      if (!added.ok()) return Violation(added.message());
    }
    const Status resynced = profile->Resync();
    if (!resynced.ok()) return Violation(resynced.message());
    auto snapshot = profile->Snapshot();
    if (!snapshot.ok()) return Violation(snapshot.status().message());
    auto full = EmpiricalRiskProfile(*loss, profile->thetas(), profile->LiveDataset());
    if (!full.ok()) return Violation(full.status().message());
    if (std::memcmp(snapshot.value().data(), full.value().data(),
                    full.value().size() * sizeof(double)) != 0) {
      return Violation("post-resync snapshot is not bitwise the batch profile");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("resync_batch_bits", ArbitraryStreamInstance(), property,
                                SuiteConfig(503)));
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
