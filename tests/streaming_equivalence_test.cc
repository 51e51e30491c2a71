/// The delta-vs-full equivalence harness for the streaming risk layer
/// (DESIGN.md §15). The numerical contract under test:
///
///   * an incrementally maintained StreamingRiskProfile snapshot and a full
///     EmpiricalRiskProfile recompute over the same live multiset agree
///     within StreamingUlpBound(n, mutations) ULPs, across losses × dims ×
///     add/remove orderings;
///   * immediately after Resync() (manual or the every-resync_every
///     automatic one) the snapshot is BITWISE equal to the batch profile
///     over LiveDataset(), and stays bitwise-stable until the next mutation;
///   * an add-then-remove round trip returns to the starting profile within
///     the drift bound;
///   * every mutation's sums are BITWISE a compensated sum the test keeps
///     itself — the per-example losses in arrival order — for each kernel
///     loss kind and its custom twin (custom_loss_twin.h) at dims 1 and 3
///     and for a custom loss, and a rejected mutation leaves every sum as
///     it was;
///   * a kernel loss's stream and its twin's, the kernel and the virtual
///     path, agree (both evaluate each example's loss on its own, with no
///     reduction over examples);
///   * GibbsEstimator::SampleStreaming is bit- and stream-identical to
///     SampleGivenRisks on the snapshot, and SampleStreamingBatch to k
///     single draws.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "learning/streaming_risk.h"
#include "sampling/rng.h"
#include "simd/dataset_soa.h"
#include "simd/kernels.h"
#include "util/content_hash.h"
#include "util/math_util.h"
#include "util/matrix.h"
#include "util/status.h"

#include "custom_loss_twin.h"

namespace dplearn {
namespace {

/// The documented drift bound (DESIGN.md §15). Both sides sum the same
/// per-example loss values: the batch side in blocked order (within
/// ReductionUlpBound(n) of scalar), the streaming side through a
/// Kahan–Babuška–Neumaier accumulator that accrues O(u) per mutation. The
/// m/2 term is a generous envelope for the compensated drift — observed
/// drift is single-digit ULPs even after hundreds of mutations, because the
/// compensated sum usually lands CLOSER to the exact value than the blocked
/// sum does.
std::uint64_t StreamingUlpBound(std::size_t n, std::uint64_t mutations) {
  const std::uint64_t reduction =
      n < simd::kBlockedSumMinN ? 4 : static_cast<std::uint64_t>(n) / 4;
  return reduction + mutations / 2 + 16;
}

std::int64_t OrderedDoubleBits(double x) {
  std::int64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

std::uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;
  const std::uint64_t ua = static_cast<std::uint64_t>(OrderedDoubleBits(a));
  const std::uint64_t ub = static_cast<std::uint64_t>(OrderedDoubleBits(b));
  return ua >= ub ? ua - ub : ub - ua;
}

void ExpectUlpClose(const std::vector<double>& a, const std::vector<double>& b,
                    std::uint64_t max_ulp, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(UlpDistance(a[i], b[i]), max_ulp)
        << context << " entry " << i << ": " << a[i] << " vs " << b[i];
  }
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double))) << context;
  }
}

struct NamedLoss {
  std::string name;
  std::unique_ptr<LossFunction> loss;
};

std::vector<Example> BernoulliExamples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return BernoulliMeanTask::Create(0.4).value().Sample(n, &rng).value().examples();
}

std::vector<Example> RegressionExamples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return LinearRegressionTask::Create({0.3, -0.2, 0.5, 0.1, -0.4}, 1.0, 0.1)
      .value()
      .Sample(n, &rng)
      .value()
      .examples();
}

std::vector<Vector> ScalarThetas(std::size_t m) {
  return FiniteHypothesisClass::ScalarGrid(0.0, 1.0, m).value().thetas();
}

std::vector<Vector> DenseThetas(std::size_t m, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> thetas(m, Vector(dim));
  for (Vector& theta : thetas) {
    for (double& v : theta) v = 2.0 * rng.NextDouble() - 1.0;
  }
  return thetas;
}

StreamingRiskProfile::Options NoAutoResync() {
  StreamingRiskProfile::Options options;
  options.resync_every = 0;
  return options;
}

/// The batch-side reference: full recompute over the profile's own live
/// multiset (same internal order, so the bitwise-after-resync assertions
/// are exact, and ULP assertions are order-consistent).
std::vector<double> FullRecompute(const StreamingRiskProfile& profile) {
  return EmpiricalRiskProfile(profile.loss(), profile.thetas(), profile.LiveDataset())
      .value();
}

void ExpectSnapshotWithinDriftBound(const StreamingRiskProfile& profile,
                                    const std::string& context) {
  ExpectUlpClose(profile.Snapshot().value(), FullRecompute(profile),
                 StreamingUlpBound(profile.size(), profile.mutations_since_resync()),
                 context);
}

// --------------------------------------------------------------------------
// Error taxonomy: the streaming layer mirrors the batch path's typed
// rejections (DESIGN.md §14) instead of poisoning the sums.

TEST(StreamingEquivalence, CreateRejectsInvalidInputs) {
  const ClippedSquaredLoss loss(1.0);
  EXPECT_EQ(StreamingRiskProfile::Create(nullptr, ScalarThetas(3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StreamingRiskProfile::Create(&loss, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StreamingRiskProfile::Create(&loss, {{0.1}, {std::nan("")}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(StreamingEquivalence, ErrorTaxonomyOnMutationsAndSnapshots) {
  const ClippedSquaredLoss loss(1.0);
  auto profile = StreamingRiskProfile::Create(&loss, ScalarThetas(5)).value();

  // Empty stream: snapshot and removal are FailedPrecondition.
  EXPECT_EQ(profile.Snapshot().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(profile.RemoveExample(Example{{0.5}, 1.0}).code(),
            StatusCode::kFailedPrecondition);

  // Non-finite inputs: OutOfRange (Clamp would launder a NaN into 0).
  EXPECT_EQ(profile.AddExample(Example{{std::nan("")}, 1.0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(profile.AddExample(Example{{0.5}, std::numeric_limits<double>::infinity()})
                .code(),
            StatusCode::kOutOfRange);

  ASSERT_TRUE(profile.AddExample(Example{{0.5}, 1.0}).ok());
  // Ragged feature dimension: InvalidArgument.
  EXPECT_EQ(profile.AddExample(Example{{0.5, 0.5}, 1.0}).code(),
            StatusCode::kInvalidArgument);
  // Removal is by BITWISE content: a never-added example (including a mere
  // sign-of-zero difference) is NotFound, and the failed removal mutates
  // nothing.
  const std::vector<double> before = profile.Snapshot().value();
  EXPECT_EQ(profile.RemoveExample(Example{{0.5}, 0.0}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(profile.AddExample(Example{{0.0}, 0.0}).ok());
  EXPECT_EQ(profile.RemoveExample(Example{{-0.0}, 0.0}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(profile.RemoveExample(Example{{0.0}, 0.0}).ok());
  ExpectBitEqual(profile.Snapshot().value(), before, "failed removals mutate nothing");
}

TEST(StreamingEquivalence, DimensionMismatchIsInvalidArgument) {
  // Every loss reads θ·x, so Θ has one dimension and every example must
  // have it, on the kernel and the virtual path alike, from the first
  // example on.
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  const LossFunction* const paths[] = {&kernel, &twin};
  for (const LossFunction* loss : paths) {
    EXPECT_EQ(StreamingRiskProfile::Create(loss, {{0.1}, {0.2, 0.3}}).status().code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    auto profile = StreamingRiskProfile::Create(loss, ScalarThetas(5)).value();
    EXPECT_EQ(profile.AddExample(Example{{0.5, 0.5}, 1.0}).code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_EQ(profile.AddExample(Example{{}, 1.0}).code(), StatusCode::kInvalidArgument)
        << loss->Name();
    ASSERT_TRUE(profile.AddExample(Example{{0.5}, 1.0}).ok()) << loss->Name();
    EXPECT_EQ(profile.RemoveExample(Example{{0.5, 0.5}, 1.0}).code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_EQ(profile.size(), 1u) << loss->Name();
  }
}

// --------------------------------------------------------------------------
// Tentpole equivalence: grow a stream one example at a time and compare the
// incremental snapshot against the full recompute at every power-of-two
// checkpoint, across losses × dims × small/large n (below and above
// simd::kBlockedSumMinN).

TEST(StreamingEquivalence, IncrementalAddsMatchFullAcrossLossesAndDims) {
  struct Corpus {
    std::string name;
    std::vector<Example> examples;
    std::vector<Vector> thetas;
  };
  std::vector<Corpus> corpora;
  corpora.push_back({"bernoulli_dim1", BernoulliExamples(500, 11), ScalarThetas(21)});
  corpora.push_back({"regression_dim5", RegressionExamples(500, 12),
                     DenseThetas(21, 5, 13)});
  for (const Corpus& corpus : corpora) {
    for (const LossAndTwin& named : KernelLossesAndTwins()) {
      auto profile =
          StreamingRiskProfile::Create(named.kernel.get(), corpus.thetas, NoAutoResync())
              .value();
      std::size_t next_checkpoint = 1;
      for (std::size_t i = 0; i < corpus.examples.size(); ++i) {
        ASSERT_TRUE(profile.AddExample(corpus.examples[i]).ok());
        if (profile.size() == next_checkpoint || i + 1 == corpus.examples.size()) {
          ExpectSnapshotWithinDriftBound(
              profile, corpus.name + " " + named.name + " n=" +
                           std::to_string(profile.size()));
          next_checkpoint *= 2;
        }
      }
      EXPECT_EQ(profile.mutations(), corpus.examples.size());
      EXPECT_EQ(profile.resyncs(), 0u);
    }
  }
}

TEST(StreamingEquivalence, AddRemoveOrderingsMatchFull) {
  const std::vector<Example> examples = RegressionExamples(64, 21);
  const std::vector<Example> extra = RegressionExamples(16, 22);
  const std::vector<Vector> thetas = DenseThetas(17, 5, 23);
  for (const LossAndTwin& named : KernelLossesAndTwins()) {
    // Three removal orderings over the same content: oldest-first,
    // newest-first, and every-other. The live multiset is what matters;
    // internal slot order may differ per ordering.
    for (const int ordering : {0, 1, 2}) {
      auto profile =
          StreamingRiskProfile::Create(named.kernel.get(), thetas, NoAutoResync()).value();
      for (const Example& z : examples) ASSERT_TRUE(profile.AddExample(z).ok());
      std::vector<Example> removed;
      for (std::size_t i = 0; i < 32; ++i) {
        std::size_t victim = 0;
        switch (ordering) {
          case 0: victim = i; break;
          case 1: victim = examples.size() - 1 - i; break;
          default: victim = 2 * i; break;
        }
        ASSERT_TRUE(profile.RemoveExample(examples[victim]).ok())
            << named.name << " ordering=" << ordering << " i=" << i;
        removed.push_back(examples[victim]);
      }
      ExpectSnapshotWithinDriftBound(profile, named.name + " after removals ordering=" +
                                                  std::to_string(ordering));
      // Interleave: re-admit fresh content, retire some of it again.
      for (std::size_t i = 0; i < extra.size(); ++i) {
        ASSERT_TRUE(profile.AddExample(extra[i]).ok());
        if (i % 2 == 1) {
          ASSERT_TRUE(profile.RemoveExample(extra[i]).ok());
        }
      }
      EXPECT_EQ(profile.size(), examples.size() - 32 + extra.size() / 2);
      ExpectSnapshotWithinDriftBound(profile, named.name + " after interleave ordering=" +
                                                  std::to_string(ordering));
    }
  }
}

TEST(StreamingEquivalence, AddThenRemoveRoundTripReturnsToStart) {
  const std::vector<Example> base = RegressionExamples(40, 31);
  const std::vector<Example> transient = RegressionExamples(8, 32);
  const std::vector<Vector> thetas = DenseThetas(9, 5, 33);
  for (const LossAndTwin& named : KernelLossesAndTwins()) {
    auto profile =
        StreamingRiskProfile::Create(named.kernel.get(), thetas, NoAutoResync()).value();
    for (const Example& z : base) ASSERT_TRUE(profile.AddExample(z).ok());
    const std::vector<double> before = profile.Snapshot().value();
    // FIFO and LIFO round trips: +v then -v cancels exactly in real
    // arithmetic; in floating point the Kahan state drifts by O(u) per
    // mutation, which the bound absorbs.
    for (const Example& z : transient) ASSERT_TRUE(profile.AddExample(z).ok());
    for (std::size_t i = transient.size(); i-- > 0;) {
      ASSERT_TRUE(profile.RemoveExample(transient[i]).ok());
    }
    for (const Example& z : transient) ASSERT_TRUE(profile.AddExample(z).ok());
    for (const Example& z : transient) ASSERT_TRUE(profile.RemoveExample(z).ok());
    EXPECT_EQ(profile.size(), base.size());
    ExpectUlpClose(profile.Snapshot().value(), before,
                   StreamingUlpBound(profile.size(), 4 * transient.size()),
                   named.name + " round trip");
  }
}

// --------------------------------------------------------------------------
// Resync: bitwise identity with the batch profile, manual and automatic.

TEST(StreamingEquivalence, ResyncRestoresBitwiseEqualityUntilNextMutation) {
  const std::vector<Example> examples = RegressionExamples(80, 41);
  const std::vector<Vector> thetas = DenseThetas(13, 5, 42);
  const ClippedSquaredLoss loss(2.0);
  auto profile = StreamingRiskProfile::Create(&loss, thetas, NoAutoResync()).value();
  for (const Example& z : examples) ASSERT_TRUE(profile.AddExample(z).ok());
  ASSERT_TRUE(profile.RemoveExample(examples[7]).ok());

  ASSERT_TRUE(profile.Resync().ok());
  EXPECT_EQ(profile.resyncs(), 1u);
  EXPECT_EQ(profile.mutations_since_resync(), 0u);
  const std::vector<double> full = FullRecompute(profile);
  ExpectBitEqual(profile.Snapshot().value(), full, "post-resync snapshot");
  // Snapshots are stable (bitwise) until the next mutation.
  ExpectBitEqual(profile.Snapshot().value(), full, "post-resync snapshot repeat");

  ASSERT_TRUE(profile.AddExample(examples[7]).ok());
  ExpectSnapshotWithinDriftBound(profile, "first mutation after resync");
}

TEST(StreamingEquivalence, AutoResyncFiresEveryConfiguredPeriod) {
  const std::vector<Example> examples = RegressionExamples(64, 51);
  const std::vector<Vector> thetas = DenseThetas(7, 5, 52);
  const LogisticLoss loss(4.0);
  StreamingRiskProfile::Options options;
  options.resync_every = 8;
  auto profile = StreamingRiskProfile::Create(&loss, thetas, options).value();
  for (std::size_t i = 0; i < examples.size(); ++i) {
    ASSERT_TRUE(profile.AddExample(examples[i]).ok());
    EXPECT_EQ(profile.resyncs(), (i + 1) / 8) << "after mutation " << i + 1;
    if ((i + 1) % 8 == 0) {
      // The mutation that hit the period resynced: bitwise-equal right now.
      ExpectBitEqual(profile.Snapshot().value(), FullRecompute(profile),
                     "auto-resync at mutation " + std::to_string(i + 1));
    }
  }
  EXPECT_EQ(profile.resyncs(), examples.size() / 8);
}

// --------------------------------------------------------------------------
// The fused pass (DESIGN.md §15.1): a mutation folds each hypothesis's loss
// straight into its compensated sum. The sums must be bitwise what the
// per-example delta row gave, which ReferenceSums rebuilds outside the
// profile: one KahanSum per hypothesis over the per-example losses in
// arrival order, restarted from mean·n at a resync.

/// On targets with fused multiply-add the compiler may contract loss.cc's
/// and kernels.cc's copies of a formula differently (SimdEquivalence's
/// 4-ulp small-n budget covers that gap).
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
constexpr bool kMayContract = true;
#else
constexpr bool kMayContract = false;
#endif

/// The loss a mutation folds in, bitwise. On the virtual path (a loss
/// without a KernelSpec()) it is the virtual Loss(). On the kernel path it
/// is simd::MeanLossKernel over the one-example dataset {z}, the delta row
/// the fused pass replaced; without FP contraction that is the virtual
/// Loss() as well, which this checks.
double FoldedLoss(const LossFunction& loss, const Vector& theta, const Example& z) {
  const double virtual_loss = loss.Loss(theta, z);
  const std::optional<simd::LossSpec> spec = loss.KernelSpec();
  if (!spec.has_value()) return virtual_loss;
  simd::DatasetSoA one;
  EXPECT_TRUE(BuildDatasetSoA(Dataset({z}), &one).ok());
  const double kernel_loss = simd::MeanLossKernel(*spec, theta.data(), theta.size(), one);
  if (!kMayContract) {
    EXPECT_EQ(DoubleBits(kernel_loss), DoubleBits(virtual_loss))
        << loss.Name() << ": the kernel's one-example loss is not the virtual Loss()";
  }
  return kernel_loss;
}

class ReferenceSums {
 public:
  ReferenceSums(const LossFunction& loss, const std::vector<Vector>& thetas)
      : loss_(loss), thetas_(thetas), sums_(thetas.size()) {}

  void Add(const Example& z) { Fold(z, /*remove=*/false); }
  void Remove(const Example& z) { Fold(z, /*remove=*/true); }

  /// Restarts every sum from the batch mean, as StreamingRiskProfile::Resync.
  void Resync(const std::vector<double>& batch) {
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      sums_[i].Reset(batch[i] * static_cast<double>(n_));
    }
  }

  std::vector<double> Snapshot() const {
    std::vector<double> out(sums_.size());
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      out[i] = sums_[i].Value() / static_cast<double>(n_);
    }
    return out;
  }

 private:
  void Fold(const Example& z, bool remove) {
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      const double l = FoldedLoss(loss_, thetas_[i], z);
      sums_[i].Add(remove ? -l : l);
    }
    n_ = remove ? n_ - 1 : n_ + 1;
  }

  const LossFunction& loss_;
  const std::vector<Vector>& thetas_;
  std::vector<KahanSum> sums_;
  std::size_t n_ = 0;
};

/// A loss with no kernel: half the absolute residual, clipped at 1.5. It
/// emits +inf on the label 7, so the virtual path's non-finite check has
/// something to reject.
class HalfAbsoluteLoss final : public LossFunction {
 public:
  double Loss(const Vector& theta, const Example& z) const override {
    if (z.label == 7.0) return std::numeric_limits<double>::infinity();
    return Clamp(0.5 * std::fabs(Dot(theta, z.features) - z.label), 0.0, 1.5);
  }
  double UpperBound() const override { return 1.5; }
  std::string Name() const override { return "half_absolute"; }
};

/// Every kernel loss kind followed by its twin, and a custom loss of its
/// own.
std::vector<NamedLoss> KernelAndCustomLosses() {
  std::vector<NamedLoss> losses;
  for (LossAndTwin& pair : KernelLossesAndTwins()) {
    losses.push_back({pair.name, std::move(pair.kernel)});
    losses.push_back({pair.name + "_twin", std::move(pair.twin)});
  }
  losses.push_back({"custom", std::make_unique<HalfAbsoluteLoss>()});
  return losses;
}

/// Examples of any feature dimension with mixed-sign features, ±1 and real
/// labels, and a signed-zero example.
std::vector<Example> MixedExamples(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> examples(n);
  for (std::size_t i = 0; i < n; ++i) {
    examples[i].features.resize(dim);
    for (double& x : examples[i].features) x = 3.0 * rng.NextDouble() - 1.5;
    examples[i].label = i % 3 == 0 ? 2.0 * rng.NextDouble() - 0.5
                                   : (rng.NextDouble() < 0.5 ? -1.0 : 1.0);
  }
  examples[n / 2].features.assign(dim, -0.0);
  examples[n / 2].label = -0.0;
  return examples;
}

TEST(StreamingEquivalence, FusedPassSumsMatchCompensatedReferenceBitwise) {
  for (const NamedLoss& named : KernelAndCustomLosses()) {
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3}}) {
      const std::string context = named.name + " dim=" + std::to_string(dim);
      const std::vector<Vector> thetas = dim == 1 ? ScalarThetas(41) : DenseThetas(41, 3, 71);
      const std::vector<Example> examples = MixedExamples(72, dim, 72 + dim);
      auto profile =
          StreamingRiskProfile::Create(&*named.loss, thetas, NoAutoResync()).value();
      ReferenceSums reference(*named.loss, thetas);

      // Seed, then turn the stream over: remove the first, the newest and
      // every fifth of the seed, add the rest.
      for (std::size_t i = 0; i < 48; ++i) {
        ASSERT_TRUE(profile.AddExample(examples[i]).ok()) << context;
        reference.Add(examples[i]);
      }
      ExpectBitEqual(profile.Snapshot().value(), reference.Snapshot(), context + " seed");
      for (std::size_t i = 0; i < 48; i += 5) {
        ASSERT_TRUE(profile.RemoveExample(examples[i]).ok()) << context;
        reference.Remove(examples[i]);
      }
      ASSERT_TRUE(profile.RemoveExample(examples[47]).ok()) << context;
      reference.Remove(examples[47]);
      for (std::size_t i = 48; i < 60; ++i) {
        ASSERT_TRUE(profile.AddExample(examples[i]).ok()) << context;
        reference.Add(examples[i]);
      }
      ExpectBitEqual(profile.Snapshot().value(), reference.Snapshot(),
                     context + " adds and removes");

      // A resync pins the batch bits, and the sums restart from them.
      ASSERT_TRUE(profile.Resync().ok()) << context;
      const std::vector<double> batch = FullRecompute(profile);
      ExpectBitEqual(profile.Snapshot().value(), batch, context + " resync");
      reference.Resync(batch);
      for (std::size_t i = 60; i < examples.size(); ++i) {
        ASSERT_TRUE(profile.AddExample(examples[i]).ok()) << context;
        reference.Add(examples[i]);
      }
      ASSERT_TRUE(profile.RemoveExample(examples[1]).ok()) << context;
      reference.Remove(examples[1]);
      ExpectBitEqual(profile.Snapshot().value(), reference.Snapshot(),
                     context + " after resync");
    }
  }
}

TEST(StreamingEquivalence, RejectedMutationsLeaveEverySumUntouched) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const NamedLoss& named : KernelAndCustomLosses()) {
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3}}) {
      const std::string context = named.name + " dim=" + std::to_string(dim);
      const std::vector<Vector> thetas = dim == 1 ? ScalarThetas(17) : DenseThetas(17, 3, 81);
      const std::vector<Example> examples = MixedExamples(24, dim, 82 + dim);
      auto profile =
          StreamingRiskProfile::Create(&*named.loss, thetas, NoAutoResync()).value();
      ReferenceSums reference(*named.loss, thetas);
      for (std::size_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(profile.AddExample(examples[i]).ok()) << context;
        reference.Add(examples[i]);
      }
      const std::vector<double> before = profile.Snapshot().value();

      Example nan_feature = examples[20];
      nan_feature.features[dim - 1] = kNaN;
      Example inf_label = examples[20];
      inf_label.label = kInf;
      Example ragged = examples[20];
      ragged.features.push_back(0.5);
      Example live_nan = examples[3];
      live_nan.features[0] = kNaN;
      EXPECT_EQ(profile.AddExample(nan_feature).code(), StatusCode::kOutOfRange) << context;
      EXPECT_EQ(profile.AddExample(inf_label).code(), StatusCode::kOutOfRange) << context;
      EXPECT_EQ(profile.AddExample(ragged).code(), StatusCode::kInvalidArgument) << context;
      EXPECT_EQ(profile.RemoveExample(live_nan).code(), StatusCode::kOutOfRange) << context;
      EXPECT_EQ(profile.RemoveExample(ragged).code(), StatusCode::kInvalidArgument)
          << context;
      EXPECT_EQ(profile.RemoveExample(examples[21]).code(), StatusCode::kNotFound)
          << context;
      if (named.name == "custom") {
        // The virtual path's own check: a finite example the custom loss
        // maps to +inf.
        Example exploding = examples[20];
        exploding.label = 7.0;
        EXPECT_EQ(profile.AddExample(exploding).code(), StatusCode::kOutOfRange) << context;
      }
      EXPECT_EQ(profile.size(), 20u) << context;
      EXPECT_EQ(profile.mutations(), 20u) << context;
      ExpectBitEqual(profile.Snapshot().value(), before, context + " after rejections");

      // The compensation terms are untouched too: later mutations still
      // land on the reference's bits.
      ASSERT_TRUE(profile.AddExample(examples[20]).ok()) << context;
      reference.Add(examples[20]);
      ASSERT_TRUE(profile.RemoveExample(examples[3]).ok()) << context;
      reference.Remove(examples[3]);
      ExpectBitEqual(profile.Snapshot().value(), reference.Snapshot(),
                     context + " mutations after rejections");
    }
  }
}

// --------------------------------------------------------------------------
// Path equivalence: each example's loss is the kernel formula for a kernel
// loss and the virtual Loss() for its twin; both streams stay within a
// small envelope of each other.

TEST(StreamingEquivalence, ScalarAndSimdStreamsAgree) {
  const std::vector<Example> dense = RegressionExamples(96, 61);
  const std::vector<Example> scalar_data = BernoulliExamples(96, 62);
  for (const LossAndTwin& named : KernelLossesAndTwins()) {
    for (const bool dim5 : {false, true}) {
      const std::vector<Vector> thetas =
          dim5 ? DenseThetas(11, 5, 63) : ScalarThetas(11);
      const std::vector<Example>& examples = dim5 ? dense : scalar_data;
      std::vector<std::vector<double>> snapshots;
      for (const LossFunction* loss : {named.twin.get(), named.kernel.get()}) {
        auto profile = StreamingRiskProfile::Create(loss, thetas, NoAutoResync()).value();
        for (const Example& z : examples) ASSERT_TRUE(profile.AddExample(z).ok());
        ASSERT_TRUE(profile.RemoveExample(examples[3]).ok());
        ASSERT_TRUE(profile.RemoveExample(examples[90]).ok());
        snapshots.push_back(profile.Snapshot().value());
      }
      // Per-example deltas agree within the small-n kernel budget; the
      // compensated sums keep the gap from growing with n.
      ExpectUlpClose(snapshots[0], snapshots[1], 16,
                     named.name + (dim5 ? " dim5" : " dim1") + " twin vs kernel");
    }
  }
}

// --------------------------------------------------------------------------
// Upward wiring: streamed Gibbs draws are bitwise the SampleGivenRisks
// draws on the snapshot, and the batch call is stream-identical to k
// singles.

TEST(StreamingEquivalence, SampleStreamingMatchesSampleGivenRisks) {
  const std::vector<Example> examples = RegressionExamples(60, 81);
  const std::vector<Vector> theta_list = DenseThetas(15, 5, 82);
  const ClippedSquaredLoss loss(2.0);
  auto hclass = FiniteHypothesisClass::Create(theta_list).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 3.0).value();
  auto profile = StreamingRiskProfile::Create(&loss, theta_list, NoAutoResync()).value();

  // Empty stream: FailedPrecondition, mirroring SnapshotInto.
  {
    Rng rng(1);
    EXPECT_EQ(gibbs.SampleStreaming(profile, &rng).status().code(),
              StatusCode::kFailedPrecondition);
  }
  for (const Example& z : examples) ASSERT_TRUE(profile.AddExample(z).ok());
  ASSERT_TRUE(profile.RemoveExample(examples[11]).ok());

  const std::vector<double> snapshot = profile.Snapshot().value();
  constexpr std::size_t kDraws = 64;
  std::vector<std::size_t> via_streaming, via_risks, via_batch;
  Rng rng_a(7), rng_b(7), rng_c(7);
  for (std::size_t i = 0; i < kDraws; ++i) {
    via_streaming.push_back(gibbs.SampleStreaming(profile, &rng_a).value());
    via_risks.push_back(gibbs.SampleGivenRisks(snapshot, &rng_b).value());
  }
  ASSERT_TRUE(gibbs.SampleStreamingBatch(profile, &rng_c, kDraws, &via_batch).ok());
  EXPECT_EQ(via_streaming, via_risks);
  EXPECT_EQ(via_streaming, via_batch);

  // |Θ| mismatch is InvalidArgument, not a silent wrong-size tilt.
  auto small = GibbsEstimator::CreateUniform(
                   &loss, FiniteHypothesisClass::Create(DenseThetas(4, 5, 83)).value(),
                   3.0)
                   .value();
  Rng rng_d(9);
  EXPECT_EQ(small.SampleStreaming(profile, &rng_d).status().code(),
            StatusCode::kInvalidArgument);

  // After a resync the snapshot is bitwise the batch profile, so streamed
  // draws reproduce SampleBatch over the live dataset draw-for-draw.
  ASSERT_TRUE(profile.Resync().ok());
  const Dataset live = profile.LiveDataset();
  std::vector<std::size_t> streamed, batch;
  Rng rng_e(11), rng_f(11);
  ASSERT_TRUE(gibbs.SampleStreamingBatch(profile, &rng_e, kDraws, &streamed).ok());
  ASSERT_TRUE(gibbs.SampleBatch(live, &rng_f, kDraws, &batch).ok());
  EXPECT_EQ(streamed, batch);
}

}  // namespace
}  // namespace dplearn
