// Tests of the property-based testing engine itself (src/proptest):
// determinism, the seed/iteration environment contract, generator ranges,
// and greedy shrinking down to a minimal counterexample on planted bugs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "proptest/arbitrary.h"
#include "proptest/config.h"
#include "proptest/generators.h"
#include "proptest/property.h"
#include "util/math_util.h"

namespace dplearn {
namespace proptest {
namespace {

Config FixedConfig(std::uint64_t seed, std::size_t iterations) {
  Config config;
  config.seed = seed;
  config.iterations = iterations;
  return config;
}

// Scoped setenv/unsetenv so env-contract tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(ProptestEngine, SameConfigGeneratesIdenticalValueStreams) {
  const Config config = FixedConfig(42, 50);
  std::vector<double> first_run;
  std::vector<double> second_run;
  auto record_into = [](std::vector<double>* sink) {
    return [sink](const double& v) {
      sink->push_back(v);
      return Status::Ok();
    };
  };
  auto r1 = Check("record1", UniformDouble(0.0, 1.0), record_into(&first_run), config);
  auto r2 = Check("record2", UniformDouble(0.0, 1.0), record_into(&second_run), config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(first_run.size(), 50u);
  EXPECT_EQ(first_run, second_run);  // bitwise: same seed, same stream
}

TEST(ProptestEngine, DifferentSeedsGenerateDifferentStreams) {
  std::vector<double> a;
  std::vector<double> b;
  auto record_into = [](std::vector<double>* sink) {
    return [sink](const double& v) {
      sink->push_back(v);
      return Status::Ok();
    };
  };
  (void)Check("a", UniformDouble(0.0, 1.0), record_into(&a), FixedConfig(1, 20));
  (void)Check("b", UniformDouble(0.0, 1.0), record_into(&b), FixedConfig(2, 20));
  EXPECT_NE(a, b);
}

TEST(ProptestEngine, IterationSeedsAreDistinctAndReplayable) {
  // A failing iteration replays in isolation: seed i depends only on
  // (master, i), never on iterations before it.
  EXPECT_EQ(IterationSeed(7, 3), IterationSeed(7, 3));
  EXPECT_NE(IterationSeed(7, 3), IterationSeed(7, 4));
  EXPECT_NE(IterationSeed(7, 3), IterationSeed(8, 3));
}

TEST(ProptestEngine, FailureAtIterationKReplaysWithItersKPlusOne) {
  // Fail on a value-dependent predicate, note the failing iteration, then
  // rerun with iterations = k+1 (the advertised repro recipe) and demand the
  // identical counterexample.
  auto property = [](const double& v) {
    return v > 0.9 ? Violation("too big") : Status::Ok();
  };
  const auto first = Check("replay", UniformDouble(0.0, 1.0), property, FixedConfig(99, 200));
  ASSERT_FALSE(first.ok()) << "expected a failure within 200 iterations";
  const std::size_t k = first.counterexample->iteration;

  const auto replay =
      Check("replay", UniformDouble(0.0, 1.0), property, FixedConfig(99, k + 1));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.counterexample->iteration, k);
  EXPECT_EQ(replay.counterexample->value, first.counterexample->value);
}

TEST(ProptestEngine, ReproLineNamesSeedItersAndProperty) {
  auto always_fail = [](const double&) { return Violation("planted"); };
  const auto result =
      Check("repro_line", UniformDouble(0.0, 1.0), always_fail, FixedConfig(123, 5));
  ASSERT_FALSE(result.ok());
  const std::string line = result.ReproLine();
  EXPECT_NE(line.find("DPLEARN_PROPTEST_SEED=123"), std::string::npos) << line;
  EXPECT_NE(line.find("DPLEARN_PROPTEST_ITERS=1"), std::string::npos) << line;
  EXPECT_NE(line.find("repro_line"), std::string::npos) << line;
}

TEST(ProptestEngine, GreedyShrinkFindsBoundaryOfFailingRegion) {
  // Planted bug: fails iff v >= 5. Shrinking toward 0 bisects; the minimal
  // counterexample must still fail (>= 5) and sit within one bisection step
  // of the boundary (< 10).
  auto property = [](const double& v) {
    return v >= 5.0 ? Violation("v >= 5") : Status::Ok();
  };
  const auto result =
      Check("shrink_scalar", UniformDouble(0.0, 100.0), property, FixedConfig(7, 100));
  ASSERT_FALSE(result.ok());
  EXPECT_GE(result.counterexample->value, 5.0);
  EXPECT_LT(result.counterexample->value, 10.0)
      << "shrinking stopped " << result.counterexample->value
      << " away from the boundary";
}

TEST(ProptestEngine, VectorShrinkRemovesIrrelevantElements) {
  // Fails iff the vector contains an element > 0.5; the shrunk witness
  // should be near-minimal in length.
  auto property = [](const std::vector<double>& v) {
    for (double x : v) {
      if (x > 0.5) return Violation("contains element > 0.5");
    }
    return Status::Ok();
  };
  const auto result = Check("shrink_vector", VectorOf(UniformDouble(0.0, 1.0), 1, 40),
                            property, FixedConfig(11, 100));
  ASSERT_FALSE(result.ok());
  EXPECT_LE(result.counterexample->value.size(), 2u)
      << "shrunk witness still has " << result.counterexample->value.size()
      << " elements: " << result.counterexample->description;
}

TEST(ProptestEngine, ShrinkStepsRespectBudget) {
  Config config = FixedConfig(5, 10);
  config.max_shrink_steps = 3;
  auto always_fail = [](const std::vector<double>&) { return Violation("always"); };
  const auto result =
      Check("budget", VectorOf(UniformDouble(0.0, 1.0), 1, 40), always_fail, config);
  ASSERT_FALSE(result.ok());
  EXPECT_LE(result.counterexample->shrink_steps, 3u);
}

TEST(ProptestEngine, ConfigFromEnvReadsOverrides) {
  ScopedEnv iters("DPLEARN_PROPTEST_ITERS", "7");
  ScopedEnv seed("DPLEARN_PROPTEST_SEED", "31337");
  const Config config = Config::FromEnv();
  EXPECT_EQ(config.iterations, 7u);
  EXPECT_EQ(config.seed, 31337u);
}

TEST(ProptestEngine, ConfigFromEnvIgnoresGarbage) {
  ScopedEnv iters("DPLEARN_PROPTEST_ITERS", "12abc");
  ScopedEnv seed("DPLEARN_PROPTEST_SEED", "");
  const Config defaults;
  const Config config = Config::FromEnv();
  EXPECT_EQ(config.iterations, defaults.iterations);
  EXPECT_EQ(config.seed, defaults.seed);
}

TEST(ProptestEngine, FailureFileReceivesReproLine) {
  const std::string path =
      ::testing::TempDir() + "/proptest_failure_file_test.txt";
  std::remove(path.c_str());
  ScopedEnv file("DPLEARN_PROPTEST_FAILURE_FILE", path.c_str());
  auto always_fail = [](const double&) { return Violation("planted"); };
  const auto result =
      Check("file_sink", UniformDouble(0.0, 1.0), always_fail, FixedConfig(17, 3));
  ASSERT_FALSE(result.ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "failure file was not created at " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("DPLEARN_PROPTEST_SEED=17"), std::string::npos)
      << contents.str();
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Generator range checks — themselves properties.

TEST(ProptestGenerators, UniformDoubleStaysInRange) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "uniform_range", UniformDouble(-2.0, 3.0),
      [](const double& v) {
        return (v >= -2.0 && v < 3.0) ? Status::Ok() : Violation("out of [-2,3)");
      },
      FixedConfig(1, 500)));
}

TEST(ProptestGenerators, LogUniformDoubleStaysInRange) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "loguniform_range", LogUniformDouble(1e-6, 1e6),
      [](const double& v) {
        return (v >= 0.99e-6 && v <= 1.01e6) ? Status::Ok() : Violation("out of range");
      },
      FixedConfig(2, 500)));
}

TEST(ProptestGenerators, DistributionsAreValid) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "distribution_valid", ArbitraryDistribution(1, 12),
      [](const std::vector<double>& p) {
        if (p.empty() || p.size() > 12) return Violation("support out of range");
        return ValidateDistribution(p, 1e-9);
      },
      FixedConfig(3, 500)));
}

TEST(ProptestGenerators, DistributionPairsShareSupport) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "pair_support", ArbitraryDistributionPair(2, 10),
      [](const std::pair<std::vector<double>, std::vector<double>>& pq) {
        if (pq.first.size() != pq.second.size()) return Violation("support mismatch");
        DPLEARN_RETURN_IF_ERROR(ValidateDistribution(pq.first, 1e-9));
        return ValidateDistribution(pq.second, 1e-9);
      },
      FixedConfig(4, 500)));
}

TEST(ProptestGenerators, ChannelsAreRowStochasticAndPositive) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "channel_rows", ArbitraryChannel(4, 5),
      [](const std::vector<std::vector<double>>& w) {
        if (w.size() != 4) return Violation("wrong input count");
        for (const auto& row : w) {
          if (row.size() != 5) return Violation("wrong output count");
          for (double v : row) {
            if (!(v > 0.0)) return Violation("non-positive transition");
          }
          DPLEARN_RETURN_IF_ERROR(ValidateDistribution(row, 1e-9));
        }
        return Status::Ok();
      },
      FixedConfig(5, 200)));
}

TEST(ProptestGenerators, BernoulliDatasetsAreWellFormed) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "bernoulli_dataset", ArbitraryBernoulliDataset(1, 20),
      [](const Dataset& data) {
        if (data.empty() || data.size() > 20) return Violation("size out of range");
        for (const Example& z : data.examples()) {
          if (z.features != Vector{1.0}) return Violation("bad features");
          if (z.label != 0.0 && z.label != 1.0) return Violation("non-binary label");
        }
        return Status::Ok();
      },
      FixedConfig(6, 300)));
}

TEST(ProptestGenerators, RegressionDatasetsRespectRadiusAndDim) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "regression_dataset", ArbitraryRegressionDataset(1, 16, 3, 10.0),
      [](const Dataset& data) {
        if (data.empty() || data.size() > 16) return Violation("size out of range");
        const std::size_t dim = data.FeatureDim();
        if (dim < 1 || dim > 3) return Violation("dim out of range");
        for (const Example& z : data.examples()) {
          if (z.features.size() != dim) return Violation("ragged");
          for (double x : z.features) {
            if (!(x >= -10.0 && x <= 10.0)) return Violation("feature out of radius");
          }
          if (!(z.label >= -10.0 && z.label <= 10.0)) return Violation("label out of radius");
        }
        return Status::Ok();
      },
      FixedConfig(7, 300)));
}

TEST(ProptestGenerators, GridSpecsMaterialize) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "grid_spec", ArbitraryGridSpec(4.0, 12),
      [](const GridSpec& spec) {
        if (spec.count < 2 || spec.count > 12) return Violation("count out of range");
        auto grid = MakeGrid(spec);
        if (!grid.ok()) return Violation("ScalarGrid rejected spec: " + grid.status().message());
        if (grid.value().size() != spec.count) return Violation("wrong grid size");
        return Status::Ok();
      },
      FixedConfig(8, 300)));
}

TEST(ProptestGenerators, LossConfigsMaterializeWithDeclaredBound) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "loss_config", ArbitraryLossConfig(),
      [](const LossConfig& config) {
        if (!(config.clip >= 0.25 && config.clip <= 4.0)) return Violation("clip range");
        auto loss = MakeLoss(config);
        if (loss == nullptr) return Violation("null loss");
        if (loss->UpperBound() != config.clip) return Violation("bound mismatch");
        return Status::Ok();
      },
      FixedConfig(9, 300)));
}

TEST(ProptestGenerators, DpParamsStayInDocumentedRanges) {
  DPLEARN_EXPECT_PROPERTY(Check(
      "dp_params", ArbitraryDpParams(1e4),
      [](const DpParams& params) {
        if (!(params.epsilon >= 0.99e-3 && params.epsilon <= 1.01e4)) {
          return Violation("epsilon out of range");
        }
        if (!(params.lambda >= 0.99e-2 && params.lambda <= 1.01e3)) {
          return Violation("lambda out of range");
        }
        if (!(params.alpha > 0.0 && params.alpha <= 4.0) || params.alpha == 1.0) {
          return Violation("alpha out of range");
        }
        return Status::Ok();
      },
      FixedConfig(10, 500)));
}

// The clamp policy helper the invariant suites lean on (satellite 4).
TEST(ClampPolicy, RoundingScaleNegativesBecomeZero) {
  EXPECT_EQ(ClampRoundingNegative(-1e-12), 0.0);
  EXPECT_EQ(ClampRoundingNegative(-1e-9), 0.0);  // boundary inclusive
}

TEST(ClampPolicy, GenuineNegativesPassThroughUnchanged) {
  EXPECT_EQ(ClampRoundingNegative(-1e-6), -1e-6);
  EXPECT_EQ(ClampRoundingNegative(-2.5), -2.5);
}

TEST(ClampPolicy, NonNegativesUntouched) {
  EXPECT_EQ(ClampRoundingNegative(0.0), 0.0);
  EXPECT_EQ(ClampRoundingNegative(3.25), 3.25);
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
