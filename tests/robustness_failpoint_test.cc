#include "robustness/failpoint.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/status.h"

namespace dplearn {
namespace robustness {
namespace {

/// Every test starts and ends with a disarmed registry so fail points never
/// leak across tests (the suite shares one process-wide singleton).
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().ClearAll(); }
  void TearDown() override { FailPointRegistry::Global().ClearAll(); }
};

TEST_F(FailPointTest, ParseAlways) {
  auto spec = FailPointSpec::Parse("always");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().trigger, FailPointSpec::Trigger::kAlways);
}

TEST_F(FailPointTest, ParseOff) {
  auto spec = FailPointSpec::Parse("off");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().trigger, FailPointSpec::Trigger::kOff);
}

TEST_F(FailPointTest, ParseProbability) {
  auto spec = FailPointSpec::Parse("prob:0.25");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().trigger, FailPointSpec::Trigger::kProbability);
  EXPECT_DOUBLE_EQ(spec.value().probability, 0.25);
}

TEST_F(FailPointTest, ParseCounts) {
  auto every = FailPointSpec::Parse("every:3");
  ASSERT_TRUE(every.ok());
  EXPECT_EQ(every.value().trigger, FailPointSpec::Trigger::kEveryN);
  EXPECT_EQ(every.value().n, 3u);

  auto after = FailPointSpec::Parse("after:5");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().trigger, FailPointSpec::Trigger::kAfterN);
  EXPECT_EQ(after.value().n, 5u);

  auto first = FailPointSpec::Parse("first:2");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().trigger, FailPointSpec::Trigger::kFirstN);
  EXPECT_EQ(first.value().n, 2u);
}

TEST_F(FailPointTest, ParseEmptyIsAlwaysShorthand) {
  // A bare `name` in DPLEARN_FAILPOINTS has no '=spec'; Configure hands
  // Parse the empty string, which means "always".
  auto spec = FailPointSpec::Parse("");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().trigger, FailPointSpec::Trigger::kAlways);
}

TEST_F(FailPointTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FailPointSpec::Parse("sometimes").ok());
  EXPECT_FALSE(FailPointSpec::Parse("prob:1.5").ok());
  EXPECT_FALSE(FailPointSpec::Parse("prob:-0.1").ok());
  EXPECT_FALSE(FailPointSpec::Parse("prob:abc").ok());
  EXPECT_FALSE(FailPointSpec::Parse("every:0").ok());
  EXPECT_FALSE(FailPointSpec::Parse("every:xyz").ok());
}

TEST_F(FailPointTest, DisarmedNeverFires) {
  EXPECT_FALSE(FailPointsEnabled());
  EXPECT_FALSE(ShouldFail("test.unarmed"));
  EXPECT_TRUE(Inject("test.unarmed").ok());
}

TEST_F(FailPointTest, AlwaysFiresEveryHit) {
  ScopedFailPoint fp("test.point", "always");
  EXPECT_TRUE(FailPointsEnabled());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ShouldFail("test.point"));
  EXPECT_FALSE(ShouldFail("test.other"));
}

TEST_F(FailPointTest, OffCountsHitsButNeverFires) {
  ScopedFailPoint fp("test.point", "off");
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(ShouldFail("test.point"));
  for (const FailPointStats& stats : FailPointRegistry::Global().Stats()) {
    if (stats.name != "test.point") continue;
    EXPECT_EQ(stats.hits, 7u);
    EXPECT_EQ(stats.fires, 0u);
    return;
  }
  FAIL() << "no stats for test.point";
}

TEST_F(FailPointTest, EveryNFiresOnExactMultiples) {
  ScopedFailPoint fp("test.point", "every:3");
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(ShouldFail("test.point"));
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
}

TEST_F(FailPointTest, AfterNSkipsThenFiresForever) {
  ScopedFailPoint fp("test.point", "after:2");
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(ShouldFail("test.point"));
  const std::vector<bool> expected = {false, false, true, true, true};
  EXPECT_EQ(fired, expected);
}

TEST_F(FailPointTest, FirstNFiresThenStops) {
  ScopedFailPoint fp("test.point", "first:2");
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(ShouldFail("test.point"));
  const std::vector<bool> expected = {true, true, false, false, false};
  EXPECT_EQ(fired, expected);
}

TEST_F(FailPointTest, ProbabilityZeroAndOneAreDegenerate) {
  {
    ScopedFailPoint fp("test.point", "prob:0");
    for (int i = 0; i < 20; ++i) EXPECT_FALSE(ShouldFail("test.point"));
  }
  {
    ScopedFailPoint fp("test.point", "prob:1");
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(ShouldFail("test.point"));
  }
}

TEST_F(FailPointTest, ProbabilityIsDeterministicPerHitIndex) {
  // The prob: decision hashes (name, hit index, seed), so re-arming the same
  // point replays the identical fire pattern.
  std::vector<bool> run1;
  {
    ScopedFailPoint fp("test.point", "prob:0.5");
    for (int i = 0; i < 64; ++i) run1.push_back(ShouldFail("test.point"));
  }
  std::vector<bool> run2;
  {
    ScopedFailPoint fp("test.point", "prob:0.5");
    for (int i = 0; i < 64; ++i) run2.push_back(ShouldFail("test.point"));
  }
  EXPECT_EQ(run1, run2);
  // And a 0.5 trigger over 64 hits should actually mix fires and non-fires.
  int fires = 0;
  for (const bool b : run1) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST_F(FailPointTest, ConfigureParsesMultipleEntries) {
  FailPointRegistry& registry = FailPointRegistry::Global();
  ASSERT_TRUE(registry.Configure("a.one=always;b.two=every:4,c.three=prob:0.5").ok());
  EXPECT_TRUE(ShouldFail("a.one"));
  const std::string config = registry.ConfigString();
  EXPECT_NE(config.find("a.one=always"), std::string::npos);
  EXPECT_NE(config.find("b.two=every:4"), std::string::npos);
  EXPECT_NE(config.find("c.three=prob:0.5"), std::string::npos);
}

TEST_F(FailPointTest, ConfigureBareNameMeansAlways) {
  ASSERT_TRUE(FailPointRegistry::Global().Configure("test.point").ok());
  EXPECT_TRUE(ShouldFail("test.point"));
}

TEST_F(FailPointTest, ConfigureReportsMalformedEntry) {
  EXPECT_FALSE(FailPointRegistry::Global().Configure("test.point=banana").ok());
}

TEST_F(FailPointTest, InjectProducesTaggedUnavailable) {
  ScopedFailPoint fp("test.point", "always");
  const Status status = Inject("test.point");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsInjectedFault(status));
}

TEST_F(FailPointTest, RealUnavailableIsNotInjected) {
  EXPECT_FALSE(IsInjectedFault(UnavailableError("disk on fire")));
  EXPECT_FALSE(IsInjectedFault(InternalError("injected fault at 'x'")));
  EXPECT_FALSE(IsInjectedFault(Status::Ok()));
}

TEST_F(FailPointTest, InjectedFaultMessagePrefix) {
  ScopedFailPoint fp("test.point", "always");
  const Status status = Inject("test.point");
  EXPECT_TRUE(IsInjectedFaultMessage(status.message().c_str()));
  EXPECT_FALSE(IsInjectedFaultMessage("a real exception"));
  EXPECT_FALSE(IsInjectedFaultMessage(nullptr));
}

TEST_F(FailPointTest, ScopedFailPointRestoresDisarmed) {
  {
    ScopedFailPoint fp("test.point", "always");
    EXPECT_TRUE(ShouldFail("test.point"));
  }
  EXPECT_FALSE(FailPointsEnabled());
  EXPECT_FALSE(ShouldFail("test.point"));
}

TEST_F(FailPointTest, ScopedFailPointRestoresPreviousSpec) {
  ScopedFailPoint outer("test.point", "off");
  {
    ScopedFailPoint inner("test.point", "always");
    EXPECT_TRUE(ShouldFail("test.point"));
  }
  // The outer "off" spec is back (counters reset by the re-arm).
  EXPECT_FALSE(ShouldFail("test.point"));
  EXPECT_TRUE(FailPointsEnabled());
}

TEST_F(FailPointTest, StatsCountHitsAndFires) {
  ScopedFailPoint fp("test.point", "every:2");
  for (int i = 0; i < 6; ++i) ShouldFail("test.point");
  for (const FailPointStats& stats : FailPointRegistry::Global().Stats()) {
    if (stats.name != "test.point") continue;
    EXPECT_EQ(stats.hits, 6u);
    EXPECT_EQ(stats.fires, 3u);
    return;
  }
  FAIL() << "no stats for test.point";
}

TEST(FailPointEnvironmentTest, ArmedBeforeTheFirstCheck) {
  // "threadsafe" re-executes this binary for the child, so its registry
  // has not read DPLEARN_FAILPOINTS when the statement below runs.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("DPLEARN_FAILPOINTS", "test.env=every:2", 1);
        const bool armed = FailPointsEnabled();
        const bool first = ShouldFail("test.env");
        const bool second = ShouldFail("test.env");
        std::exit(armed && !first && second ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(FailPointTest, ClearDisarmsOnePoint) {
  FailPointRegistry& registry = FailPointRegistry::Global();
  ASSERT_TRUE(registry.Configure("a.one=always;b.two=always").ok());
  registry.Clear("a.one");
  EXPECT_FALSE(ShouldFail("a.one"));
  EXPECT_TRUE(ShouldFail("b.two"));
  registry.Clear("no.such.point");  // no-op
  EXPECT_TRUE(FailPointsEnabled());
}

}  // namespace
}  // namespace robustness
}  // namespace dplearn
