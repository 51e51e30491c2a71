#include "mechanisms/privacy_budget.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "robustness/failpoint.h"

namespace dplearn {
namespace {

TEST(ValidateBudgetTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(ValidateBudget({1.0, 0.0}).ok());
  EXPECT_TRUE(ValidateBudget({0.1, 1e-6}).ok());
  EXPECT_FALSE(ValidateBudget({0.0, 0.0}).ok());
  EXPECT_FALSE(ValidateBudget({-1.0, 0.0}).ok());
  EXPECT_FALSE(ValidateBudget({1.0, -0.1}).ok());
  EXPECT_FALSE(ValidateBudget({1.0, 1.0}).ok());
}

TEST(ValidateBudgetTest, RejectsNanDelta) {
  const Status status = ValidateBudget({1.0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SequentialCompositionTest, SumsEpsilonsAndDeltas) {
  auto total = SequentialComposition({{0.5, 0.0}, {0.3, 1e-6}, {0.2, 1e-6}});
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(total->epsilon, 1.0, 1e-12);
  EXPECT_NEAR(total->delta, 2e-6, 1e-15);
}

TEST(SequentialCompositionTest, RejectsEmptyOrInvalid) {
  EXPECT_FALSE(SequentialComposition({}).ok());
  EXPECT_FALSE(SequentialComposition({{0.5, 0.0}, {0.0, 0.0}}).ok());
}

TEST(AdvancedCompositionTest, BeatsBasicCompositionForManyMechanisms) {
  const PrivacyBudget per = {0.1, 0.0};
  const std::size_t k = 100;
  auto advanced = AdvancedComposition(per, k, 1e-6);
  ASSERT_TRUE(advanced.ok());
  const double basic_eps = per.epsilon * static_cast<double>(k);  // 10
  EXPECT_LT(advanced->epsilon, basic_eps);
  EXPECT_NEAR(advanced->delta, 1e-6, 1e-12);
}

TEST(AdvancedCompositionTest, MatchesClosedForm) {
  const PrivacyBudget per = {0.5, 1e-8};
  const std::size_t k = 10;
  const double dp = 1e-5;
  auto total = AdvancedComposition(per, k, dp).value();
  const double expected = 0.5 * std::sqrt(2.0 * 10.0 * std::log(1.0 / dp)) +
                          10.0 * 0.5 * (std::exp(0.5) - 1.0);
  EXPECT_NEAR(total.epsilon, expected, 1e-9);
  EXPECT_NEAR(total.delta, 10.0 * 1e-8 + dp, 1e-15);
}

TEST(AdvancedCompositionTest, Validation) {
  EXPECT_FALSE(AdvancedComposition({0.0, 0.0}, 10, 1e-5).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 0, 1e-5).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 10, 0.0).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 10, 1.0).ok());
}

TEST(PrivacyAccountantTest, TracksSpending) {
  auto acct = PrivacyAccountant::Create({1.0, 0.0});
  ASSERT_TRUE(acct.ok());
  EXPECT_TRUE(acct->Spend({0.4, 0.0}).ok());
  EXPECT_TRUE(acct->Spend({0.4, 0.0}).ok());
  EXPECT_NEAR(acct->spent().epsilon, 0.8, 1e-12);
  EXPECT_NEAR(RemainingBudget(acct->total(), acct->spent()).epsilon, 0.2, 1e-12);
}

TEST(PrivacyAccountantTest, RefusesOverspend) {
  auto acct = PrivacyAccountant::Create({1.0, 0.0});
  ASSERT_TRUE(acct.ok());
  EXPECT_TRUE(acct->Spend({0.9, 0.0}).ok());
  // Would exceed; state must not change.
  EXPECT_FALSE(acct->Spend({0.2, 0.0}).ok());
  EXPECT_NEAR(acct->spent().epsilon, 0.9, 1e-12);
  // A fitting spend still works.
  EXPECT_TRUE(acct->Spend({0.1, 0.0}).ok());
}

TEST(PrivacyAccountantTest, RefusesDeltaOverspend) {
  auto acct = PrivacyAccountant::Create({10.0, 1e-6});
  ASSERT_TRUE(acct.ok());
  EXPECT_FALSE(acct->Spend({1.0, 1e-5}).ok());
  EXPECT_TRUE(acct->Spend({1.0, 1e-6}).ok());
}

TEST(PrivacyAccountantTest, RejectsInvalidTotalOrSpend) {
  EXPECT_FALSE(PrivacyAccountant::Create({0.0, 0.0}).ok());
  auto acct = PrivacyAccountant::Create({1.0, 0.0});
  ASSERT_TRUE(acct.ok());
  EXPECT_FALSE(acct->Spend({-0.1, 0.0}).ok());
}

TEST(PrivacyAccountantTest, RejectsNanDelta) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(PrivacyAccountant::Create({1.0, nan}).status().code(),
            StatusCode::kInvalidArgument);
  // A NaN delta in the ledger would make every later delta test false, so
  // the budget's delta would never bind again.
  auto acct = PrivacyAccountant::Create({1.0, 1e-6});
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct->Spend({0.1, nan}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(acct->audit_log().Entries().empty());
  EXPECT_FALSE(acct->Spend({0.1, 0.5}).ok());
}

TEST(PrivacyAccountantTest, LedgerHoldsEverySpendInOrder) {
  // The accountant keeps every structurally valid spend in its own ledger.
  auto acct = PrivacyAccountant::Create({1.0, 1e-6});
  ASSERT_TRUE(acct.ok());
  const std::vector<PrivacyBudget> costs = {
      {0.3, 1e-7}, {0.2, 0.0}, {0.6, 0.0}, {0.1, 2e-7}, {0.25, 0.0}};
  const std::vector<bool> expect_granted = {true, true, false, true, true};
  std::vector<PrivacyBudget> granted;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(acct->Spend(costs[i], "step" + std::to_string(i)).ok(), expect_granted[i]);
    if (expect_granted[i]) granted.push_back(costs[i]);
  }

  const std::vector<BudgetAuditEntry> entries = acct->audit_log().Entries();
  ASSERT_EQ(entries.size(), costs.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, i);
    EXPECT_EQ(entries[i].mechanism, "step" + std::to_string(i));
    EXPECT_EQ(entries[i].cost, costs[i]);
    EXPECT_EQ(entries[i].granted, expect_granted[i]) << i;
  }
  EXPECT_TRUE(acct->audit_log().ReplayVerify().ok());
  // Bitwise: spent() is the last entry's running total, and that total is
  // the same Kahan sum, in the same order, as SequentialComposition.
  EXPECT_EQ(acct->spent(), entries.back().cumulative);
  EXPECT_EQ(acct->spent(), SequentialComposition(granted).value());
}

TEST(PrivacyAccountantTest, MillionSmallSpendsStayExact) {
  // 1e6 spends of eps = 1e-6 sum to exactly 1.0 in real arithmetic. Naive
  // accumulation drifts by thousands of ulps; the Kahan-compensated ledger
  // must land within one ulp AND reconcile against the ledger's own
  // compensated replay.
  auto acct = PrivacyAccountant::Create({2.0, 0.0});
  ASSERT_TRUE(acct.ok());

  const int spends = 1000000;
  const double step = 1e-6;
  double naive = 0.0;
  for (int i = 0; i < spends; ++i) {
    ASSERT_TRUE(acct->Spend({step, 0.0}, "micro").ok());
    naive += step;
  }
  EXPECT_NE(naive, 1.0);  // the drift the fix is about
  EXPECT_NEAR(acct->spent().epsilon, 1.0, 1e-12);
  EXPECT_NEAR(RemainingBudget(acct->total(), acct->spent()).epsilon, 1.0, 1e-12);
  EXPECT_EQ(acct->audit_log().Entries().size(), static_cast<std::size_t>(spends));
  EXPECT_TRUE(acct->audit_log().ReplayVerify().ok());
}

TEST(PrivacyAccountantTest, InjectedSpendFaultLeavesStateUnchanged) {
  auto acct = PrivacyAccountant::Create({1.0, 0.0});
  ASSERT_TRUE(acct.ok());
  ASSERT_TRUE(acct->Spend({0.25, 0.0}, "real").ok());

  {
    robustness::ScopedFailPoint fp("budget.spend", "always");
    const Status status = acct->Spend({0.25, 0.0}, "chaos");
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(robustness::IsInjectedFault(status));
  }
  // The fault fired before validation and mutation: no ledger entry, and
  // the ledger still reconciles.
  EXPECT_NEAR(acct->spent().epsilon, 0.25, 0.0);
  EXPECT_EQ(acct->audit_log().Entries().size(), 1u);
  EXPECT_TRUE(acct->audit_log().ReplayVerify().ok());
}

}  // namespace
}  // namespace dplearn
