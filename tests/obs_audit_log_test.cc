// BudgetAuditLog (mechanisms/privacy_budget.h): the ledger every budget
// keeps, with Spend as its one append path.
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "mechanisms/privacy_budget.h"

namespace dplearn {
namespace {

TEST(ObsBudgetAuditLogTest, RecordsMonotoneSequenceAndCumulativeTotals) {
  BudgetAuditLog log;
  const PrivacyBudget total{1.0, 1e-5};
  EXPECT_TRUE(log.Spend("laplace", {0.5, 0.0}, total).granted);
  EXPECT_TRUE(log.Spend("gaussian", {0.25, 1e-6}, total).granted);
  // 0.75 + 1.0 > 1.0: the total refuses it, and the totals stay unchanged.
  const BudgetAuditEntry denied = log.Spend("exponential", {1.0, 0.0}, total);
  EXPECT_FALSE(denied.granted);
  EXPECT_EQ(denied.sequence, 2u);
  EXPECT_TRUE(log.Spend("laplace", {0.25, 0.0}, total).granted);

  std::vector<BudgetAuditEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, i);
  }
  EXPECT_DOUBLE_EQ(entries[1].cumulative.epsilon, 0.75);
  EXPECT_DOUBLE_EQ(entries[1].cumulative.delta, 1e-6);
  EXPECT_FALSE(entries[2].granted);
  EXPECT_EQ(entries[2].cost.epsilon, 1.0);
  EXPECT_DOUBLE_EQ(entries[2].cumulative.epsilon, 0.75);  // denied repeats totals
  EXPECT_DOUBLE_EQ(entries[3].cumulative.epsilon, 1.0);
  EXPECT_DOUBLE_EQ(log.spent().epsilon, 1.0);
  EXPECT_DOUBLE_EQ(log.spent().delta, 1e-6);
  EXPECT_TRUE(log.ReplayVerify().ok());
}

TEST(ObsBudgetAuditLogTest, ReplayMatchesSequentialComposition) {
  BudgetAuditLog log;
  const std::vector<PrivacyBudget> spends = {
      {0.5, 0.0}, {0.25, 1e-7}, {0.125, 2e-7}, {0.75, 0.0}};
  for (const PrivacyBudget& b : spends) {
    ASSERT_TRUE(log.Spend("mechanism", b, {10.0, 1e-3}).granted);
  }
  // Both are Kahan sums in the same order: bitwise equal.
  PrivacyBudget expected = SequentialComposition(spends).value();
  EXPECT_EQ(log.spent().epsilon, expected.epsilon);
  EXPECT_EQ(log.spent().delta, expected.delta);
  EXPECT_TRUE(log.ReplayVerify().ok());
}

TEST(ObsBudgetAuditLogTest, AccountantRecordsGrantsAndDenials) {
  PrivacyAccountant accountant = PrivacyAccountant::Create({1.0, 1e-6}).value();

  ASSERT_TRUE(accountant.Spend({0.5, 0.0}, "laplace").ok());
  ASSERT_TRUE(accountant.Spend({0.25, 1e-7}, "gaussian").ok());
  Status denied = accountant.Spend({0.5, 0.0}, "exponential");  // 1.25 > 1.0
  EXPECT_FALSE(denied.ok());
  ASSERT_TRUE(accountant.Spend({0.25, 0.0}, "laplace").ok());

  const BudgetAuditLog& log = accountant.audit_log();
  std::vector<BudgetAuditEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_TRUE(entries[0].granted);
  EXPECT_FALSE(entries[2].granted);
  EXPECT_EQ(entries[2].mechanism, "exponential");

  // The ledger's arithmetic agrees with sequential composition of the
  // granted spends.
  EXPECT_TRUE(log.ReplayVerify().ok());
  PrivacyBudget expected =
      SequentialComposition({{0.5, 0.0}, {0.25, 1e-7}, {0.25, 0.0}}).value();
  EXPECT_EQ(accountant.spent().epsilon, expected.epsilon);
  EXPECT_EQ(accountant.spent().delta, expected.delta);
}

TEST(ObsBudgetAuditLogTest, ToJsonContainsSchemaFields) {
  BudgetAuditLog log;
  const PrivacyBudget total{0.6, 1e-5};
  log.Spend("laplace", {0.5, 0.0}, total);
  log.Spend("gaussian", {0.25, 1e-6}, total);  // 0.75 > 0.6: denied
  const std::string json = log.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  for (const char* key : {"\"seq\"", "\"epsilon\"", "\"delta\"", "\"cum_epsilon\"",
                          "\"cum_delta\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"mechanism\":\"laplace\""), std::string::npos);
  EXPECT_NE(json.find("\"granted\":false"), std::string::npos);
}

TEST(ObsBudgetAuditLogTest, ConcurrentRecordsKeepLedgerConsistent) {
  BudgetAuditLog log;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        log.Spend("laplace", {0.001, 0.0}, {100.0, 0.0});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.Entries().size(), static_cast<std::size_t>(kThreads) * kRecordsPerThread);
  EXPECT_TRUE(log.ReplayVerify().ok());
  EXPECT_NEAR(log.spent().epsilon, 0.001 * kThreads * kRecordsPerThread, 1e-9);
}

}  // namespace
}  // namespace dplearn
