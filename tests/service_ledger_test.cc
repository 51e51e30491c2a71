// The release service's per-tenant ε ledger (service::ShardedPrivacyAccountant,
// DESIGN.md §13.3): registration, the admission taxonomy, the per-tenant audit
// trail, and the telemetry it exports. TSan-labelled: spends of different
// tenants race on separate shards.

#include "service/sharded_accountant.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"
#include "util/logging.h"

namespace dplearn {
namespace service {
namespace {

using Options = ShardedPrivacyAccountant::Options;

TEST(ObsTenantBudgetTest, ValidatesTenantIds) {
  EXPECT_TRUE(ShardedPrivacyAccountant::IsValidTenantId("acme-corp_01"));
  EXPECT_FALSE(ShardedPrivacyAccountant::IsValidTenantId(""));
  EXPECT_FALSE(ShardedPrivacyAccountant::IsValidTenantId("has.dot"));
  EXPECT_FALSE(ShardedPrivacyAccountant::IsValidTenantId("has space"));

  ShardedPrivacyAccountant ledger{Options{}};
  EXPECT_EQ(ledger.RegisterTenant("bad.id", PrivacyBudget{1.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.RegisterTenant("t1", PrivacyBudget{-1.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ObsTenantBudgetTest, RejectsDuplicateRegistration) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("dup_tenant", PrivacyBudget{1.0, 0.0}).ok());
  EXPECT_EQ(ledger.RegisterTenant("dup_tenant", PrivacyBudget{2.0, 0.0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ObsTenantBudgetTest, SpendRoutesThroughAccountantAndLedger) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("ledger_tenant", PrivacyBudget{1.0, 0.0}).ok());
  EXPECT_EQ(ledger.View("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.audit_log("missing").status().code(), StatusCode::kNotFound);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ledger.SpendOrReject("ledger_tenant", PrivacyBudget{0.1, 0.0}, "laplace").ok());
  }
  // Over-budget: denied, audited, counted — not granted.
  EXPECT_EQ(ledger.SpendOrReject("ledger_tenant", PrivacyBudget{0.6, 0.0}, "laplace").code(),
            StatusCode::kResourceExhausted);

  const auto view = ledger.View("ledger_tenant");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->spends, 5u);
  EXPECT_EQ(view->denials, 1u);

  const auto log = ledger.audit_log("ledger_tenant");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->size(), 6u);  // 5 granted + 1 denied
  EXPECT_TRUE((*log)->ReplayVerify().ok());
}

TEST(ObsTenantBudgetTest, GaugesMatchAccountantBitwise) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("gauge_tenant", PrivacyBudget{1.0, 0.0}).ok());
  // Many small spends, past the 0.9 near-exhaustion line: from the crossing
  // on, the gauges store the ledger's Kahan totals, so they agree exactly —
  // the ReplayVerifyAll contract.
  for (int i = 0; i < 950; ++i) {
    ASSERT_TRUE(ledger.SpendOrReject("gauge_tenant", PrivacyBudget{0.001, 0.0}, "laplace").ok());
  }
  const auto view = ledger.View("gauge_tenant");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->near_exhaustion);
  obs::Gauge* remaining =
      obs::GlobalMetrics().GetGauge("tenant.gauge_tenant.epsilon_remaining");
  obs::Gauge* spent = obs::GlobalMetrics().GetGauge("tenant.gauge_tenant.epsilon_spent");
  EXPECT_EQ(remaining->Value(), view->remaining.epsilon);  // bitwise
  EXPECT_EQ(spent->Value(), view->spent.epsilon);          // bitwise

  const auto log = ledger.audit_log("gauge_tenant");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->cumulative_epsilon(), view->spent.epsilon);

  EXPECT_TRUE(ledger.ReplayVerifyAll().ok());
  // A gauge that no longer stores the ledger total fails the check.
  spent->Set(0.0);
  EXPECT_EQ(ledger.ReplayVerifyAll().code(), StatusCode::kInternal);
}

TEST(ObsTenantBudgetTest, NearExhaustionFiresOnceWithEvent) {
  obs::InMemorySink sink;
  obs::AddGlobalSink(&sink);
  Options options;
  options.near_exhaustion_fraction = 0.5;
  ShardedPrivacyAccountant ledger(options);
  ASSERT_TRUE(ledger.RegisterTenant("hot_tenant", PrivacyBudget{1.0, 0.0}).ok());

  ASSERT_TRUE(ledger.SpendOrReject("hot_tenant", PrivacyBudget{0.25, 0.0}, "laplace").ok());
  EXPECT_FALSE(ledger.View("hot_tenant")->near_exhaustion);
  ASSERT_TRUE(ledger.SpendOrReject("hot_tenant", PrivacyBudget{0.25, 0.0}, "laplace").ok());
  EXPECT_TRUE(ledger.View("hot_tenant")->near_exhaustion);
  ASSERT_TRUE(ledger.SpendOrReject("hot_tenant", PrivacyBudget{0.25, 0.0}, "laplace").ok());
  obs::RemoveGlobalSink(&sink);

  std::size_t near_exhaustion_events = 0;
  for (const obs::Event& event : sink.Events()) {
    if (event.type == "budget" && event.name == "near_exhaustion") {
      ++near_exhaustion_events;
      bool saw_tenant = false;
      for (const auto& [key, value] : event.fields) {
        if (key == "tenant") {
          saw_tenant = true;
          EXPECT_EQ(value.string_value, "hot_tenant");
        }
      }
      EXPECT_TRUE(saw_tenant);
    }
  }
  EXPECT_EQ(near_exhaustion_events, 1u);  // once per tenant, not per spend
}

TEST(ObsTenantBudgetTest, ExpositionRendersTenantLabels) {
  Options options;
  options.near_exhaustion_fraction = 0.5;  // the spend below crosses it
  ShardedPrivacyAccountant ledger(options);
  ASSERT_TRUE(ledger.RegisterTenant("expo_tenant", PrivacyBudget{1.0, 0.0}).ok());
  ASSERT_TRUE(ledger.SpendOrReject("expo_tenant", PrivacyBudget{0.5, 0.0}, "laplace").ok());

  const std::string exposition = obs::GlobalMetrics().WriteExposition();
  EXPECT_NE(exposition.find("# TYPE dplearn_tenant_epsilon_remaining gauge"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("dplearn_tenant_epsilon_remaining{tenant=\"expo_tenant\"} 0.5"),
      std::string::npos);
  EXPECT_NE(exposition.find("dplearn_tenant_epsilon_spent{tenant=\"expo_tenant\"} 0.5"),
            std::string::npos);
}

TEST(ObsTenantBudgetTest, ConcurrentTenantsVerifyCleanly) {
  ShardedPrivacyAccountant ledger{Options{}};
  constexpr int kTenants = 8;
  constexpr int kSpends = 200;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        ledger.RegisterTenant("par_tenant_" + std::to_string(t), PrivacyBudget{10.0, 0.0})
            .ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&ledger, t] {
      const std::string id = "par_tenant_" + std::to_string(t);
      for (int i = 0; i < kSpends; ++i) {
        ASSERT_TRUE(ledger.SpendOrReject(id, PrivacyBudget{0.01, 0.0}, "laplace").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(ledger.ReplayVerifyAll().ok());
  for (int t = 0; t < kTenants; ++t) {
    const auto view = ledger.View("par_tenant_" + std::to_string(t));
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->spends, static_cast<std::uint64_t>(kSpends));
  }
}

TEST(ServiceLedgerTest, HealthyTenantsAddNoGaugesAndNoExpositionSeries) {
  ShardedPrivacyAccountant ledger{Options{}};  // near-exhaustion line at 0.9
  const std::size_t gauges_before = obs::GlobalMetrics().GetSnapshot().gauges.size();
  ASSERT_TRUE(ledger.RegisterTenant("calm_registered", PrivacyBudget{1.0, 0.0}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        ledger.SpendOrReject("calm_registered", PrivacyBudget{0.1, 0.0}, "laplace").ok());
  }
  // Auto-registered at the default budget of 5, with one denial.
  ASSERT_TRUE(ledger.SpendOrReject("calm_auto", PrivacyBudget{1.0, 0.0}, "laplace").ok());
  EXPECT_EQ(ledger.SpendOrReject("calm_auto", PrivacyBudget{10.0, 0.0}, "laplace").code(),
            StatusCode::kResourceExhausted);
  for (const char* id : {"calm_registered", "calm_auto"}) {
    const auto view = ledger.View(id);
    ASSERT_TRUE(view.ok());
    EXPECT_FALSE(view->near_exhaustion) << id;
  }

  const obs::MetricsRegistry::Snapshot snapshot = obs::GlobalMetrics().GetSnapshot();
  EXPECT_EQ(snapshot.gauges.size(), gauges_before);
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_EQ(name.find("calm_"), std::string::npos) << name;
  }
  EXPECT_EQ(obs::GlobalMetrics().WriteExposition().find("tenant=\"calm_"), std::string::npos);
  EXPECT_TRUE(ledger.ReplayVerifyAll().ok());
}

TEST(ServiceLedgerTest, AccountantsSharingAHealthyTenantIdVerifyIndependently) {
  // Gauges are keyed by tenant id alone; healthy tenants own none, so two
  // ledgers in one process cannot overwrite each other's.
  ShardedPrivacyAccountant first{Options{}};
  ShardedPrivacyAccountant second{Options{}};
  ASSERT_TRUE(first.RegisterTenant("shared_id", PrivacyBudget{1.0, 0.0}).ok());
  ASSERT_TRUE(second.RegisterTenant("shared_id", PrivacyBudget{1.0, 0.0}).ok());
  ASSERT_TRUE(first.SpendOrReject("shared_id", PrivacyBudget{0.25, 0.0}, "laplace").ok());
  ASSERT_TRUE(second.SpendOrReject("shared_id", PrivacyBudget{0.5, 0.0}, "laplace").ok());
  EXPECT_TRUE(first.ReplayVerifyAll().ok());
  EXPECT_TRUE(second.ReplayVerifyAll().ok());
  EXPECT_EQ(first.View("shared_id")->spent.epsilon, 0.25);
  EXPECT_EQ(second.View("shared_id")->spent.epsilon, 0.5);
}

TEST(ServiceLedgerTest, InjectedSpendFaultIsUnavailableAndChangesNothing) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("chaos_tenant", PrivacyBudget{1.0, 0.0}).ok());
  ASSERT_TRUE(ledger.SpendOrReject("chaos_tenant", PrivacyBudget{0.25, 0.0}, "laplace").ok());
  obs::Counter* spends = obs::GlobalMetrics().GetCounter("tenant.spends");
  obs::Counter* denials = obs::GlobalMetrics().GetCounter("tenant.denials");
  const std::uint64_t spends_before = spends->Value();
  const std::uint64_t denials_before = denials->Value();
  {
    robustness::ScopedFailPoint chaos("budget.spend", "always");
    const Status injected =
        ledger.SpendOrReject("chaos_tenant", PrivacyBudget{0.25, 0.0}, "laplace");
    EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(robustness::IsInjectedFault(injected));
    // The fault fires first: before the over-budget test, before cost
    // validation, and before an unknown tenant is auto-registered.
    for (const PrivacyBudget& cost : {PrivacyBudget{5.0, 0.0}, PrivacyBudget{-1.0, 0.0}}) {
      EXPECT_EQ(ledger.SpendOrReject("chaos_tenant", cost, "laplace").code(),
                StatusCode::kUnavailable);
    }
    EXPECT_EQ(ledger.SpendOrReject("chaos_newcomer", PrivacyBudget{0.1, 0.0}, "laplace").code(),
              StatusCode::kUnavailable);
  }

  const auto log = ledger.audit_log("chaos_tenant");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->size(), 1u);
  const auto view = ledger.View("chaos_tenant");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->spent.epsilon, 0.25);
  EXPECT_EQ(view->spends, 1u);
  EXPECT_EQ(view->denials, 0u);
  EXPECT_EQ(ledger.View("chaos_newcomer").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(spends->Value(), spends_before);
  EXPECT_EQ(denials->Value(), denials_before);
  EXPECT_TRUE(ledger.ReplayVerifyAll().ok());
}

TEST(ServiceLedgerTest, OverBudgetIsResourceExhaustedWithTheDenialLedgered) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("tight", PrivacyBudget{0.05, 1e-6}).ok());
  ASSERT_TRUE(ledger.SpendOrReject("tight", PrivacyBudget{0.03, 0.0}, "laplace").ok());

  const Status over_epsilon = ledger.SpendOrReject("tight", PrivacyBudget{0.03, 0.0}, "laplace");
  EXPECT_EQ(over_epsilon.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(over_epsilon.message(), kOverBudgetMessage);
  EXPECT_EQ(ledger.SpendOrReject("tight", PrivacyBudget{0.01, 2e-6}, "gaussian").code(),
            StatusCode::kResourceExhausted);

  const auto log = ledger.audit_log("tight");
  ASSERT_TRUE(log.ok());
  const std::vector<obs::BudgetAuditEntry> entries = (*log)->Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].granted);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_FALSE(entries[i].granted);
    EXPECT_EQ(entries[i].cumulative_epsilon, 0.03);  // totals untouched
  }
  const auto view = ledger.View("tight");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->spent.epsilon, 0.03);
  EXPECT_EQ(view->remaining.epsilon, 0.05 - 0.03);
  EXPECT_EQ(view->spends, 1u);
  EXPECT_EQ(view->denials, 2u);
}

TEST(ServiceLedgerTest, MalformedIdOrCostIsInvalidArgument) {
  ShardedPrivacyAccountant ledger{Options{}};
  for (const char* id : {"", "bad tenant!", "has.dot"}) {
    EXPECT_EQ(ledger.SpendOrReject(id, PrivacyBudget{0.1, 0.0}, "laplace").code(),
              StatusCode::kInvalidArgument)
        << "tenant '" << id << "'";
  }
  for (const PrivacyBudget& cost : {PrivacyBudget{0.0, 0.0}, PrivacyBudget{-0.1, 0.0},
                                    PrivacyBudget{0.1, -1e-9}, PrivacyBudget{0.1, 1.0}}) {
    EXPECT_EQ(ledger.SpendOrReject("valid_tenant", cost, "laplace").code(),
              StatusCode::kInvalidArgument)
        << "cost (" << cost.epsilon << ", " << cost.delta << ")";
  }
  // None of them reached a ledger: nothing was auto-registered.
  EXPECT_EQ(ledger.View("valid_tenant").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.View("bad tenant!").status().code(), StatusCode::kNotFound);
}

TEST(ServiceLedgerTest, UnknownTenantRegistersAtTheDefaultBudgetOnFirstSpend) {
  Options options;
  options.default_tenant_budget = PrivacyBudget{0.5, 1e-7};
  ShardedPrivacyAccountant ledger(options);
  EXPECT_EQ(ledger.View("newcomer").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(ledger.SpendOrReject("newcomer", PrivacyBudget{0.2, 0.0}, "laplace").ok());
  const auto view = ledger.View("newcomer");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->total, options.default_tenant_budget);
  EXPECT_EQ(view->spent.epsilon, 0.2);
  EXPECT_EQ(view->spends, 1u);

  // The default quota binds like an explicit one, and the tenant now exists.
  EXPECT_EQ(ledger.SpendOrReject("newcomer", PrivacyBudget{0.4, 0.0}, "laplace").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ledger.RegisterTenant("newcomer", PrivacyBudget{1.0, 0.0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceLedgerTest, DeniedSpendWritesNothingToStderr) {
  ShardedPrivacyAccountant ledger{Options{}};
  ASSERT_TRUE(ledger.RegisterTenant("quiet", PrivacyBudget{0.05, 0.0}).ok());
  const LogLevel previous = MinLogLevel();
  SetMinLogLevel(LogLevel::kWarn);  // the default level
  ::testing::internal::CaptureStderr();
  const Status denied = ledger.SpendOrReject("quiet", PrivacyBudget{0.1, 0.0}, "laplace");
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  SetMinLogLevel(previous);

  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stderr_text, "");
  // The denial is still in the ledger and the counts.
  const auto view = ledger.View("quiet");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->denials, 1u);
  EXPECT_EQ((*ledger.audit_log("quiet"))->size(), 1u);
}

}  // namespace
}  // namespace service
}  // namespace dplearn
