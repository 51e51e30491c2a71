#ifndef DPLEARN_SERVICE_SHARDED_ACCOUNTANT_H_
#define DPLEARN_SERVICE_SHARDED_ACCOUNTANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "mechanisms/privacy_budget.h"
#include "obs/audit_log.h"
#include "util/status.h"

namespace dplearn {
namespace service {

/// The release service's per-tenant ε ledger (DESIGN.md §13.3): admission
/// control, the audit trail and the budget telemetry of every tenant.
///
/// Each tenant owns a private obs::BudgetAuditLog. Its Kahan-compensated
/// running totals are the tenant's only stored spent (ε, δ), and a spend is
/// granted iff WithinBudget (mechanisms/privacy_budget.h) holds for them —
/// the same sequential-composition rule PrivacyAccountant applies. Granted
/// and denied spends are both appended to the ledger.
///
/// Every spend counts into the process-wide counters tenant.spends,
/// tenant.denials and tenant.near_exhaustion.events. When a tenant's spent ε
/// first reaches near_exhaustion_fraction of its total, the tenant enters
/// the near-exhaustion set: a "budget"/"near_exhaustion" event goes to the
/// global sinks, once per tenant, and the tenant gets two GlobalMetrics()
/// gauges, stored on that spend and on every later one:
///
///   tenant.<id>.epsilon_remaining   total − spent ε, clamped at zero
///   tenant.<id>.epsilon_spent       spent ε (bitwise the ledger total)
///
/// A healthy tenant touches no registry state, so the metric series stay
/// bounded by the near-exhaustion set however many tenants there are. The
/// exposition writer renders the gauges as one Prometheus family per field
/// with a tenant="<id>" label (obs/exposition.cc), which is why tenant ids
/// must match [A-Za-z0-9_-]+.
///
/// Thread-safety: tenants hash onto shard_count independently locked shards,
/// so spends by different tenants rarely contend; spends by one tenant
/// serialize on its shard, which the ledger needs (composition is
/// order-sensitive in floating point).
class ShardedPrivacyAccountant {
 public:
  struct Options {
    /// Budget granted to tenants that are auto-registered on first spend.
    PrivacyBudget default_tenant_budget{5.0, 1e-6};
    std::size_t shard_count = 16;
    /// Spent-ε fraction at which a tenant enters the near-exhaustion set.
    double near_exhaustion_fraction = 0.9;
  };

  explicit ShardedPrivacyAccountant(Options options);
  ~ShardedPrivacyAccountant();

  ShardedPrivacyAccountant(const ShardedPrivacyAccountant&) = delete;
  ShardedPrivacyAccountant& operator=(const ShardedPrivacyAccountant&) = delete;

  /// True iff `id` is a valid tenant id: non-empty, [A-Za-z0-9_-] only.
  static bool IsValidTenantId(std::string_view id);
  /// OK iff IsValidTenantId(tenant_id); else the INVALID_ARGUMENT that
  /// SpendOrReject answers.
  static Status ValidateTenantId(const std::string& tenant_id);

  /// Registers `tenant_id` with an explicit quota.
  /// INVALID_ARGUMENT on a malformed id or budget, FAILED_PRECONDITION when
  /// already registered.
  Status RegisterTenant(const std::string& tenant_id, const PrivacyBudget& total);

  /// Admits or rejects one spend of `cost` by `tenant_id` under `mechanism`.
  /// Auto-registers unknown tenants at the default budget. Returns:
  ///   OK                  the spend was granted and is in the ledger;
  ///   RESOURCE_EXHAUSTED  over budget — the denial is in the ledger, the
  ///                       running totals are untouched;
  ///   UNAVAILABLE         an injected `budget.spend` fault fired after the
  ///                       tenant-id check, before cost validation and
  ///                       before any state change;
  ///   INVALID_ARGUMENT    malformed tenant id or cost.
  Status SpendOrReject(const std::string& tenant_id, const PrivacyBudget& cost,
                       std::string_view mechanism);

  /// A read-only snapshot of one tenant's budget state.
  struct TenantView {
    PrivacyBudget total;
    PrivacyBudget spent;
    PrivacyBudget remaining;
    std::uint64_t spends = 0;   // granted
    std::uint64_t denials = 0;  // refused over-budget
    bool near_exhaustion = false;
  };
  /// NOT_FOUND for an unregistered tenant.
  StatusOr<TenantView> View(const std::string& tenant_id) const;

  /// Checks every tenant: its ledger replays clean
  /// (BudgetAuditLog::ReplayVerify), and, for a tenant in the
  /// near-exhaustion set, its spent/remaining gauges are bitwise equal to the
  /// ledger totals. Returns the first failure, an InternalError.
  Status ReplayVerifyAll() const;

  /// The tenant's private audit ledger (NOT_FOUND when unregistered). The
  /// pointer stays valid for the accountant's lifetime.
  StatusOr<const obs::BudgetAuditLog*> audit_log(const std::string& tenant_id) const;

 private:
  struct Tenant;
  struct Shard;

  Shard& ShardFor(const std::string& tenant_id) const;

  Options options_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace service
}  // namespace dplearn

#endif  // DPLEARN_SERVICE_SHARDED_ACCOUNTANT_H_
