#include "service/sharded_accountant.h"

#include <array>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"

namespace dplearn {
namespace service {

struct ShardedPrivacyAccountant::Tenant {
  explicit Tenant(const PrivacyBudget& budget) : total(budget) {}

  PrivacyBudget Spent() const {
    return PrivacyBudget{ledger.cumulative_epsilon(), ledger.cumulative_delta()};
  }
  bool near_exhaustion() const { return epsilon_spent != nullptr; }

  const PrivacyBudget total;
  /// Its Kahan pair is the tenant's only stored spent total.
  obs::BudgetAuditLog ledger;
  /// Null until the tenant enters the near-exhaustion set; from then on
  /// every spend stores the ledger totals into them.
  obs::Gauge* epsilon_remaining = nullptr;
  obs::Gauge* epsilon_spent = nullptr;
  std::uint64_t spends = 0;
  std::uint64_t denials = 0;
};

struct ShardedPrivacyAccountant::Shard {
  mutable std::mutex mu;
  /// unique_ptr: audit_log() hands out ledger addresses that must survive
  /// rehashes.
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants;
};

ShardedPrivacyAccountant::ShardedPrivacyAccountant(Options options) : options_(options) {
  if (options_.shard_count == 0) options_.shard_count = 1;
  if (!(options_.near_exhaustion_fraction > 0.0) ||
      !(options_.near_exhaustion_fraction <= 1.0)) {
    options_.near_exhaustion_fraction = 0.9;
  }
  shards_.reset(new Shard[options_.shard_count]);
}

ShardedPrivacyAccountant::~ShardedPrivacyAccountant() = default;

bool ShardedPrivacyAccountant::IsValidTenantId(std::string_view id) {
  // One table load per character: every spend runs this check.
  static constexpr auto kAllowed = [] {
    std::array<bool, 256> allowed{};
    for (int c = 0; c < 256; ++c) {
      allowed[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                   (c >= '0' && c <= '9') || c == '_' || c == '-';
    }
    return allowed;
  }();
  if (id.empty()) return false;
  for (const char c : id) {
    if (!kAllowed[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

Status ShardedPrivacyAccountant::ValidateTenantId(const std::string& tenant_id) {
  if (IsValidTenantId(tenant_id)) return Status::Ok();
  return InvalidArgumentError("service: malformed tenant id \"" + tenant_id + "\"");
}

ShardedPrivacyAccountant::Shard& ShardedPrivacyAccountant::ShardFor(
    const std::string& tenant_id) const {
  return shards_[std::hash<std::string>{}(tenant_id) % options_.shard_count];
}

Status ShardedPrivacyAccountant::RegisterTenant(const std::string& tenant_id,
                                                const PrivacyBudget& total) {
  if (!IsValidTenantId(tenant_id)) {
    return InvalidArgumentError("RegisterTenant: tenant id '" + tenant_id +
                                "' must match [A-Za-z0-9_-]+");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateBudget(total));
  Shard& shard = ShardFor(tenant_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.tenants.count(tenant_id) != 0) {
    return FailedPreconditionError("RegisterTenant: tenant '" + tenant_id +
                                   "' already registered");
  }
  shard.tenants.emplace(tenant_id, std::make_unique<Tenant>(total));
  return Status::Ok();
}

Status ShardedPrivacyAccountant::SpendOrReject(const std::string& tenant_id,
                                               const PrivacyBudget& cost,
                                               std::string_view mechanism) {
  DPLEARN_RETURN_IF_ERROR(ValidateTenantId(tenant_id));
  // Before cost validation and before any state change, auto-registration
  // included: an injected outage leaves the ledger exactly as it was.
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("budget.spend"));
  DPLEARN_RETURN_IF_ERROR(ValidateBudget(cost));

  Shard& shard = ShardFor(tenant_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenants.find(tenant_id);
  if (it == shard.tenants.end()) {
    // First contact: clients need no registration handshake.
    DPLEARN_RETURN_IF_ERROR(ValidateBudget(options_.default_tenant_budget));
    it = shard.tenants
             .emplace(tenant_id, std::make_unique<Tenant>(options_.default_tenant_budget))
             .first;
  }
  Tenant& tenant = *it->second;

  const obs::BudgetAuditEntry entry = tenant.ledger.RecordSpend(
      mechanism, cost.epsilon, cost.delta, [&](double spent_epsilon, double spent_delta) {
        return WithinBudget(PrivacyBudget{spent_epsilon, spent_delta}, cost, tenant.total);
      });
  if (entry.granted) {
    ++tenant.spends;
    static obs::Counter* const spends = obs::GlobalMetrics().GetCounter("tenant.spends");
    spends->Increment();
  } else {
    ++tenant.denials;
    static obs::Counter* const denials = obs::GlobalMetrics().GetCounter("tenant.denials");
    denials->Increment();
  }

  const PrivacyBudget spent{entry.cumulative_epsilon, entry.cumulative_delta};
  if (!tenant.near_exhaustion() &&
      spent.epsilon >= options_.near_exhaustion_fraction * tenant.total.epsilon) {
    // Only tenants in the near-exhaustion set own gauges, so the exported
    // series stay bounded however many tenants spend. Created under the
    // shard lock: the lock order is shard, then registry.
    tenant.epsilon_remaining =
        obs::GlobalMetrics().GetGauge("tenant." + tenant_id + ".epsilon_remaining");
    tenant.epsilon_spent = obs::GlobalMetrics().GetGauge("tenant." + tenant_id + ".epsilon_spent");
    static obs::Counter* const events =
        obs::GlobalMetrics().GetCounter("tenant.near_exhaustion.events");
    events->Increment();
    if (obs::HasGlobalSinks()) {
      obs::Event event;
      event.type = "budget";
      event.name = "near_exhaustion";
      event.With("tenant", obs::EventValue::Str(tenant_id))
          .With("epsilon_spent", obs::EventValue::Num(spent.epsilon))
          .With("epsilon_total", obs::EventValue::Num(tenant.total.epsilon))
          .With("epsilon_remaining",
                obs::EventValue::Num(RemainingBudget(tenant.total, spent).epsilon))
          .With("threshold", obs::EventValue::Num(options_.near_exhaustion_fraction));
      obs::EmitEvent(event);
    }
  }
  if (tenant.near_exhaustion()) {
    tenant.epsilon_remaining->Set(RemainingBudget(tenant.total, spent).epsilon);
    tenant.epsilon_spent->Set(spent.epsilon);
  }
  // Retrying cannot succeed until the quota is raised: RESOURCE_EXHAUSTED.
  return entry.granted ? Status::Ok() : ResourceExhaustedError(kOverBudgetMessage);
}

StatusOr<ShardedPrivacyAccountant::TenantView> ShardedPrivacyAccountant::View(
    const std::string& tenant_id) const {
  Shard& shard = ShardFor(tenant_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.tenants.find(tenant_id);
  if (it == shard.tenants.end()) {
    return NotFoundError("GetView: tenant '" + tenant_id + "' not registered");
  }
  const Tenant& tenant = *it->second;
  TenantView view;
  view.total = tenant.total;
  view.spent = tenant.Spent();
  view.remaining = RemainingBudget(tenant.total, view.spent);
  view.spends = tenant.spends;
  view.denials = tenant.denials;
  view.near_exhaustion = tenant.near_exhaustion();
  return view;
}

Status ShardedPrivacyAccountant::ReplayVerifyAll() const {
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    for (const auto& [id, tenant] : shards_[s].tenants) {
      DPLEARN_RETURN_IF_ERROR(tenant->ledger.ReplayVerify());
      if (!tenant->near_exhaustion()) continue;  // a healthy tenant has no gauges
      // The gauges are stores of the ledger's own totals, so == is the
      // right comparison, not a tolerance.
      const PrivacyBudget spent = tenant->Spent();
      if (tenant->epsilon_spent->Value() != spent.epsilon ||
          tenant->epsilon_remaining->Value() !=
              RemainingBudget(tenant->total, spent).epsilon) {
        return InternalError("ReplayVerifyAll: tenant '" + id +
                             "' gauges diverge from its ledger");
      }
    }
  }
  return Status::Ok();
}

StatusOr<const obs::BudgetAuditLog*> ShardedPrivacyAccountant::audit_log(
    const std::string& tenant_id) const {
  Shard& shard = ShardFor(tenant_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.tenants.find(tenant_id);
  if (it == shard.tenants.end()) {
    return NotFoundError("audit_log: tenant '" + tenant_id + "' not registered");
  }
  return static_cast<const obs::BudgetAuditLog*>(&it->second->ledger);
}

}  // namespace service
}  // namespace dplearn
