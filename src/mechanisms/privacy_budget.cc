#include "mechanisms/privacy_budget.h"

#include <algorithm>
#include <cmath>

#include "obs/config.h"
#include "obs/event_sink.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"
#include "util/logging.h"

namespace dplearn {

Status ValidateBudget(const PrivacyBudget& budget) {
  if (!(budget.epsilon > 0.0)) {
    return InvalidArgumentError("PrivacyBudget: epsilon must be positive");
  }
  if (!(budget.delta >= 0.0 && budget.delta < 1.0)) {
    return InvalidArgumentError("PrivacyBudget: delta must be in [0,1)");
  }
  return Status::Ok();
}

StatusOr<PrivacyBudget> SequentialComposition(const std::vector<PrivacyBudget>& budgets) {
  if (budgets.empty()) {
    return InvalidArgumentError("SequentialComposition: empty budget list");
  }
  // Compensated sums: composing many small per-query budgets must not
  // drift the reported total guarantee.
  KahanSum epsilon;
  KahanSum delta;
  for (const PrivacyBudget& b : budgets) {
    DPLEARN_RETURN_IF_ERROR(ValidateBudget(b));
    epsilon.Add(b.epsilon);
    delta.Add(b.delta);
  }
  return PrivacyBudget{epsilon.Value(), delta.Value()};
}

StatusOr<PrivacyBudget> AdvancedComposition(const PrivacyBudget& per_mechanism,
                                            std::size_t k, double delta_prime) {
  DPLEARN_RETURN_IF_ERROR(ValidateBudget(per_mechanism));
  if (k == 0) return InvalidArgumentError("AdvancedComposition: k must be positive");
  if (!(delta_prime > 0.0) || delta_prime >= 1.0) {
    return InvalidArgumentError("AdvancedComposition: delta_prime must be in (0,1)");
  }
  const double eps = per_mechanism.epsilon;
  const double kd = static_cast<double>(k);
  PrivacyBudget total;
  total.epsilon = eps * std::sqrt(2.0 * kd * std::log(1.0 / delta_prime)) +
                  kd * eps * std::expm1(eps);
  total.delta = kd * per_mechanism.delta + delta_prime;
  return total;
}

bool WithinBudget(const PrivacyBudget& spent, const PrivacyBudget& cost,
                  const PrivacyBudget& total) {
  return !(spent.epsilon + cost.epsilon > total.epsilon ||
           spent.delta + cost.delta > total.delta + 1e-15);
}

PrivacyBudget RemainingBudget(const PrivacyBudget& total, const PrivacyBudget& spent) {
  return PrivacyBudget{std::max(0.0, total.epsilon - spent.epsilon),
                       std::max(0.0, total.delta - spent.delta)};
}

BudgetAuditEntry BudgetAuditLog::Spend(std::string_view mechanism, const PrivacyBudget& cost,
                                       const PrivacyBudget& total) {
  BudgetAuditEntry entry;
  entry.mechanism = std::string(mechanism);
  entry.cost = cost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry.sequence = entries_.size();
    entry.granted =
        WithinBudget(PrivacyBudget{spent_epsilon_.Value(), spent_delta_.Value()}, cost, total);
    if (entry.granted) {
      spent_epsilon_.Add(cost.epsilon);
      spent_delta_.Add(cost.delta);
    }
    entry.cumulative = PrivacyBudget{spent_epsilon_.Value(), spent_delta_.Value()};
    entries_.push_back(entry);
  }
  if (obs::HasGlobalSinks()) {
    obs::Event event;
    event.type = "audit";
    event.name = entry.mechanism;
    event.With("seq", obs::EventValue::Int(static_cast<std::int64_t>(entry.sequence)))
        .With("epsilon", obs::EventValue::Num(entry.cost.epsilon))
        .With("delta", obs::EventValue::Num(entry.cost.delta))
        .With("granted", obs::EventValue::Bool(entry.granted))
        .With("cum_epsilon", obs::EventValue::Num(entry.cumulative.epsilon))
        .With("cum_delta", obs::EventValue::Num(entry.cumulative.delta));
    obs::EmitEvent(event);
  }
  return entry;
}

PrivacyBudget BudgetAuditLog::spent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PrivacyBudget{spent_epsilon_.Value(), spent_delta_.Value()};
}

std::vector<BudgetAuditEntry> BudgetAuditLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

Status BudgetAuditLog::ReplayVerify() const {
  const std::vector<BudgetAuditEntry> entries = Entries();
  KahanSum epsilon;
  KahanSum delta;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BudgetAuditEntry& entry = entries[i];
    if (entry.sequence != i) {
      return InternalError("BudgetAuditLog: sequence gap at entry " + std::to_string(i));
    }
    if (entry.granted) {
      epsilon.Add(entry.cost.epsilon);
      delta.Add(entry.cost.delta);
    }
    if (!(entry.cumulative == PrivacyBudget{epsilon.Value(), delta.Value()})) {
      return InternalError("BudgetAuditLog: cumulative mismatch at entry " +
                           std::to_string(i) + " (mechanism '" + entry.mechanism + "')");
    }
  }
  return Status::Ok();
}

std::string BudgetAuditLog::ToJson() const {
  const std::vector<BudgetAuditEntry> entries = Entries();
  obs::JsonWriter w;
  w.BeginArray();
  for (const BudgetAuditEntry& entry : entries) {
    w.BeginObject();
    w.Key("seq").Value(entry.sequence);
    w.Key("mechanism").Value(entry.mechanism);
    w.Key("epsilon").Value(entry.cost.epsilon);
    w.Key("delta").Value(entry.cost.delta);
    w.Key("granted").Value(entry.granted);
    w.Key("cum_epsilon").Value(entry.cumulative.epsilon);
    w.Key("cum_delta").Value(entry.cumulative.delta);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

StatusOr<PrivacyAccountant> PrivacyAccountant::Create(PrivacyBudget total) {
  DPLEARN_RETURN_IF_ERROR(ValidateBudget(total));
  return PrivacyAccountant(total);
}

Status PrivacyAccountant::Spend(const PrivacyBudget& cost, std::string_view mechanism) {
  // The chaos hook fires before validation and mutation: an injected
  // accountant outage must leave the ledger exactly as it was.
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("budget.spend"));
  DPLEARN_RETURN_IF_ERROR(ValidateBudget(cost));
  const BudgetAuditEntry entry = ledger_->Spend(mechanism, cost, total_);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const granted_counter =
        obs::GlobalMetrics().GetCounter("accountant.spends_granted");
    static obs::Counter* const denied_counter =
        obs::GlobalMetrics().GetCounter("accountant.spends_denied");
    (entry.granted ? granted_counter : denied_counter)->Increment();
  }
  if (!entry.granted) {
    // A denied entry repeats the totals from before the spend.
    DPLEARN_LOG(WARN) << "PrivacyAccountant: denied spend of (" << cost.epsilon << ", "
                      << cost.delta << ") by '" << mechanism << "'; spent ("
                      << entry.cumulative.epsilon << ", " << entry.cumulative.delta
                      << ") of (" << total_.epsilon << ", " << total_.delta << ")";
    return FailedPreconditionError(kOverBudgetMessage);
  }
  return Status::Ok();
}

}  // namespace dplearn
