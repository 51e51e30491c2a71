#ifndef DPLEARN_MECHANISMS_PRIVACY_BUDGET_H_
#define DPLEARN_MECHANISMS_PRIVACY_BUDGET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/math_util.h"
#include "util/status.h"

namespace dplearn {

/// An (epsilon, delta) differential-privacy guarantee. delta == 0 is pure
/// epsilon-DP (Definition 2.1 of the paper); the Gaussian mechanism needs
/// delta > 0.
struct PrivacyBudget {
  double epsilon = 0.0;
  double delta = 0.0;

  friend bool operator==(const PrivacyBudget& a, const PrivacyBudget& b) {
    return a.epsilon == b.epsilon && a.delta == b.delta;
  }
};

/// Validates epsilon > 0 and delta in [0, 1); NaN fails both.
Status ValidateBudget(const PrivacyBudget& budget);

/// Basic sequential composition: running mechanisms M_1...M_k on the SAME
/// data yields (sum eps_i, sum delta_i)-DP. Error if the list is empty or
/// any budget is invalid.
StatusOr<PrivacyBudget> SequentialComposition(const std::vector<PrivacyBudget>& budgets);

/// Advanced composition (Dwork–Rothblum–Vadhan): k runs of an
/// (eps, delta)-DP mechanism are, for any delta_prime > 0,
///   ( eps*sqrt(2k ln(1/delta')) + k*eps*(e^eps - 1),  k*delta + delta' )-DP
/// — asymptotically sqrt(k) rather than k. Error on invalid arguments.
StatusOr<PrivacyBudget> AdvancedComposition(const PrivacyBudget& per_mechanism,
                                            std::size_t k, double delta_prime);

/// The grant test of every budget ledger (PrivacyAccountant and the release
/// service's per-tenant ledger): true iff `spent` + `cost` stays within
/// `total` under basic sequential composition, with 1e-15 of slack on delta.
bool WithinBudget(const PrivacyBudget& spent, const PrivacyBudget& cost,
                  const PrivacyBudget& total);

/// `total` - `spent`, clamped at zero per component.
PrivacyBudget RemainingBudget(const PrivacyBudget& total, const PrivacyBudget& spent);

/// The message of an over-budget denial, shared by every ledger; the release
/// service sends it to clients in RESOURCE_EXHAUSTED responses.
inline constexpr char kOverBudgetMessage[] =
    "PrivacyAccountant: spend would exceed total budget";

/// One entry of a budget ledger: a spend of `cost` by `mechanism`, granted
/// or denied.
struct BudgetAuditEntry {
  std::uint64_t sequence = 0;  // monotone, starts at 0 per ledger
  std::string mechanism;       // e.g. "accountant", "laplace", "gibbs"
  PrivacyBudget cost;          // requested spend
  bool granted = false;
  /// Running totals over all GRANTED entries up to and including this one —
  /// basic sequential composition. A denied entry repeats the previous
  /// totals.
  PrivacyBudget cumulative;
};

/// A budget's ledger: a thread-safe, append-only list of its spends, whose
/// Kahan-compensated running totals are the budget's only stored spent
/// (ε, δ). PrivacyAccountant and every tenant of the release service
/// (service::ShardedPrivacyAccountant) keep their spends in one. The class
/// both records and verifies: ReplayVerify() re-runs sequential composition
/// over the granted entries, so a consumer of an exported ledger can
/// independently confirm its arithmetic.
class BudgetAuditLog {
 public:
  /// The one append path. Appends a spend of `cost` by `mechanism`, granted
  /// iff WithinBudget(spent(), cost, total), evaluated under the same lock
  /// as the append; a denied spend is appended too and leaves the totals
  /// unchanged. Emits an "audit" event to the global sinks when any are
  /// attached. Returns the entry.
  BudgetAuditEntry Spend(std::string_view mechanism, const PrivacyBudget& cost,
                         const PrivacyBudget& total);

  /// Totals over the granted entries so far, both read under one lock.
  PrivacyBudget spent() const;

  std::vector<BudgetAuditEntry> Entries() const;

  /// Replays the ledger: sequence numbers must be 0..n-1 and every entry's
  /// stored cumulative totals must equal the running sequential-composition
  /// sums of the granted spends. Spend and the replay add in the same
  /// Kahan-compensated order, so they agree bitwise and the check is ==,
  /// even over millions of small spends. Returns InternalError naming the
  /// first inconsistent entry otherwise.
  Status ReplayVerify() const;

  /// The ledger as a JSON array (one object per entry, schema as in
  /// DESIGN.md §7).
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<BudgetAuditEntry> entries_;
  KahanSum spent_epsilon_;
  KahanSum spent_delta_;
};

/// A mutable privacy accountant: tracks cumulative (eps, delta) spent under
/// basic sequential composition against a fixed total budget, refusing
/// spends that would exceed it. This is the object a deployment wraps
/// around a stream of queries. Move-only: it owns its ledger.
class PrivacyAccountant {
 public:
  /// Error if `total` is invalid.
  static StatusOr<PrivacyAccountant> Create(PrivacyBudget total);

  /// Records a spend of `cost`. Error (and no change to the totals) if the
  /// spend is invalid or would exceed the total budget. Every structurally
  /// valid spend — granted or denied-over-budget — is appended to
  /// audit_log() under `mechanism`; invalid budgets are rejected before
  /// reaching the ledger.
  ///
  /// Accumulation is Kahan-compensated, so millions of small spends do not
  /// drift the ledger: the running total stays within one ulp of the exact
  /// sum. Chaos hook: fail point `budget.spend` fails the call (UNAVAILABLE)
  /// before any state or ledger mutation.
  Status Spend(const PrivacyBudget& cost, std::string_view mechanism);
  Status Spend(const PrivacyBudget& cost) { return Spend(cost, "accountant"); }

  /// The ledger of every structurally valid spend, in order.
  const BudgetAuditLog& audit_log() const { return *ledger_; }

  PrivacyBudget spent() const { return ledger_->spent(); }
  PrivacyBudget total() const { return total_; }

 private:
  explicit PrivacyAccountant(PrivacyBudget total)
      : total_(total), ledger_(std::make_unique<BudgetAuditLog>()) {}

  PrivacyBudget total_;
  /// Behind a pointer because the ledger's mutex cannot move.
  std::unique_ptr<BudgetAuditLog> ledger_;
};

}  // namespace dplearn

#endif  // DPLEARN_MECHANISMS_PRIVACY_BUDGET_H_
