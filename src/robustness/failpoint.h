#ifndef DPLEARN_ROBUSTNESS_FAILPOINT_H_
#define DPLEARN_ROBUSTNESS_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dplearn {
namespace robustness {

/// Scoped fault injection for chaos testing (DESIGN.md §9).
///
/// A *fail point* is a named hook compiled into a production code path — the
/// RNG, the DP mechanisms, the privacy accountant, the thread pool, the JSONL
/// event sink. When the registry has no configuration (the default), every
/// hook costs one relaxed atomic load and is never taken. When a fail point
/// is armed — via the DPLEARN_FAILPOINTS environment variable or a
/// ScopedFailPoint in a test — the hook fires according to its trigger spec
/// and the surrounding code must degrade gracefully: return a typed
/// util::Status error, retry, or drop-and-count. The CI `failpoint-chaos`
/// job runs the smoke experiments under representative configurations and
/// asserts that sweeps complete with structured failure records instead of
/// crashing.
///
/// Registered fail points (see DESIGN.md §9 for the authoritative table):
///   rng.degenerate    Rng::NextUint64 returns 0 (degenerate bits)
///   mechanism.sample  Laplace/Gaussian/exponential/geometric/RR/noisy-max
///                     releases fail with an injected UNAVAILABLE error
///   budget.spend      PrivacyAccountant::Spend fails before mutating state
///   pool.task         a ThreadPool task throws before running its body
///   sink.write        a JsonlFileSink write attempt fails (retried, then
///                     dropped and counted)
///   record.write      the experiment harness's results/<id>.json open fails
///   service.accept    DpReleaseServer rejects a freshly accepted connection
///                     with one structured UNAVAILABLE frame, then closes it
///   service.dispatch  DpReleaseServer fails a request at dispatch, before
///                     admission control — a structured UNAVAILABLE response
///                     with no budget or ledger mutation
///
/// Trigger spec grammar (the value in `name=value`):
///   always     fire on every hit
///   off        never fire (but still count hits)
///   prob:P     fire pseudo-randomly with probability P in [0,1]; the
///              decision is a deterministic hash of (name, hit index), so
///              a given configuration fires on the same hit indices in
///              every run
///   every:N    fire on every N-th hit (hits N, 2N, 3N, ...)
///   after:N    fire on every hit after the first N
///   first:N    fire on the first N hits only
///
/// DPLEARN_FAILPOINTS holds a ';'- or ','-separated list of `name=spec`
/// entries (bare `name` means `always`), e.g.
///   DPLEARN_FAILPOINTS='sink.write=prob:0.3;mechanism.sample=every:97'
struct FailPointSpec {
  enum class Trigger {
    kAlways,
    kOff,
    kProbability,
    kEveryN,
    kAfterN,
    kFirstN,
  };

  Trigger trigger = Trigger::kAlways;
  double probability = 1.0;   // kProbability only
  std::uint64_t n = 1;        // kEveryN / kAfterN / kFirstN only

  /// Parses the spec grammar above. Error on unknown trigger names,
  /// probabilities outside [0,1], or N == 0.
  static StatusOr<FailPointSpec> Parse(const std::string& text);
};

/// Counters for one fail point, snapshot via FailPointRegistry::Stats.
struct FailPointStats {
  std::string name;
  std::uint64_t hits = 0;   // times the hook was evaluated while armed
  std::uint64_t fires = 0;  // times it actually fired
};

/// The process-wide registry of armed fail points. Thread-safe. Hot paths
/// call the free functions below (ShouldFail / Inject), which skip the
/// registry entirely while it is empty.
class FailPointRegistry {
 public:
  /// The singleton instrumented code consults. On first access the registry
  /// arms itself from DPLEARN_FAILPOINTS (malformed entries are reported on
  /// stderr and skipped, so a typo cannot silently disable chaos coverage).
  static FailPointRegistry& Global();

  /// Parses `config` ("name=spec;name2=spec2") and arms every entry.
  /// Returns the first parse error (already-parsed entries stay armed).
  Status Configure(const std::string& config);

  /// Arms (or re-arms) `name` with `spec`, resetting its counters.
  void Set(const std::string& name, const FailPointSpec& spec);

  /// Disarms `name`. Unknown names are a no-op.
  void Clear(const std::string& name);

  /// Disarms everything (used by test fixtures).
  void ClearAll();

  /// Evaluates the fail point: false when `name` is not armed; otherwise
  /// counts the hit and applies the trigger.
  bool ShouldFail(const char* name);

  /// Counter snapshots for every armed fail point, sorted by name.
  std::vector<FailPointStats> Stats() const;

  /// The armed configuration re-rendered as "name=spec;..." (empty when
  /// nothing is armed) — recorded into experiment JSON for provenance.
  std::string ConfigString() const;

 private:
  FailPointRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// True when at least one fail point is armed. Single relaxed atomic load;
/// this is the only cost production paths pay when chaos testing is off.
bool FailPointsEnabled();

/// Evaluates the named fail point: false whenever the registry is empty.
inline bool ShouldFail(const char* name) {
  return FailPointsEnabled() && FailPointRegistry::Global().ShouldFail(name);
}

/// Returns OK normally and an injected-fault UNAVAILABLE error when the
/// named fail point fires — the one-liner for Status-returning code paths:
///   DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));
Status Inject(const char* name);

/// True when `status` was produced by Inject (as opposed to a real failure
/// of the same code path). The experiment harness records injected faults
/// as structured failure records and continues; real errors still abort.
bool IsInjectedFault(const Status& status);

/// Message-prefix variant for hooks that cannot return Status (e.g. the
/// thread-pool `pool.task` hook throws std::runtime_error): true when
/// `message` carries the Inject marker prefix.
bool IsInjectedFaultMessage(const char* message);

/// RAII fail-point activation for tests: arms `name` with `spec` on
/// construction and restores the previous state (armed spec or disarmed) on
/// destruction. Specs use the same grammar as DPLEARN_FAILPOINTS values.
class ScopedFailPoint {
 public:
  ScopedFailPoint(const std::string& name, const std::string& spec);
  ScopedFailPoint(const std::string& name, const FailPointSpec& spec);
  ~ScopedFailPoint();

  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
  bool had_previous_ = false;
  FailPointSpec previous_;
};

}  // namespace robustness
}  // namespace dplearn

#endif  // DPLEARN_ROBUSTNESS_FAILPOINT_H_
