#ifndef DPLEARN_BENCH_EXPERIMENT_UTIL_H_
#define DPLEARN_BENCH_EXPERIMENT_UTIL_H_

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.h"
#include "obs/event_sink.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/telemetry_reporter.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"
#include "perf/risk_profile_cache.h"
#include "robustness/failpoint.h"
#include "robustness/retry.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {
namespace bench {

/// Shared helpers for the experiment binaries. Each binary prints one or
/// more paper-style console tables (EXPERIMENTS.md records the expected
/// shapes) AND emits one machine-readable JSON record per run:
///
///   results/<slug>.json         — the experiment record: id, claim,
///                                 per-section wall times, verdicts, named
///                                 scalars, and a metrics snapshot.
///   results/<slug>.events.jsonl — the live event stream (verdicts, ledger
///                                 entries, trace spans) as JSONL.
///
/// The output directory is `results/` under the current working directory;
/// override with DPLEARN_RESULTS_DIR, or set it to the empty string to
/// disable file output entirely. PrintHeader() turns on metrics and
/// tracing so the record is complete; the record is written by
/// an atexit hook so straight-line experiment code needs no teardown call.

inline bool SmokeMode();  // defined below; used by the record writer

/// Thrown (and caught by GuardCell / GuardedMain) when Unwrap or Check sees
/// a Status produced by robustness::Inject — an injected chaos fault, not a
/// real bug. Real errors still abort: the distinction is what lets the
/// failpoint-chaos CI job assert "sweeps complete with failure records"
/// while genuine failures keep failing loudly.
class FaultInjectedError : public std::runtime_error {
 public:
  FaultInjectedError(std::string what_arg, Status status)
      : std::runtime_error(what_arg + ": " + status.ToString()),
        context_(std::move(what_arg)),
        status_(std::move(status)) {}

  const std::string& context() const { return context_; }
  const Status& status() const { return status_; }

 private:
  std::string context_;
  Status status_;
};

namespace internal {

struct SectionRecord {
  std::string title;
  double seconds = 0.0;
};

struct VerdictRecord {
  std::string claim;
  bool pass = false;
};

struct ScalarRecord {
  std::string name;
  double value = 0.0;
};

/// One grid cell (or whole section) abandoned because a fail point fired.
struct FailureRecord {
  std::string cell;     // caller-supplied label, e.g. "parta:n=30,eps=0.10"
  std::string context;  // the Unwrap/Check site that saw the fault
  std::string status;   // the injected Status, rendered
};

struct ExperimentState {
  bool initialized = false;
  std::string id;
  std::string claim;
  std::string slug;
  std::string results_dir;
  bool seed_recorded = false;
  std::uint64_t seed = 0;
  std::int64_t started_unix_ms = 0;
  std::chrono::steady_clock::time_point start;
  bool section_open = false;
  std::string current_section;
  std::chrono::steady_clock::time_point section_start;
  std::vector<SectionRecord> sections;
  std::vector<VerdictRecord> verdicts;
  std::vector<ScalarRecord> scalars;
  std::vector<FailureRecord> failures;
  std::unique_ptr<obs::JsonlFileSink> event_sink;
};

inline ExperimentState& State() {
  static ExperimentState state;
  return state;
}

/// "E5 (Theorem 4.1)" -> "e5-theorem-4-1": lowercase alphanumerics with
/// runs of anything else collapsed to single dashes.
inline std::string Slugify(const std::string& id) {
  std::string slug;
  bool pending_dash = false;
  for (const char c : id) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_dash && !slug.empty()) slug += '-';
      pending_dash = false;
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      pending_dash = true;
    }
  }
  return slug.empty() ? "experiment" : slug;
}

inline std::string ResultsDir() {
  const char* env = std::getenv("DPLEARN_RESULTS_DIR");
  if (env == nullptr) return "results";
  return env;  // "" disables output
}

/// --trials=N override parsed by ParseFlags; 0 means "not set".
inline std::size_t& TrialsOverride() {
  static std::size_t value = 0;
  return value;
}

/// --seed=N override parsed by ParseFlags (DPLEARN_SEED is the env
/// equivalent; the flag wins). Resolved by BaseSeed().
inline bool& SeedOverrideSet() {
  static bool value = false;
  return value;
}

inline std::uint64_t& SeedOverride() {
  static std::uint64_t value = 0;
  return value;
}

/// --smoke parsed by ParseFlags (DPLEARN_SMOKE=1 is the env equivalent).
inline bool& SmokeFlag() {
  static bool value = false;
  return value;
}

inline void CloseSection() {
  ExperimentState& state = State();
  if (!state.section_open) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - state.section_start)
          .count();
  state.sections.push_back({state.current_section, seconds});
  state.section_open = false;
}

/// atexit hook: finalizes sections and writes results/<slug>.json.
inline void WriteRecord() {
  ExperimentState& state = State();
  if (!state.initialized) return;
  CloseSection();
  if (state.event_sink != nullptr) {
    obs::RemoveGlobalSink(state.event_sink.get());
    state.event_sink->Flush();
  }
  // Deterministic telemetry shutdown: stop the periodic flush thread and
  // write DPLEARN_METRICS_FILE / DPLEARN_TRACE_FILE one final time, so the
  // on-disk exposition and Chrome trace cover the whole run.
  obs::ShutdownGlobalTelemetry();
  if (state.results_dir.empty()) return;

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - state.start).count();
  bool all_pass = true;
  for (const VerdictRecord& v : state.verdicts) all_pass = all_pass && v.pass;

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("experiment_id").Value(state.id);
  w.Key("claim").Value(state.claim);
  w.Key("started_unix_ms").Value(static_cast<std::int64_t>(state.started_unix_ms));
  w.Key("wall_time_seconds").Value(wall_seconds);
  // Parallel-engine provenance: scalars/verdicts are thread-count invariant
  // by the src/parallel determinism contract, but section wall times are
  // not — CI's speedup assertions divide timings across records with
  // different "threads" values.
  w.Key("threads").Value(static_cast<std::uint64_t>(parallel::DefaultThreadCount()));
  w.Key("smoke").Value(SmokeMode());
  // Replay provenance: the master RNG seed the run resolved via BaseSeed()
  // (absent when the binary has not adopted seed plumbing yet). Re-running
  // with --seed=<this value> reproduces every scalar bit for bit.
  if (state.seed_recorded) w.Key("seed").Value(state.seed);
  // Chaos provenance: the armed fail-point configuration (empty string when
  // none) and every cell abandoned to an injected fault. A record with
  // failures and all_pass=true means the sweep degraded gracefully — the
  // failpoint-chaos CI job asserts exactly this shape.
  w.Key("failpoints").Value(robustness::FailPointRegistry::Global().ConfigString());
  w.Key("failures").BeginArray();
  for (const FailureRecord& f : state.failures) {
    w.BeginObject()
        .Key("cell").Value(f.cell)
        .Key("context").Value(f.context)
        .Key("status").Value(f.status)
        .EndObject();
  }
  w.EndArray();
  w.Key("failure_count").Value(static_cast<std::uint64_t>(state.failures.size()));
  w.Key("sections").BeginArray();
  for (const SectionRecord& s : state.sections) {
    w.BeginObject().Key("title").Value(s.title).Key("seconds").Value(s.seconds).EndObject();
  }
  w.EndArray();
  w.Key("verdicts").BeginArray();
  for (const VerdictRecord& v : state.verdicts) {
    w.BeginObject().Key("claim").Value(v.claim).Key("pass").Value(v.pass).EndObject();
  }
  w.EndArray();
  w.Key("all_pass").Value(all_pass);
  w.Key("scalars").BeginObject();
  for (const ScalarRecord& s : state.scalars) w.Key(s.name).Value(s.value);
  w.EndObject();
  // Hot-path provenance: how much of the sweep's risk-profile work the
  // process-wide cache absorbed (src/perf). A grid experiment whose hit
  // count stays 0 is re-deriving λ-invariant work and worth a look.
  {
    const perf::RiskProfileCache::Stats cache = perf::RiskProfileCache::Global().stats();
    w.Key("risk_cache").BeginObject();
    w.Key("enabled").Value(perf::RiskCacheEnabled());
    w.Key("hits").Value(static_cast<std::uint64_t>(cache.hits));
    w.Key("misses").Value(static_cast<std::uint64_t>(cache.misses));
    w.Key("evictions").Value(static_cast<std::uint64_t>(cache.evictions));
    w.EndObject();
  }
  w.Key("metrics").Raw(obs::GlobalMetrics().ExportJson());
  w.EndObject();

  // The record is the experiment's one durable artifact, so its write gets
  // the same retry treatment as the event sink (fail point: record.write).
  const std::string path = state.results_dir + "/" + state.slug + ".json";
  std::FILE* file = nullptr;
  robustness::RetryPolicy retry;
  const Status open_status = retry.Run([&file, &path] {
    DPLEARN_RETURN_IF_ERROR(robustness::Inject("record.write"));
    file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return UnavailableError("cannot open record file");
    }
    return Status::Ok();
  });
  if (!open_status.ok()) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 open_status.ToString().c_str());
    return;
  }
  std::fwrite(w.str().data(), 1, w.str().size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace internal

/// Fast mode for CI smoke runs: DPLEARN_SMOKE=1 (any non-"0" value) or the
/// --smoke flag switches every experiment to its reduced trial counts so
/// the whole suite finishes in minutes instead of hours.
inline bool SmokeMode() {
  static const bool env_smoke = [] {
    const char* env = std::getenv("DPLEARN_SMOKE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return env_smoke || internal::SmokeFlag();
}

/// The trial count an experiment loop should run: `full` normally, `smoke`
/// in SmokeMode(), or the explicit --trials=N override when one was given.
inline std::size_t TrialCount(std::size_t full, std::size_t smoke) {
  if (internal::TrialsOverride() > 0) return internal::TrialsOverride();
  return SmokeMode() ? smoke : full;
}

/// The master RNG seed an experiment should construct its Rng from: the
/// --seed=N flag when given, else the DPLEARN_SEED env var, else the
/// experiment's own hard-coded default. The resolved value is written into
/// the JSON record's "seed" field, so every record names the seed that
/// reproduces it. Experiments with several RNG sites should call this once
/// and derive the rest via Rng::Split() so one flag re-seeds the whole run.
inline std::uint64_t BaseSeed(std::uint64_t default_seed) {
  std::uint64_t resolved = default_seed;
  if (internal::SeedOverrideSet()) {
    resolved = internal::SeedOverride();
  } else {
    const char* env = std::getenv("DPLEARN_SEED");
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') resolved = static_cast<std::uint64_t>(parsed);
    }
  }
  internal::ExperimentState& state = internal::State();
  if (!state.seed_recorded) {  // first resolution wins, like PrintHeader
    state.seed_recorded = true;
    state.seed = resolved;
  }
  return resolved;
}

/// Parses the flags every experiment binary shares (--smoke, --trials=N,
/// --seed=N). Call at the top of main(); anything unrecognized aborts with
/// usage, so a typo cannot silently run the full-size experiment.
inline void ParseFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trials=", 9) == 0) {
      const long parsed = std::strtol(arg + 9, nullptr, 10);
      if (parsed <= 0) {
        std::fprintf(stderr, "%s: --trials expects a positive integer, got '%s'\n",
                     argv[0], arg + 9);
        std::exit(2);
      }
      internal::TrialsOverride() = static_cast<std::size_t>(parsed);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(arg + 7, &end, 10);
      if (end == arg + 7 || *end != '\0') {
        std::fprintf(stderr, "%s: --seed expects an unsigned integer, got '%s'\n",
                     argv[0], arg + 7);
        std::exit(2);
      }
      internal::SeedOverrideSet() = true;
      internal::SeedOverride() = static_cast<std::uint64_t>(parsed);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      internal::SmokeFlag() = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--trials=N] [--seed=N]\n", argv[0]);
      std::exit(2);
    }
  }
}

/// Maps `trials` Monte-Carlo trials over the global thread pool
/// (src/parallel): trial t consumes the t-th Split() of *rng and results
/// come back in trial order, so every number an experiment derives from the
/// returned vector is bit-identical at any DPLEARN_THREADS setting. The
/// body must not touch shared mutable state (obs counters/sinks are safe).
template <typename T, typename Body>
std::vector<T> RunTrials(std::size_t trials, Rng* rng, Body&& body) {
  parallel::ParallelTrialRunner runner;
  return runner.MapTrials<T>(trials, rng, std::forward<Body>(body));
}

inline void PrintHeader(const std::string& experiment_id, const std::string& claim) {
  std::printf("==============================================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), claim.c_str());
  std::printf("[threads=%zu%s]\n", parallel::DefaultThreadCount(),
              SmokeMode() ? ", smoke mode" : "");
  std::printf("==============================================================================\n");

  internal::ExperimentState& state = internal::State();
  if (state.initialized) return;  // one record per process; first header wins

  // Experiments always run fully observed: the JSON record must contain the
  // metrics and span timings regardless of ambient env defaults.
  obs::SetMetricsEnabled(true);
  obs::SetTracingEnabled(true);
  // Force construction of the global singletons BEFORE registering the
  // atexit hook, so the hook (run in reverse registration order) can still
  // read them.
  obs::GlobalMetrics();
  // Start the env-configured telemetry reporter (DPLEARN_METRICS_FILE /
  // DPLEARN_TRACE_FILE): a no-op when neither variable is set. The record
  // writer below shuts it down.
  obs::GlobalTelemetryReporter();

  state.initialized = true;
  state.id = experiment_id;
  state.claim = claim;
  state.slug = internal::Slugify(experiment_id);
  state.results_dir = internal::ResultsDir();
  state.started_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count();
  state.start = std::chrono::steady_clock::now();
  // Time before the first PrintSection is attributed to an implicit "main"
  // section so every experiment phase lands in the record.
  state.section_open = true;
  state.current_section = "main";
  state.section_start = state.start;

  if (!state.results_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(state.results_dir, ec);
    if (!ec) {
      auto sink =
          obs::JsonlFileSink::Open(state.results_dir + "/" + state.slug + ".events.jsonl");
      if (sink.ok()) {
        state.event_sink = std::move(sink).value();
        obs::AddGlobalSink(state.event_sink.get());
      } else {
        std::fprintf(stderr, "warning: %s\n", sink.status().ToString().c_str());
      }
    }
  }
  std::atexit(internal::WriteRecord);
}

inline void PrintSection(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
  internal::ExperimentState& state = internal::State();
  if (!state.initialized) return;
  internal::CloseSection();
  state.section_open = true;
  state.current_section = title;
  state.section_start = std::chrono::steady_clock::now();
}

/// Unwraps a StatusOr in experiment code. A *real* error aborts with a
/// message — experiments are straight-line programs, so it is a bug. An
/// *injected* fault (robustness::Inject) instead throws FaultInjectedError,
/// which GuardCell / GuardedMain convert into a structured failure record so
/// the sweep continues — the crash-vs-degrade distinction the chaos CI job
/// is built on.
template <typename T>
T Unwrap(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    if (robustness::IsInjectedFault(value.status())) {
      throw FaultInjectedError(what, value.status());
    }
    std::fprintf(stderr, "FATAL in %s: %s\n", what, value.status().ToString().c_str());
    std::abort();
  }
  return std::move(value).value();
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    if (robustness::IsInjectedFault(status)) {
      throw FaultInjectedError(what, status);
    }
    std::fprintf(stderr, "FATAL in %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

/// Appends a structured failure record (and a "failure" event on the sinks)
/// for a grid cell abandoned to an injected fault.
inline void RecordFailure(const std::string& cell, const std::string& context,
                          const Status& status) {
  internal::ExperimentState& state = internal::State();
  if (state.initialized) {
    state.failures.push_back({cell, context, status.ToString()});
  }
  if (obs::HasGlobalSinks()) {
    obs::Event event;
    event.type = "failure";
    event.name = cell;
    event.With("context", obs::EventValue::Str(context))
        .With("status", obs::EventValue::Str(status.ToString()));
    obs::EmitEvent(event);
  }
  std::printf("[FAULT] cell '%s' abandoned (%s: %s)\n", cell.c_str(), context.c_str(),
              status.ToString().c_str());
}

/// Runs one grid cell under fault isolation: returns true when `body`
/// completed, false when an injected fault (from any depth — mechanism
/// sample, accountant spend, a trial on the pool) unwound it, in which case
/// the failure is recorded and the caller moves to the next cell. Real
/// errors are not caught; they abort inside Unwrap/Check as before.
template <typename Body>
bool GuardCell(const std::string& cell, Body&& body) {
  try {
    body();
    return true;
  } catch (const FaultInjectedError& fault) {
    RecordFailure(cell, fault.context(), fault.status());
    return false;
  } catch (const std::runtime_error& error) {
    // The thread-pool `pool.task` hook cannot return Status, so it throws a
    // runtime_error carrying the injected-fault prefix; anything else is a
    // real bug and keeps propagating.
    if (!robustness::IsInjectedFaultMessage(error.what())) throw;
    RecordFailure(cell, "pool.task", UnavailableError(error.what()));
    return false;
  }
}

/// The shared main() wrapper: parses flags, runs the experiment, and turns
/// an injected fault that escapes every GuardCell into a final failure
/// record plus a clean exit — with fail points armed, a chaos run must end
/// with "record written, exit 0", never a crash. The atexit record writer
/// still runs on this path.
template <typename RunFn>
int GuardedMain(int argc, char** argv, RunFn&& run) {
  ParseFlags(argc, argv);
  try {
    run();
  } catch (const FaultInjectedError& fault) {
    RecordFailure("main", fault.context(), fault.status());
    std::printf("\nexperiment interrupted by injected fault; record still written\n");
  } catch (const std::runtime_error& error) {
    if (!robustness::IsInjectedFaultMessage(error.what())) throw;
    RecordFailure("main", "pool.task", UnavailableError(error.what()));
    std::printf("\nexperiment interrupted by injected fault; record still written\n");
  }
  return 0;
}

/// Prints PASS/FAIL with a claim description; experiments end with a
/// summary of these verdicts. The single bool drives the console line, the
/// JSON record, AND the "verdict" event on the sink, so the three can never
/// disagree.
inline bool Verdict(bool ok, const std::string& claim) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  internal::ExperimentState& state = internal::State();
  if (state.initialized) state.verdicts.push_back({claim, ok});
  if (obs::HasGlobalSinks()) {
    obs::Event event;
    event.type = "verdict";
    event.name = claim;
    event.With("pass", obs::EventValue::Bool(ok));
    if (state.initialized) event.With("experiment_id", obs::EventValue::Str(state.id));
    obs::EmitEvent(event);
  }
  return ok;
}

/// Records a named scalar into the JSON record's "scalars" object (and the
/// event stream) — the experiment's key numbers, machine-readable.
inline void RecordScalar(const std::string& name, double value) {
  internal::ExperimentState& state = internal::State();
  if (state.initialized) state.scalars.push_back({name, value});
  if (obs::HasGlobalSinks()) {
    obs::Event event;
    event.type = "scalar";
    event.name = name;
    event.With("value", obs::EventValue::Num(value));
    obs::EmitEvent(event);
  }
}

}  // namespace bench
}  // namespace dplearn

#endif  // DPLEARN_BENCH_EXPERIMENT_UTIL_H_
