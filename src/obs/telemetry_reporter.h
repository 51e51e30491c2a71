#ifndef DPLEARN_OBS_TELEMETRY_REPORTER_H_
#define DPLEARN_OBS_TELEMETRY_REPORTER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace dplearn {
namespace obs {

/// Periodically exports telemetry to files a scraper (or a human) can pick
/// up without attaching to the process:
///
///   metrics_path -> Prometheus text exposition of GlobalMetrics()
///                   (MetricsRegistry::WriteExposition, atomic tmp+rename)
///   trace_path   -> Chrome Trace Event JSON of the span ring buffers
///                   (obs/trace_buffer.h, atomic tmp+rename)
///
/// A background flush thread rewrites the configured files every
/// interval_ms. Shutdown is deterministic: Stop() (idempotent, also run by
/// the destructor) wakes the thread via a condition variable, joins it, and
/// performs one final synchronous flush — so after Stop() returns, the
/// files on disk reflect every metric update and retained span that
/// happened before the call. No sleeping-thread races, no partially
/// written files (flushes go through tmp+rename).
///
/// The process-wide instance (GlobalTelemetryReporter) flushes every
/// second and is configured from the environment:
///
///   DPLEARN_METRICS_FILE  exposition path (enables metrics flush)
///   DPLEARN_TRACE_FILE    Chrome trace path (also switches tracing AND
///                         span recording on)
///
/// The experiment harness starts the global reporter in PrintHeader() and
/// shuts it down in its exit hook, so `DPLEARN_TRACE_FILE=t.json ./exp_*`
/// is all it takes to get a Perfetto-loadable trace.
class TelemetryReporter {
 public:
  struct Options {
    std::string metrics_path;  // empty = no exposition flush
    std::string trace_path;    // empty = no trace export
    int interval_ms = 1000;    // periodic flush cadence (clamped to >= 10)
  };

  explicit TelemetryReporter(Options options);
  ~TelemetryReporter();

  TelemetryReporter(const TelemetryReporter&) = delete;
  TelemetryReporter& operator=(const TelemetryReporter&) = delete;

  /// Starts the periodic flush thread. No-op when already running or when
  /// neither path is configured.
  void Start();

  /// Stops the flush thread (if running) and performs one final flush.
  /// Idempotent; safe to call without Start().
  void Stop();

  /// Writes both configured files synchronously. Returns the first error
  /// (flushing continues past a failed file); OK when nothing is
  /// configured. Failures also bump the `telemetry.flush_failures` counter.
  Status FlushNow();

  /// Completed FlushNow() calls (periodic + explicit + final).
  std::uint64_t flush_count() const;

  bool running() const;
  const Options& options() const { return options_; }

 private:
  void FlushLoop();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;      // guarded by mu_
  bool stop_requested_ = false;  // guarded by mu_
  std::atomic<std::uint64_t> flush_count_{0};
};

/// The env-configured process-wide reporter (leaked singleton). First call
/// reads the DPLEARN_* variables, enables tracing + span recording when
/// DPLEARN_TRACE_FILE is set, and starts the flush thread if any path is
/// configured.
TelemetryReporter& GlobalTelemetryReporter();

/// Stops the global reporter and flushes its files one last time.
/// Idempotent; the experiment harness calls this from its exit hook.
void ShutdownGlobalTelemetry();

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_TELEMETRY_REPORTER_H_
