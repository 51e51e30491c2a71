#include "obs/telemetry_reporter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace dplearn {
namespace obs {

TelemetryReporter::TelemetryReporter(Options options) : options_(std::move(options)) {
  options_.interval_ms = std::max(options_.interval_ms, 10);
}

TelemetryReporter::~TelemetryReporter() { Stop(); }

void TelemetryReporter::Start() {
  if (options_.metrics_path.empty() && options_.trace_path.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread(&TelemetryReporter::FlushLoop, this);
}

void TelemetryReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      // Never started (or already stopped): still honor the final-flush
      // contract so callers can rely on files being current after Stop().
      if (!stop_requested_) {
        stop_requested_ = true;
        (void)FlushNow();
      }
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  (void)FlushNow();
}

Status TelemetryReporter::FlushNow() {
  Status first = Status::Ok();
  if (!options_.metrics_path.empty()) {
    const Status s = WriteExpositionFile(GlobalMetrics(), options_.metrics_path);
    if (!s.ok() && first.ok()) first = s;
  }
  if (!options_.trace_path.empty()) {
    const Status s = WriteChromeTrace(options_.trace_path);
    if (!s.ok() && first.ok()) first = s;
  }
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  if (!first.ok() && MetricsEnabled()) {
    static Counter* const failures =
        GlobalMetrics().GetCounter("telemetry.flush_failures");
    failures->Increment();
  }
  return first;
}

std::uint64_t TelemetryReporter::flush_count() const {
  return flush_count_.load(std::memory_order_relaxed);
}

bool TelemetryReporter::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void TelemetryReporter::FlushLoop() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    // Flush outside the lock so a slow disk never blocks Stop()'s request.
    lock.unlock();
    (void)FlushNow();
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
  }
}

TelemetryReporter& GlobalTelemetryReporter() {
  static TelemetryReporter* reporter = [] {
    const auto env_str = [](const char* key) -> std::string {
      const char* v = std::getenv(key);
      return (v != nullptr && *v != '\0') ? std::string(v) : std::string();
    };
    TelemetryReporter::Options options;
    options.metrics_path = env_str("DPLEARN_METRICS_FILE");
    options.trace_path = env_str("DPLEARN_TRACE_FILE");
    if (!options.trace_path.empty()) {
      SetTracingEnabled(true);
      SetTraceBufferEnabled(true);
    }
    auto* r = new TelemetryReporter(std::move(options));  // never destroyed
    r->Start();
    return r;
  }();
  return *reporter;
}

void ShutdownGlobalTelemetry() { GlobalTelemetryReporter().Stop(); }

}  // namespace obs
}  // namespace dplearn
