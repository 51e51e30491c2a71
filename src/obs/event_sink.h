#ifndef DPLEARN_OBS_EVENT_SINK_H_
#define DPLEARN_OBS_EVENT_SINK_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dplearn {
namespace obs {

/// A typed scalar for event fields, so sinks can serialize numbers as JSON
/// numbers rather than strings.
struct EventValue {
  enum class Kind { kString, kNumber, kInt, kBool };

  static EventValue Str(std::string v) {
    EventValue e;
    e.kind = Kind::kString;
    e.string_value = std::move(v);
    return e;
  }
  static EventValue Num(double v) {
    EventValue e;
    e.kind = Kind::kNumber;
    e.number_value = v;
    return e;
  }
  static EventValue Int(std::int64_t v) {
    EventValue e;
    e.kind = Kind::kInt;
    e.int_value = v;
    return e;
  }
  static EventValue Bool(bool v) {
    EventValue e;
    e.kind = Kind::kBool;
    e.bool_value = v;
    return e;
  }

  Kind kind = Kind::kString;
  std::string string_value;
  double number_value = 0.0;
  std::int64_t int_value = 0;
  bool bool_value = false;
};

/// One observability event: a verdict, a finished trace span, an audit-log
/// entry, a recorded scalar. `type` and `name` are always present; the rest
/// is free-form key/value fields.
struct Event {
  std::string type;
  std::string name;
  std::vector<std::pair<std::string, EventValue>> fields;

  Event& With(std::string key, EventValue value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// {"type":"verdict","name":"...","pass":true} — one line, no newline.
  std::string ToJsonLine() const;
};

/// Receives events from instrumented code. Implementations must be
/// thread-safe: Emit can be called concurrently.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Emit(const Event& event) = 0;
};

/// Buffers events in memory — the test double, and the experiment harness's
/// verdict ledger.
class InMemorySink final : public EventSink {
 public:
  void Emit(const Event& event) override;
  std::vector<Event> Events() const;
  std::size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Appends one JSON object per line (JSONL) to a file. Lines are written
/// atomically under a mutex into the stdio buffer and flushed to the OS
/// every kFlushEvery (32) events, on explicit Flush(), and in the
/// destructor — so a clean shutdown loses nothing and a crash loses at most
/// the last kFlushEvery-1 events, while the hot path skips the per-event
/// fflush syscall.
///
/// Writes are hardened: a failed write (a real I/O error, or the
/// `sink.write` fail point) is retried under a bounded-backoff RetryPolicy;
/// when retries are exhausted the event is dropped and counted
/// (dropped_events(), metric `sink.dropped_events`) instead of crashing or
/// blocking the experiment — observability must never take down the
/// pipeline it observes. Flushes are hardened the same way (`sink.flush`
/// fail point): a flush that still fails after retries is counted
/// (flush_failures(), metric `sink.flush_failures`) and the buffered lines
/// simply ride along to the next flush attempt rather than being lost.
class JsonlFileSink final : public EventSink {
 public:
  /// Opens `path` for appending (creating it if needed). The open itself is
  /// retried (fail point `sink.open`). Error if the file cannot be opened
  /// after retries.
  static StatusOr<std::unique_ptr<JsonlFileSink>> Open(const std::string& path);
  ~JsonlFileSink() override;

  void Emit(const Event& event) override;
  /// Retried flush of the stdio buffer; failure after retries is counted,
  /// never thrown.
  void Flush();
  const std::string& path() const { return path_; }

  /// Events abandoned after exhausting write retries.
  std::uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  /// Flushes abandoned after exhausting retries (buffered data persists and
  /// is retried on the next flush).
  std::uint64_t flush_failures() const {
    return flush_failures_.load(std::memory_order_relaxed);
  }

 private:
  JsonlFileSink(std::FILE* file, std::string path);

  /// One write attempt; UNAVAILABLE on injected or real write failure.
  /// Caller holds mu_.
  Status WriteLineLocked(const std::string& line);
  /// One flush attempt (fail point `sink.flush`); UNAVAILABLE on failure.
  /// Caller holds mu_.
  Status FlushLocked();
  /// Retried flush with failure accounting. Caller holds mu_.
  void FlushWithRetryLocked();

  std::mutex mu_;
  std::FILE* file_;
  std::string path_;
  static constexpr std::uint64_t kFlushEvery = 32;
  std::uint64_t pending_lines_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> dropped_events_{0};
  std::atomic<std::uint64_t> flush_failures_{0};
};

/// Global sink fan-out. Sinks are borrowed, not owned: the caller keeps the
/// sink alive until after RemoveGlobalSink returns. HasGlobalSinks() is a
/// relaxed atomic load, so instrumentation can skip event construction
/// entirely when nobody is listening.
void AddGlobalSink(EventSink* sink);
void RemoveGlobalSink(EventSink* sink);
bool HasGlobalSinks();
/// Delivers `event` to every registered sink (no-op when there are none).
void EmitEvent(const Event& event);

/// Registers `sink` for exactly the lifetime of the scope. Exception-safe:
/// a throw that unwinds the scope (e.g. an injected fault in a chaos run)
/// still deregisters, so the global registry can never hold a pointer to a
/// dead stack object.
class ScopedGlobalSink {
 public:
  explicit ScopedGlobalSink(EventSink* sink) : sink_(sink) { AddGlobalSink(sink_); }
  ~ScopedGlobalSink() { RemoveGlobalSink(sink_); }
  ScopedGlobalSink(const ScopedGlobalSink&) = delete;
  ScopedGlobalSink& operator=(const ScopedGlobalSink&) = delete;

 private:
  EventSink* sink_;
};

/// Suspends global-sink delivery on the current thread for a scope:
/// HasGlobalSinks()/EmitEvent() behave as if no sink were registered, so
/// instrumentation skips event construction entirely. Timing loops use it
/// to measure the metrics/tracing hot path without the event-stream
/// formatting cost.
/// Nestable; other threads are unaffected.
class ScopedSinkPause {
 public:
  ScopedSinkPause();
  ~ScopedSinkPause();
  ScopedSinkPause(const ScopedSinkPause&) = delete;
  ScopedSinkPause& operator=(const ScopedSinkPause&) = delete;
};

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_EVENT_SINK_H_
