#ifndef DPLEARN_OBS_TRACE_H_
#define DPLEARN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>

namespace dplearn {
namespace obs {

/// A capturable reference to the innermost open span of some thread — the
/// handle that keeps logical parentage intact when work hops across the
/// ThreadPool. Capture() on the submitting thread, ScopedTraceContext on
/// the worker:
///
///   TraceSpan outer("sweep.cell");
///   auto ctx = TraceContext::Capture();
///   pool->Submit([ctx] {
///     ScopedTraceContext adopt(ctx);
///     TraceSpan inner("trial");   // parent == "sweep.cell", across threads
///   });
///
/// ThreadPool::Submit does exactly this automatically when tracing is on,
/// so library code normally never touches TraceContext directly. span_id 0
/// means "no active span" (adopting it is a no-op). `name` follows
/// TraceSpan's lifetime rule: a string literal or otherwise outliving every
/// adopter.
struct TraceContext {
  std::uint64_t span_id = 0;
  const char* name = nullptr;

  /// The calling thread's innermost open span, or an empty context when the
  /// stack is empty or tracing is disabled.
  static TraceContext Capture();
};

/// Pushes an adopted parent frame for `context` onto this thread's span
/// stack (no-op for an empty context or with tracing disabled), so spans
/// opened in this scope report the capturing span as their parent — id and
/// name — exactly as if they had been opened on the capturing thread.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  bool adopted() const { return adopted_; }

 private:
  bool adopted_ = false;
};

/// RAII scoped tracer. When tracing is enabled (obs::TracingEnabled()) the
/// constructor assigns a process-unique span id, links the span to the
/// innermost open frame (a local span or an adopted TraceContext) and
/// pushes it onto the per-thread span stack; the destructor records the
/// elapsed wall time into the duration histogram `span.<name>.us` in
/// GlobalMetrics(), appends a record to this thread's trace ring buffer
/// when trace recording is on (obs/trace_buffer.h), and emits a "span"
/// event to the global sinks (if any) with the span's depth, parent name
/// and parent/span ids. When tracing is disabled the constructor is two
/// relaxed loads and the destructor a branch — cheap enough to leave in hot
/// paths unconditionally.
///
/// Spans nest lexically within a thread:
///
///   TraceSpan outer("gibbs.posterior");
///   {
///     TraceSpan inner("risk.profile");   // parent == "gibbs.posterior"
///   }
///
/// `name` must be a string literal (or otherwise outlive the span and any
/// export of its records); spans store the pointer, not a copy.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// False when tracing was disabled at construction.
  bool active() const { return active_; }
  /// Elapsed wall time so far; 0 when inactive.
  double ElapsedMicros() const;

  /// Process-unique id (monotone from 1); 0 when inactive.
  std::uint64_t span_id() const { return span_id_; }
  /// Id of the parent frame at construction — a span on this thread or an
  /// adopted TraceContext; 0 for a root span (or inactive).
  std::uint64_t parent_id() const { return parent_id_; }

  /// Depth of this thread's span stack (0 = no open span; adopted context
  /// frames count). For tests.
  static int CurrentDepth();
  /// Name of this thread's innermost open frame, or nullptr.
  static const char* CurrentName();

 private:
  const char* name_;
  const char* parent_ = nullptr;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  bool active_ = false;
  double start_trace_us_ = -1.0;  // trace-buffer timeline; <0 = not recording
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_TRACE_H_
