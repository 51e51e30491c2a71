#include "obs/trace.h"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace dplearn {
namespace obs {
namespace {

/// One open frame on a thread's span stack: a local TraceSpan, or a parent
/// adopted from another thread via ScopedTraceContext.
struct Frame {
  const char* name;
  std::uint64_t id;
  bool adopted;
};

thread_local std::vector<Frame> t_span_stack;

std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Span-close latency histogram, cached per thread keyed by the name
/// pointer: span names are string literals, so the address is a stable key
/// and the close path skips the string concatenation and registry lock
/// after a name's first close on each thread. Distinct literals with equal
/// text get separate cache entries but resolve to the same histogram.
Histogram* HistogramForSpan(const char* name) {
  thread_local std::vector<std::pair<const char*, Histogram*>> t_cache;
  for (const auto& entry : t_cache) {
    if (entry.first == name) return entry.second;
  }
  Histogram* histogram = GlobalMetrics().GetHistogram(std::string("span.") + name + ".us");
  t_cache.emplace_back(name, histogram);
  return histogram;
}

}  // namespace

TraceContext TraceContext::Capture() {
  TraceContext ctx;
  if (!TracingEnabled() || t_span_stack.empty()) return ctx;
  ctx.span_id = t_span_stack.back().id;
  ctx.name = t_span_stack.back().name;
  return ctx;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& context) {
  if (!TracingEnabled() || context.span_id == 0) return;
  t_span_stack.push_back(Frame{context.name, context.span_id, /*adopted=*/true});
  adopted_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (adopted_) t_span_stack.pop_back();
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!TracingEnabled()) return;
  active_ = true;
  span_id_ = NextSpanId();
  if (!t_span_stack.empty()) {
    parent_ = t_span_stack.back().name;
    parent_id_ = t_span_stack.back().id;
  }
  t_span_stack.push_back(Frame{name_, span_id_, /*adopted=*/false});
  start_trace_us_ = TraceBufferEnabled() ? TraceNowMicros() : -1.0;
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const double us = ElapsedMicros();
  t_span_stack.pop_back();
  const int depth = static_cast<int>(t_span_stack.size());
  if (start_trace_us_ >= 0.0 && TraceBufferEnabled()) {
    RecordSpan(name_, span_id_, parent_id_, start_trace_us_, us);
  }
  HistogramForSpan(name_)->Observe(us);
  if (HasGlobalSinks()) {
    Event event;
    event.type = "span";
    event.name = name_;
    event.With("us", EventValue::Num(us))
        .With("depth", EventValue::Int(depth))
        .With("span_id", EventValue::Int(static_cast<std::int64_t>(span_id_)))
        .With("parent_id", EventValue::Int(static_cast<std::int64_t>(parent_id_)));
    if (parent_ != nullptr) event.With("parent", EventValue::Str(parent_));
    EmitEvent(event);
  }
}

double TraceSpan::ElapsedMicros() const {
  if (!active_) return 0.0;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

int TraceSpan::CurrentDepth() { return static_cast<int>(t_span_stack.size()); }

const char* TraceSpan::CurrentName() {
  return t_span_stack.empty() ? nullptr : t_span_stack.back().name;
}

}  // namespace obs
}  // namespace dplearn
