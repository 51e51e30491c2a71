#ifndef DPLEARN_OBS_TRACE_BUFFER_H_
#define DPLEARN_OBS_TRACE_BUFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dplearn {
namespace obs {

/// One closed span, as retained by the per-thread ring buffers. Timestamps
/// are microseconds since the process trace epoch (first use of the trace
/// clock), so records from different threads share one timeline.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;   // 0 = root
  std::uint32_t thread_index = 0;  // dense per-thread id, assigned on first record
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Trace recording keeps closed spans in a fixed-capacity ring buffer per
/// thread (16384 spans): recording is a single-producer append of relaxed
/// atomics — no lock, no allocation — so it stays off the release hot path,
/// and the newest `capacity` spans per thread survive for export. Recording
/// is off by default; it is enabled explicitly or implicitly by
/// DPLEARN_TRACE_FILE (see TelemetryReporter). Spans are only recorded
/// while TracingEnabled() is also on — the buffer consumes TraceSpan closes.
bool TraceBufferEnabled();
void SetTraceBufferEnabled(bool enabled);

/// Appends a record to the calling thread's ring (creating it on first
/// use). Called by ~TraceSpan; not intended for direct use.
void RecordSpan(const char* name, std::uint64_t span_id, std::uint64_t parent_id,
                double start_us, double dur_us);

/// Microseconds since the process trace epoch, the clock SpanRecord uses.
double TraceNowMicros();

struct TraceBufferStats {
  std::uint64_t recorded = 0;   // spans ever recorded (all generations)
  std::uint64_t retained = 0;   // spans currently collectable
  std::uint64_t threads = 0;    // rings created so far
  std::uint64_t capacity = 0;   // per-ring capacity
};
TraceBufferStats GetTraceBufferStats();

/// Snapshot of every thread's retained records, sorted by start time.
/// Readers run concurrently with producers: a producer that laps its ring
/// mid-read can tear a slot (fields from two records), so collection is
/// best-effort by design — records with non-positive duration or a stale
/// generation are dropped here, and the Chrome exporter re-nests whatever
/// remains. Sizing the ring above the burst rate makes tears vanishingly
/// rare; correctness-critical consumers use the event sinks instead.
std::vector<SpanRecord> CollectSpanRecords();

/// Invalidates all currently retained records (generation bump — cheap, no
/// synchronization with producers). Test isolation support.
void ClearTraceBuffers();

/// Chrome Trace Event Format JSON (chrome://tracing / Perfetto loadable):
/// {"displayTimeUnit":"ms","traceEvents":[...]} with thread-name metadata
/// ("M") events followed by matched "B"/"E" pairs per thread, timestamps
/// non-decreasing per thread and child intervals clamped inside their
/// stack parent. Span and parent ids ride in "args".
/// scripts/check_trace_json.py validates exactly this contract.
std::string ChromeTraceJson();

/// Writes ChromeTraceJson() to `path` atomically (tmp + rename).
/// UNAVAILABLE on I/O failure.
Status WriteChromeTrace(const std::string& path);

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_TRACE_BUFFER_H_
