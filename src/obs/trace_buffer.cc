#include "obs/trace_buffer.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace dplearn {
namespace obs {
namespace {

constexpr std::size_t kRingCapacity = 16384;  // spans per thread

std::atomic<bool>& EnabledFlag() {
  // Setting DPLEARN_TRACE_FILE implies "record spans": the reporter that
  // will export them switches tracing on the same way (telemetry_reporter).
  static std::atomic<bool> flag([] {
    const char* env = std::getenv("DPLEARN_TRACE_FILE");
    return env != nullptr && *env != '\0';
  }());
  return flag;
}

std::atomic<std::uint64_t>& Generation() {
  static std::atomic<std::uint64_t> generation{1};
  return generation;
}

/// One thread's span ring. The owning thread is the only producer; readers
/// (CollectSpanRecords, from any thread) see a consistent prefix through
/// the acquire-load of head_ and tolerate torn slots on producer wrap (all
/// slot fields are relaxed atomics, so a tear is a wrong value, never UB or
/// a TSan race).
class SpanRing {
 public:
  explicit SpanRing(std::uint32_t thread_index)
      : thread_index_(thread_index), slots_(new Slot[kRingCapacity]) {}

  void Push(const char* name, std::uint64_t span_id, std::uint64_t parent_id,
            double start_us, double dur_us) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head % kRingCapacity];
    slot.name.store(name, std::memory_order_relaxed);
    slot.span_id.store(span_id, std::memory_order_relaxed);
    slot.parent_id.store(parent_id, std::memory_order_relaxed);
    slot.start_us.store(start_us, std::memory_order_relaxed);
    slot.dur_us.store(dur_us, std::memory_order_relaxed);
    slot.generation.store(Generation().load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    head_.store(head + 1, std::memory_order_release);
  }

  void Collect(std::uint64_t generation, std::vector<SpanRecord>* out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kRingCapacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = slots_[i % kRingCapacity];
      if (slot.generation.load(std::memory_order_relaxed) != generation) continue;
      SpanRecord record;
      record.name = slot.name.load(std::memory_order_relaxed);
      record.span_id = slot.span_id.load(std::memory_order_relaxed);
      record.parent_id = slot.parent_id.load(std::memory_order_relaxed);
      record.thread_index = thread_index_;
      record.start_us = slot.start_us.load(std::memory_order_relaxed);
      record.dur_us = slot.dur_us.load(std::memory_order_relaxed);
      if (record.name == nullptr || !(record.dur_us >= 0.0) ||
          !(record.start_us >= 0.0)) {
        continue;  // torn or never-written slot
      }
      out->push_back(record);
    }
  }

  std::uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  std::uint32_t thread_index() const { return thread_index_; }

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> parent_id{0};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<double> start_us{-1.0};
    std::atomic<double> dur_us{-1.0};
  };

  const std::uint32_t thread_index_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

/// All rings ever created, leaked intentionally: records must survive their
/// producer thread (pool workers are joined — or leaked — at process exit,
/// and the exporter runs from an atexit hook).
std::vector<SpanRing*>& Rings() {
  static std::vector<SpanRing*>* rings = new std::vector<SpanRing*>();
  return *rings;
}

SpanRing* ThisThreadRing() {
  thread_local SpanRing* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    ring = new SpanRing(static_cast<std::uint32_t>(Rings().size()));
    Rings().push_back(ring);
  }
  return ring;
}

}  // namespace

bool TraceBufferEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetTraceBufferEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

double TraceNowMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

void RecordSpan(const char* name, std::uint64_t span_id, std::uint64_t parent_id,
                double start_us, double dur_us) {
  ThisThreadRing()->Push(name, span_id, parent_id, start_us, dur_us);
}

TraceBufferStats GetTraceBufferStats() {
  TraceBufferStats stats;
  stats.capacity = kRingCapacity;
  std::vector<SpanRing*> rings;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    rings = Rings();
  }
  stats.threads = rings.size();
  const std::uint64_t generation = Generation().load(std::memory_order_relaxed);
  std::vector<SpanRecord> scratch;
  for (const SpanRing* ring : rings) {
    stats.recorded += ring->recorded();
    scratch.clear();
    ring->Collect(generation, &scratch);
    stats.retained += scratch.size();
  }
  return stats;
}

std::vector<SpanRecord> CollectSpanRecords() {
  std::vector<SpanRing*> rings;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    rings = Rings();
  }
  const std::uint64_t generation = Generation().load(std::memory_order_relaxed);
  std::vector<SpanRecord> records;
  for (const SpanRing* ring : rings) ring->Collect(generation, &records);
  std::sort(records.begin(), records.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;  // parents first
    return a.span_id < b.span_id;
  });
  return records;
}

void ClearTraceBuffers() {
  Generation().fetch_add(1, std::memory_order_relaxed);
}

std::string ChromeTraceJson() {
  const std::vector<SpanRecord> all = CollectSpanRecords();

  // Group per thread; `all` is globally start-sorted, so each per-thread
  // list stays sorted (parents before children by the dur tiebreak).
  std::uint32_t max_tid = 0;
  for (const SpanRecord& r : all) max_tid = std::max(max_tid, r.thread_index);
  std::vector<std::vector<SpanRecord>> by_thread(all.empty() ? 0 : max_tid + 1);
  for (const SpanRecord& r : all) by_thread[r.thread_index].push_back(r);

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();

  const auto emit_meta = [&w](std::uint32_t tid) {
    w.BeginObject();
    w.Key("name").Value("thread_name");
    w.Key("ph").Value("M");
    w.Key("pid").Value(std::uint64_t{1});
    w.Key("tid").Value(static_cast<std::uint64_t>(tid));
    w.Key("args").BeginObject();
    w.Key("name").Value(tid == 0 ? "dplearn/main" : "dplearn/worker");
    w.EndObject();
    w.EndObject();
  };
  const auto emit_span_event =
      [&w](char ph, const SpanRecord& r, double ts) {
        w.BeginObject();
        w.Key("name").Value(r.name);
        w.Key("cat").Value("span");
        w.Key("ph").Value(ph == 'B' ? "B" : "E");
        w.Key("ts").Value(ts);
        w.Key("pid").Value(std::uint64_t{1});
        w.Key("tid").Value(static_cast<std::uint64_t>(r.thread_index));
        w.Key("args").BeginObject();
        w.Key("span_id").Value(r.span_id);
        w.Key("parent_id").Value(r.parent_id);
        w.EndObject();
        w.EndObject();
      };

  for (std::uint32_t tid = 0; tid < by_thread.size(); ++tid) {
    const std::vector<SpanRecord>& records = by_thread[tid];
    if (records.empty()) continue;
    emit_meta(tid);
    // Stack-nest the (possibly torn, possibly clock-granular) intervals
    // into a well-formed B/E sequence: per thread, timestamps never
    // decrease and every B has a matching E with LIFO discipline.
    struct Open {
      SpanRecord record;
      double end_us;
    };
    std::vector<Open> stack;
    double last_ts = 0.0;
    for (const SpanRecord& r : records) {
      double start = std::max(r.start_us, last_ts);
      double end = r.start_us + std::max(r.dur_us, 0.0);
      while (!stack.empty() && stack.back().end_us <= start) {
        const double ts = std::max(stack.back().end_us, last_ts);
        emit_span_event('E', stack.back().record, ts);
        last_ts = ts;
        stack.pop_back();
      }
      if (!stack.empty()) end = std::min(end, stack.back().end_us);
      if (end < start) end = start;
      emit_span_event('B', r, start);
      last_ts = start;
      stack.push_back({r, end});
    }
    while (!stack.empty()) {
      const double ts = std::max(stack.back().end_us, last_ts);
      emit_span_event('E', stack.back().record, ts);
      last_ts = ts;
      stack.pop_back();
    }
  }

  w.EndArray();
  w.EndObject();
  return w.str();
}

Status WriteChromeTrace(const std::string& path) {
  return internal::WriteFileAtomically(path, ChromeTraceJson(), "WriteChromeTrace");
}

}  // namespace obs
}  // namespace dplearn
