#include "obs/event_sink.h"

#include <atomic>

#include "obs/config.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"
#include "robustness/retry.h"
#include "util/logging.h"

namespace dplearn {
namespace obs {

std::string Event::ToJsonLine() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").Value(type);
  w.Key("name").Value(name);
  for (const auto& [key, value] : fields) {
    w.Key(key);
    switch (value.kind) {
      case EventValue::Kind::kString: w.Value(value.string_value); break;
      case EventValue::Kind::kNumber: w.Value(value.number_value); break;
      case EventValue::Kind::kInt: w.Value(value.int_value); break;
      case EventValue::Kind::kBool: w.Value(value.bool_value); break;
    }
  }
  w.EndObject();
  return w.str();
}

void InMemorySink::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<Event> InMemorySink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t InMemorySink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void InMemorySink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

JsonlFileSink::JsonlFileSink(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

StatusOr<std::unique_ptr<JsonlFileSink>> JsonlFileSink::Open(const std::string& path) {
  std::FILE* file = nullptr;
  robustness::RetryPolicy retry;
  const Status status = retry.Run([&file, &path] {
    DPLEARN_RETURN_IF_ERROR(robustness::Inject("sink.open"));
    file = std::fopen(path.c_str(), "a");
    if (file == nullptr) {
      return UnavailableError("JsonlFileSink: cannot open '" + path + "'");
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return std::unique_ptr<JsonlFileSink>(new JsonlFileSink(file, path));
}

JsonlFileSink::~JsonlFileSink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    // Destructor flush: without it, up to kFlushEvery-1 buffered events
    // would be lost on fclose of a sink whose last batch never filled.
    if (pending_lines_ > 0) FlushWithRetryLocked();
    std::fclose(file_);
  }
}

Status JsonlFileSink::WriteLineLocked(const std::string& line) {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("sink.write"));
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF) {
    std::clearerr(file_);
    return UnavailableError("JsonlFileSink: write failed for '" + path_ + "'");
  }
  return Status::Ok();
}

Status JsonlFileSink::FlushLocked() {
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("sink.flush"));
  if (std::fflush(file_) != 0) {
    std::clearerr(file_);
    return UnavailableError("JsonlFileSink: flush failed for '" + path_ + "'");
  }
  return Status::Ok();
}

void JsonlFileSink::FlushWithRetryLocked() {
  robustness::RetryPolicy retry;
  const Status status = retry.Run([this] { return FlushLocked(); });
  if (status.ok()) {
    pending_lines_ = 0;
    return;
  }
  // Count-and-carry: the lines stay in the stdio buffer and ride along to
  // the next flush attempt — a transient flush outage delays durability, it
  // does not lose events.
  flush_failures_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    static Counter* const failures = GlobalMetrics().GetCounter("sink.flush_failures");
    failures->Increment();
  }
  DPLEARN_LOG(WARN) << "JsonlFileSink: flush failed after " << retry.last_attempts()
                    << " attempts: " << status;
}

void JsonlFileSink::Emit(const Event& event) {
  const std::string line = event.ToJsonLine();
  std::lock_guard<std::mutex> lock(mu_);
  robustness::RetryPolicy retry;
  const Status status =
      retry.Run([this, &line] { return WriteLineLocked(line); });
  if (!status.ok()) {
    // Drop-and-count: a dead sink must not take the pipeline down. A real
    // short write may have left a partial line; JSONL readers skip it, the
    // same way they skip the tail of a crashed process.
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    if (MetricsEnabled()) {
      static Counter* const dropped = GlobalMetrics().GetCounter("sink.dropped_events");
      dropped->Increment();
    }
    DPLEARN_LOG(WARN) << "JsonlFileSink: dropped event after " << retry.last_attempts()
                      << " attempts: " << status;
    return;
  }
  if (++pending_lines_ >= kFlushEvery) FlushWithRetryLocked();
}

void JsonlFileSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushWithRetryLocked();
}

namespace {

std::mutex& SinksMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<EventSink*>& Sinks() {
  static std::vector<EventSink*>* sinks = new std::vector<EventSink*>();
  return *sinks;
}

std::atomic<int>& SinkCount() {
  static std::atomic<int> count{0};
  return count;
}

thread_local int t_sink_pause_depth = 0;

}  // namespace

void AddGlobalSink(EventSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(SinksMutex());
  Sinks().push_back(sink);
  SinkCount().store(static_cast<int>(Sinks().size()), std::memory_order_relaxed);
}

void RemoveGlobalSink(EventSink* sink) {
  std::lock_guard<std::mutex> lock(SinksMutex());
  auto& sinks = Sinks();
  for (auto it = sinks.begin(); it != sinks.end(); ++it) {
    if (*it == sink) {
      sinks.erase(it);
      break;
    }
  }
  SinkCount().store(static_cast<int>(sinks.size()), std::memory_order_relaxed);
}

bool HasGlobalSinks() {
  if (t_sink_pause_depth > 0) return false;
  return SinkCount().load(std::memory_order_relaxed) > 0;
}

ScopedSinkPause::ScopedSinkPause() { ++t_sink_pause_depth; }

ScopedSinkPause::~ScopedSinkPause() { --t_sink_pause_depth; }

void EmitEvent(const Event& event) {
  if (!HasGlobalSinks()) return;
  // Copy the list so a sink emitting re-entrantly (or another thread
  // registering) cannot invalidate the iteration.
  std::vector<EventSink*> sinks;
  {
    std::lock_guard<std::mutex> lock(SinksMutex());
    sinks = Sinks();
  }
  for (EventSink* sink : sinks) sink->Emit(event);
}

}  // namespace obs
}  // namespace dplearn
