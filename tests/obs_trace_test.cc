#include "obs/trace.h"

#include <algorithm>
#include <string>
#include <thread>

#include <gtest/gtest.h>
#include "obs/config.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace dplearn {
namespace obs {
namespace {

/// Tracing is process-global; force a known state per test and restore it.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = TracingEnabled();
    SetTracingEnabled(true);
  }
  void TearDown() override { SetTracingEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTraceTest, InactiveWhenTracingDisabled) {
  SetTracingEnabled(false);
  TraceSpan span("obs_trace_test.disabled");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);
  EXPECT_DOUBLE_EQ(span.ElapsedMicros(), 0.0);
}

TEST_F(ObsTraceTest, SpansNestOnThePerThreadStack) {
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);
  EXPECT_EQ(TraceSpan::CurrentName(), nullptr);
  {
    TraceSpan outer("obs_trace_test.outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(TraceSpan::CurrentDepth(), 1);
    EXPECT_STREQ(TraceSpan::CurrentName(), "obs_trace_test.outer");
    {
      TraceSpan inner("obs_trace_test.inner");
      EXPECT_EQ(TraceSpan::CurrentDepth(), 2);
      EXPECT_STREQ(TraceSpan::CurrentName(), "obs_trace_test.inner");
    }
    EXPECT_EQ(TraceSpan::CurrentDepth(), 1);
    EXPECT_STREQ(TraceSpan::CurrentName(), "obs_trace_test.outer");
  }
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);
}

TEST_F(ObsTraceTest, ClosedSpanFeedsDurationHistogram) {
  { TraceSpan span("obs_trace_test.timed"); }
  { TraceSpan span("obs_trace_test.timed"); }
  Histogram* histogram = GlobalMetrics().GetHistogram("span.obs_trace_test.timed.us");
  Histogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_GE(snapshot.sum, 0.0);
}

TEST_F(ObsTraceTest, ClosedSpanEmitsEventWithDepthAndParent) {
  InMemorySink sink;
  AddGlobalSink(&sink);
  {
    TraceSpan outer("obs_trace_test.event_outer");
    TraceSpan inner("obs_trace_test.event_inner");
  }
  RemoveGlobalSink(&sink);

  std::vector<Event> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);  // inner closes first
  EXPECT_EQ(events[0].type, "span");
  EXPECT_EQ(events[0].name, "obs_trace_test.event_inner");
  bool saw_parent = false;
  for (const auto& [key, value] : events[0].fields) {
    if (key == "parent") {
      saw_parent = true;
      EXPECT_EQ(value.string_value, "obs_trace_test.event_outer");
    }
  }
  EXPECT_TRUE(saw_parent);
  EXPECT_EQ(events[1].name, "obs_trace_test.event_outer");
}

TEST_F(ObsTraceTest, SpanIdsAreUniqueAndParentLinked) {
  TraceSpan outer("obs_trace_test.id_outer");
  ASSERT_NE(outer.span_id(), 0u);
  EXPECT_EQ(outer.parent_id(), 0u);  // root
  TraceSpan inner("obs_trace_test.id_inner");
  EXPECT_NE(inner.span_id(), 0u);
  EXPECT_NE(inner.span_id(), outer.span_id());
  EXPECT_EQ(inner.parent_id(), outer.span_id());
}

TEST_F(ObsTraceTest, InactiveSpanHasZeroIds) {
  SetTracingEnabled(false);
  TraceSpan span("obs_trace_test.id_disabled");
  EXPECT_EQ(span.span_id(), 0u);
  EXPECT_EQ(span.parent_id(), 0u);
}

TEST_F(ObsTraceTest, CaptureReturnsInnermostSpan) {
  EXPECT_EQ(TraceContext::Capture().span_id, 0u);  // empty stack
  TraceSpan outer("obs_trace_test.ctx_outer");
  const TraceContext ctx = TraceContext::Capture();
  EXPECT_EQ(ctx.span_id, outer.span_id());
  EXPECT_STREQ(ctx.name, "obs_trace_test.ctx_outer");
}

TEST_F(ObsTraceTest, CaptureIsEmptyWhenTracingDisabled) {
  TraceSpan outer("obs_trace_test.ctx_off_outer");
  SetTracingEnabled(false);
  EXPECT_EQ(TraceContext::Capture().span_id, 0u);
}

TEST_F(ObsTraceTest, AdoptedContextParentsSpansAcrossThreads) {
  TraceSpan outer("obs_trace_test.adopt_outer");
  const TraceContext ctx = TraceContext::Capture();

  std::uint64_t child_parent_id = 0;
  int depth_inside = -1;
  std::thread worker([&] {
    ScopedTraceContext adopt(ctx);
    EXPECT_TRUE(adopt.adopted());
    depth_inside = TraceSpan::CurrentDepth();
    TraceSpan child("obs_trace_test.adopt_child");
    child_parent_id = child.parent_id();
  });
  worker.join();

  EXPECT_EQ(depth_inside, 1);                      // the adopted frame
  EXPECT_EQ(child_parent_id, outer.span_id());     // cross-thread parentage
  EXPECT_EQ(TraceSpan::CurrentDepth(), 1);         // this thread unaffected
}

TEST_F(ObsTraceTest, AdoptingEmptyContextIsANoOp) {
  ScopedTraceContext adopt(TraceContext{});
  EXPECT_FALSE(adopt.adopted());
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);
}

TEST_F(ObsTraceTest, RingBufferRetainsClosedSpansWithIds) {
  const bool buffer_was_enabled = TraceBufferEnabled();
  SetTraceBufferEnabled(true);
  ClearTraceBuffers();

  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TraceSpan outer("obs_trace_test.ring_outer");
    outer_id = outer.span_id();
    TraceSpan inner("obs_trace_test.ring_inner");
    inner_id = inner.span_id();
  }
  const std::vector<SpanRecord> records = CollectSpanRecords();
  SetTraceBufferEnabled(buffer_was_enabled);

  const auto find = [&records](std::uint64_t id) {
    return std::find_if(records.begin(), records.end(),
                        [id](const SpanRecord& r) { return r.span_id == id; });
  };
  const auto outer_it = find(outer_id);
  const auto inner_it = find(inner_id);
  ASSERT_NE(outer_it, records.end());
  ASSERT_NE(inner_it, records.end());
  EXPECT_STREQ(inner_it->name, "obs_trace_test.ring_inner");
  EXPECT_EQ(inner_it->parent_id, outer_id);
  EXPECT_EQ(outer_it->parent_id, 0u);
  EXPECT_LE(outer_it->start_us, inner_it->start_us);
  EXPECT_GE(outer_it->dur_us, inner_it->dur_us);
}

TEST_F(ObsTraceTest, ClearInvalidatesRetainedRecords) {
  const bool buffer_was_enabled = TraceBufferEnabled();
  SetTraceBufferEnabled(true);
  ClearTraceBuffers();
  std::uint64_t id = 0;
  {
    TraceSpan span("obs_trace_test.ring_cleared");
    id = span.span_id();
  }
  ClearTraceBuffers();
  const std::vector<SpanRecord> records = CollectSpanRecords();
  SetTraceBufferEnabled(buffer_was_enabled);
  for (const SpanRecord& r : records) EXPECT_NE(r.span_id, id);
}

TEST_F(ObsTraceTest, ChromeTraceJsonHasMatchedPairsAndIds) {
  const bool buffer_was_enabled = TraceBufferEnabled();
  SetTraceBufferEnabled(true);
  ClearTraceBuffers();
  {
    TraceSpan outer("obs_trace_test.chrome_outer");
    TraceSpan inner("obs_trace_test.chrome_inner");
  }
  const std::string json = ChromeTraceJson();
  SetTraceBufferEnabled(buffer_was_enabled);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs_trace_test.chrome_outer"), std::string::npos);
  EXPECT_NE(json.find("obs_trace_test.chrome_inner"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\""), std::string::npos);
  // Every B has an E: equal counts of begin and end phase markers.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos;
       ++pos) {
    ++begins;
  }
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos;
       ++pos) {
    ++ends;
  }
  EXPECT_GE(begins, 2u);
  EXPECT_EQ(begins, ends);
}

TEST_F(ObsTraceTest, ElapsedMicrosIsMonotone) {
  TraceSpan span("obs_trace_test.elapsed");
  const double first = span.ElapsedMicros();
  std::string sink;
  for (int i = 0; i < 1000; ++i) sink += 'x';
  EXPECT_GE(span.ElapsedMicros(), first);
  EXPECT_GT(sink.size(), 0u);  // keep the busywork observable
}

}  // namespace
}  // namespace obs
}  // namespace dplearn
