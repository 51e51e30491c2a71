#include "obs/event_sink.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "robustness/failpoint.h"

namespace dplearn {
namespace obs {
namespace {

using robustness::ScopedFailPoint;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ObsEventTest, ToJsonLineSerializesTypedFields) {
  Event event{"verdict", "eps bound holds", {}};
  event.With("pass", EventValue::Bool(true))
      .With("epsilon", EventValue::Num(0.5))
      .With("trial", EventValue::Int(3))
      .With("note", EventValue::Str("tight \"bound\""));
  EXPECT_EQ(event.ToJsonLine(),
            "{\"type\":\"verdict\",\"name\":\"eps bound holds\",\"pass\":true,"
            "\"epsilon\":0.5,\"trial\":3,\"note\":\"tight \\\"bound\\\"\"}");
}

TEST(ObsInMemorySinkTest, BuffersAndClears) {
  InMemorySink sink;
  sink.Emit(Event{"span", "a", {}});
  sink.Emit(Event{"audit", "b", {}});
  EXPECT_EQ(sink.size(), 2u);
  std::vector<Event> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "span");
  EXPECT_EQ(events[1].name, "b");
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(ObsJsonlFileSinkTest, RoundTripsEventsThroughFile) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_test.jsonl";
  std::remove(path.c_str());
  {
    auto sink = JsonlFileSink::Open(path).value();
    Event first{"span", "gibbs.posterior", {}};
    first.With("us", EventValue::Num(12.5)).With("depth", EventValue::Int(1));
    sink->Emit(first);
    Event second{"verdict", "all good", {}};
    second.With("pass", EventValue::Bool(false));
    sink->Emit(second);
  }  // destructor closes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"type\":\"span\",\"name\":\"gibbs.posterior\",\"us\":12.5,\"depth\":1}");
  EXPECT_EQ(lines[1], "{\"type\":\"verdict\",\"name\":\"all good\",\"pass\":false}");
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, AppendsAcrossReopens) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_append.jsonl";
  std::remove(path.c_str());
  { JsonlFileSink::Open(path).value()->Emit(Event{"span", "first", {}}); }
  { JsonlFileSink::Open(path).value()->Emit(Event{"span", "second", {}}); }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("first"), std::string::npos);
  EXPECT_NE(lines[1].find("second"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, FlushMakesBufferedLinesVisible) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_flush.jsonl";
  std::remove(path.c_str());
  auto sink = JsonlFileSink::Open(path).value();
  sink->Emit(Event{"span", "buffered", {}});
  // One short line sits in the stdio buffer (the default flush threshold is
  // 32 events); a concurrent reader must not see it yet...
  EXPECT_EQ(ReadLines(path).size(), 0u);
  // ...until an explicit Flush pushes it to the OS.
  sink->Flush();
  ASSERT_EQ(ReadLines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, BatchFlushFiresAtThreshold) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_batch.jsonl";
  std::remove(path.c_str());
  auto sink = JsonlFileSink::Open(path).value();
  // The sink flushes every 32 events: 31 events stay buffered, the 32nd
  // triggers the batch flush.
  for (int i = 0; i < 31; ++i) sink->Emit(Event{"span", "batch", {}});
  EXPECT_EQ(ReadLines(path).size(), 0u);
  sink->Emit(Event{"span", "batch", {}});
  EXPECT_EQ(ReadLines(path).size(), 32u);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, DestructorFlushesPendingLines) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_dtor.jsonl";
  std::remove(path.c_str());
  {
    auto sink = JsonlFileSink::Open(path).value();
    // Pinned regression: a partial batch (< flush threshold) must survive a
    // clean shutdown — these three lines used to be lost when the sink was
    // destroyed without an explicit flush.
    for (int i = 0; i < 3; ++i) sink->Emit(Event{"span", "pending", {}});
  }
  EXPECT_EQ(ReadLines(path).size(), 3u);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, FlushFaultIsCountedAndDataCarriesOver) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_flushfault.jsonl";
  std::remove(path.c_str());
  auto sink = JsonlFileSink::Open(path).value();
  sink->Emit(Event{"span", "carried", {}});
  {
    ScopedFailPoint fp("sink.flush", "always");
    sink->Flush();  // retries exhaust; must not throw and must not drop
    EXPECT_GE(sink->flush_failures(), 1u);
    EXPECT_EQ(sink->dropped_events(), 0u);
  }
  // Count-and-carry: once the fault clears, the buffered line flushes
  // intact — a flush outage delays durability, it never loses events.
  sink->Flush();
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("carried"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, TransientFlushFaultIsRetriedAway) {
  const std::string path = ::testing::TempDir() + "/obs_event_sink_flushretry.jsonl";
  std::remove(path.c_str());
  auto sink = JsonlFileSink::Open(path).value();
  sink->Emit(Event{"span", "retried", {}});
  {
    ScopedFailPoint fp("sink.flush", "first:1");
    sink->Flush();  // first attempt fails, in-call retry succeeds
    EXPECT_EQ(sink->flush_failures(), 0u);
  }
  EXPECT_EQ(ReadLines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(ObsJsonlFileSinkTest, OpenFailsOnUnwritablePath) {
  auto sink = JsonlFileSink::Open("/nonexistent-dir/x/y.jsonl");
  EXPECT_FALSE(sink.ok());
}

TEST(ObsGlobalSinkTest, FanOutDeliversToEveryRegisteredSink) {
  EXPECT_FALSE(HasGlobalSinks());
  EmitEvent(Event{"span", "dropped", {}});  // no-op without sinks

  InMemorySink a;
  InMemorySink b;
  AddGlobalSink(&a);
  EXPECT_TRUE(HasGlobalSinks());
  AddGlobalSink(&b);
  EmitEvent(Event{"audit", "shared", {}});
  RemoveGlobalSink(&a);
  EmitEvent(Event{"audit", "only b", {}});
  RemoveGlobalSink(&b);
  EXPECT_FALSE(HasGlobalSinks());

  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.Events()[0].name, "shared");
  EXPECT_EQ(b.Events()[1].name, "only b");
}

TEST(ObsGlobalSinkTest, ScopedGlobalSinkDeregistersOnUnwind) {
  // Pinned: a fault unwinding a scope that registered a stack-local sink
  // used to leave a dangling pointer in the global registry — the next
  // EmitEvent (e.g. GuardedMain's failure record) crashed.
  InMemorySink sink;
  ASSERT_FALSE(HasGlobalSinks());
  try {
    ScopedGlobalSink registration(&sink);
    EXPECT_TRUE(HasGlobalSinks());
    throw std::runtime_error("injected fault");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(HasGlobalSinks());
  EmitEvent(Event{"failure", "after unwind", {}});  // must not reach `sink`
  EXPECT_EQ(sink.size(), 0u);
}

TEST(ObsGlobalSinkTest, ScopedSinkPauseSuppressesDeliveryOnThisThread) {
  InMemorySink sink;
  AddGlobalSink(&sink);
  EmitEvent(Event{"span", "before", {}});
  {
    ScopedSinkPause pause;
    EXPECT_FALSE(HasGlobalSinks());
    EmitEvent(Event{"span", "paused", {}});
    {
      ScopedSinkPause nested;
      EmitEvent(Event{"span", "nested", {}});
    }
    EXPECT_FALSE(HasGlobalSinks());
  }
  EXPECT_TRUE(HasGlobalSinks());
  EmitEvent(Event{"span", "after", {}});
  RemoveGlobalSink(&sink);

  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.Events()[0].name, "before");
  EXPECT_EQ(sink.Events()[1].name, "after");
}

}  // namespace
}  // namespace obs
}  // namespace dplearn
