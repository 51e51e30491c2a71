// Concurrency suite for the telemetry v2 pieces — run under TSan by
// scripts/run_tier1.sh (the suite name starts with "Obs" so the TSan ctest
// regex picks it up). These tests are about the absence of data races and
// the determinism of shutdown, not about statistical properties.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "obs/config.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry_reporter.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"

namespace dplearn {
namespace obs {
namespace {

class ObsTelemetryConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracing_was_enabled_ = TracingEnabled();
    buffer_was_enabled_ = TraceBufferEnabled();
  }
  void TearDown() override {
    SetTracingEnabled(tracing_was_enabled_);
    SetTraceBufferEnabled(buffer_was_enabled_);
  }

 private:
  bool tracing_was_enabled_ = false;
  bool buffer_was_enabled_ = false;
};

TEST_F(ObsTelemetryConcurrencyTest, RingBufferProducersRaceReadersCleanly) {
  SetTracingEnabled(true);
  SetTraceBufferEnabled(true);
  ClearTraceBuffers();

  constexpr int kProducers = 4;
  constexpr int kSpansPerProducer = 2000;
  std::atomic<bool> stop_reading{false};

  std::thread reader([&stop_reading] {
    std::size_t total_seen = 0;
    while (!stop_reading.load(std::memory_order_relaxed)) {
      const std::vector<SpanRecord> records = CollectSpanRecords();
      total_seen += records.size();
      for (const SpanRecord& r : records) {
        ASSERT_NE(r.name, nullptr);
        ASSERT_GE(r.dur_us, 0.0);
      }
      (void)GetTraceBufferStats();
    }
    EXPECT_GE(total_seen, 0u);
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([] {
      for (int i = 0; i < kSpansPerProducer; ++i) {
        TraceSpan span("telemetry_concurrency.producer");
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_reading.store(true, std::memory_order_relaxed);
  reader.join();

  const TraceBufferStats stats = GetTraceBufferStats();
  EXPECT_GE(stats.recorded, static_cast<std::uint64_t>(kProducers) *
                                static_cast<std::uint64_t>(kSpansPerProducer));
  EXPECT_GE(stats.threads, static_cast<std::uint64_t>(kProducers));
  ClearTraceBuffers();
}

TEST_F(ObsTelemetryConcurrencyTest, ClearRacesProducersCleanly) {
  SetTracingEnabled(true);
  SetTraceBufferEnabled(true);
  std::atomic<bool> stop{false};
  std::thread clearer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) ClearTraceBuffers();
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([] {
      for (int i = 0; i < 2000; ++i) TraceSpan span("telemetry_concurrency.clear_race");
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  ClearTraceBuffers();
}

TEST_F(ObsTelemetryConcurrencyTest, HdrHistogramConcurrentRecordsAreLossless) {
  HdrHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const HdrHistogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads * kPerThread));
  // The median of 1..N must land within the documented 1/64 relative error.
  const double expected_median = kThreads * kPerThread / 2.0;
  EXPECT_NEAR(snap.Quantile(0.5), expected_median, expected_median / 32.0);
}

TEST_F(ObsTelemetryConcurrencyTest, RegistryHistogramConcurrentObserve) {
  Histogram* histogram = GlobalMetrics().GetHistogram("telemetry_concurrency.histogram.us");
  histogram->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram->Observe(static_cast<double>(i + 1));
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = histogram->GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.Min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.Max(), static_cast<double>(kPerThread));
}

TEST_F(ObsTelemetryConcurrencyTest, ReporterFlushThreadRacesMetricUpdatesCleanly) {
  const std::string path =
      ::testing::TempDir() + "obs_telemetry_concurrency_metrics.prom";
  std::remove(path.c_str());

  TelemetryReporter::Options options;
  options.metrics_path = path;
  options.interval_ms = 10;
  TelemetryReporter reporter(options);
  reporter.Start();
  EXPECT_TRUE(reporter.running());

  Counter* counter = GlobalMetrics().GetCounter("telemetry_concurrency.flushed");
  Histogram* histogram = GlobalMetrics().GetHistogram("telemetry_concurrency.flushed.us");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([counter, histogram] {
      for (int i = 0; i < 5000; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // Deterministic shutdown: Stop() joins the flush thread and performs one
  // final flush, so after it returns the file reflects every update above.
  reporter.Stop();
  EXPECT_FALSE(reporter.running());
  EXPECT_GE(reporter.flush_count(), 1u);

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) content.append(buf, n);
  std::fclose(file);
  EXPECT_NE(content.find("dplearn_telemetry_concurrency_flushed_total"),
            std::string::npos);
  EXPECT_NE(content.find("quantile=\"0.99\""), std::string::npos);

  // Stop is idempotent.
  reporter.Stop();
  std::remove(path.c_str());
}

TEST_F(ObsTelemetryConcurrencyTest, ReporterStopWithoutStartStillFlushes) {
  const std::string path =
      ::testing::TempDir() + "obs_telemetry_concurrency_nostart.prom";
  std::remove(path.c_str());
  TelemetryReporter::Options options;
  options.metrics_path = path;
  {
    TelemetryReporter reporter(options);
    reporter.Stop();  // never started; final-flush contract still holds
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace dplearn
