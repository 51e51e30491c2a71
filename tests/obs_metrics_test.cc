#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "obs/hdr_histogram.h"

namespace dplearn {
namespace obs {
namespace {

TEST(ObsCounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGaugeTest, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(ObsMetricsRegistryTest, CreateOnFirstUseReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);

  Gauge* g1 = registry.GetGauge("test.gauge");
  Gauge* g2 = registry.GetGauge("test.gauge");
  EXPECT_EQ(g1, g2);

  Histogram* h1 = registry.GetHistogram("test.histogram");
  Histogram* h2 = registry.GetHistogram("test.histogram");
  EXPECT_EQ(h1, h2);
}

TEST(ObsMetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.latency");
  // Every observation lands in the HDR bucket BucketIndex names: 0.5 in the
  // underflow bucket, 1.0 and 1.01 share the first sub-bucket of octave 0,
  // and 7.0 is recorded twice.
  const std::vector<double> values = {0.5, 1.0, 1.01, 1.5, 5.0, 7.0, 7.0};
  for (const double v : values) h->Observe(v);
  const Histogram::Snapshot snapshot = h->GetSnapshot();
  std::vector<std::uint64_t> expected(HdrHistogram::kBucketCount, 0);
  for (const double v : values) ++expected[HdrHistogram::BucketIndex(v)];
  EXPECT_EQ(snapshot.hdr.counts, expected);
  EXPECT_EQ(snapshot.hdr.counts[0], 1u);
  EXPECT_EQ(snapshot.hdr.counts[HdrHistogram::BucketIndex(1.0)], 2u);
  EXPECT_EQ(snapshot.hdr.counts[HdrHistogram::BucketIndex(7.0)], 2u);
  EXPECT_EQ(snapshot.count, 7u);
  EXPECT_EQ(snapshot.sum, 0.5 + 1.0 + 1.01 + 1.5 + 5.0 + 7.0 + 7.0);
  EXPECT_EQ(snapshot.Min(), 0.5);
  EXPECT_EQ(snapshot.Max(), 7.0);
}

TEST(ObsMetricsRegistryTest, SnapshotAndResetAll) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Gauge* g = registry.GetGauge("test.gauge");
  Histogram* h = registry.GetHistogram("test.histogram");
  c->Increment(7);
  g->Set(3.25);
  h->Observe(0.5);

  MetricsRegistry::Snapshot snapshot = registry.GetSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "test.counter");
  EXPECT_EQ(snapshot.counters[0].second, 7u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 3.25);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1u);

  registry.ResetAll();
  // Cached handles survive a reset; values are zeroed.
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->GetSnapshot().count, 0u);
}

TEST(ObsMetricsRegistryTest, ExportFormats) {
  MetricsRegistry registry;
  registry.GetCounter("test.counter")->Increment(3);
  registry.GetGauge("test.gauge")->Set(0.5);
  registry.GetHistogram("test.histogram")->Observe(2.0);

  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"test.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":2"), std::string::npos);
}

TEST(ObsMetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  Gauge* gauge = registry.GetGauge("test.concurrent_gauge");
  Histogram* histogram = registry.GetHistogram("test.concurrent_histogram");

  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, gauge, histogram] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Observe(1.0);
        // Concurrent registration of the same name must return the shared
        // instance, not race on creation.
        registry.GetCounter("test.concurrent")->Increment(0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread;
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(expected));
  Histogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_EQ(snapshot.count, expected);
  EXPECT_EQ(snapshot.hdr.counts[HdrHistogram::BucketIndex(1.0)], expected);
  EXPECT_EQ(snapshot.sum, static_cast<double>(expected));
}

TEST(ObsHdrHistogramTest, BucketEdgesBoundRelativeError) {
  // Underflow: sub-1, negative, and non-finite values all land in bucket 0.
  EXPECT_EQ(HdrHistogram::BucketIndex(0.5), 0u);
  EXPECT_EQ(HdrHistogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(HdrHistogram::BucketIndex(std::numeric_limits<double>::quiet_NaN()), 0u);
  // In-range values: the containing bucket's upper edge is >= the value and
  // within the documented 1/64 relative width.
  for (const double v : {1.0, 1.5, 7.25, 100.0, 4096.0, 1.0e6, 3.7e9}) {
    const std::size_t index = HdrHistogram::BucketIndex(v);
    ASSERT_LT(index, HdrHistogram::kBucketCount);
    const double edge = HdrHistogram::BucketUpperEdge(index);
    EXPECT_GE(edge, v);
    EXPECT_LE(edge, v * (1.0 + 1.0 / 64.0) * (1.0 + 1e-12));
  }
}

TEST(ObsHdrHistogramTest, QuantilesWithinDocumentedError) {
  HdrHistogram histogram;
  constexpr int kN = 100000;
  for (int i = 1; i <= kN; ++i) histogram.Record(static_cast<double>(i));
  const HdrHistogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kN));
  EXPECT_DOUBLE_EQ(snap.min, 1.0);  // extrema are exact, not bucketed
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kN));
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), static_cast<double>(kN));
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = q * kN;
    EXPECT_NEAR(snap.Quantile(q), exact, exact / 32.0) << "q=" << q;
  }
  for (int d = 1; d < 10; ++d) {
    EXPECT_LE(snap.Quantile(0.1 * d), snap.Quantile(0.1 * (d + 1))) << "decile " << d;
  }
}

TEST(ObsHdrHistogramTest, SnapshotQuantilesAreBitwiseStable) {
  HdrHistogram histogram;
  for (int i = 1; i <= 5000; ++i) histogram.Record(static_cast<double>(i % 997 + 1));
  const HdrHistogram::Snapshot a = histogram.GetSnapshot();
  const HdrHistogram::Snapshot b = histogram.GetSnapshot();
  // Equal counts -> bit-identical quantiles, independent of when the
  // snapshot was taken ("bitwise-stable snapshot order").
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q));
  }
}

TEST(ObsMetricsRegistryTest, HistogramSnapshotExposesHdrQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.quantiles.us");
  for (int i = 1; i <= 1000; ++i) h->Observe(static_cast<double>(i));
  const Histogram::Snapshot snap = h->GetSnapshot();
  EXPECT_DOUBLE_EQ(snap.Min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.Max(), 1000.0);
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 500.0 / 32.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 990.0 / 32.0);
  // The count is the HDR layer's: every observation, once.
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.hdr.count, snap.count);
}

TEST(ObsExpositionTest, WriteExpositionRendersAllFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("test.releases")->Increment(3);
  registry.GetGauge("test.acceptance_rate")->Set(0.25);
  registry.GetGauge("tenant.acme-01.epsilon_remaining")->Set(0.75);
  Histogram* h = registry.GetHistogram("test.release.us");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));

  const std::string out = registry.WriteExposition();
  EXPECT_NE(out.find("# TYPE dplearn_test_releases_total counter"), std::string::npos);
  EXPECT_NE(out.find("dplearn_test_releases_total 3"), std::string::npos);
  EXPECT_NE(out.find("# TYPE dplearn_test_acceptance_rate gauge"), std::string::npos);
  EXPECT_NE(out.find("dplearn_test_acceptance_rate 0.25"), std::string::npos);
  // Tenant gauges become one label family, not one family per tenant.
  EXPECT_NE(out.find("# TYPE dplearn_tenant_epsilon_remaining gauge"),
            std::string::npos);
  EXPECT_NE(out.find("dplearn_tenant_epsilon_remaining{tenant=\"acme-01\"} 0.75"),
            std::string::npos);
  // Histograms export as summaries with the four pinned quantiles.
  EXPECT_NE(out.find("# TYPE dplearn_test_release_us summary"), std::string::npos);
  for (const char* label : {"0.5", "0.9", "0.99", "0.999"}) {
    EXPECT_NE(out.find("dplearn_test_release_us{quantile=\"" + std::string(label) +
                       "\"} "),
              std::string::npos);
  }
  EXPECT_NE(out.find("dplearn_test_release_us_sum 5050"), std::string::npos);
  EXPECT_NE(out.find("dplearn_test_release_us_count 100"), std::string::npos);
}

TEST(ObsExpositionTest, WriteExpositionFileIsAtomicAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("test.file.counter")->Increment(7);
  const std::string path = ::testing::TempDir() + "obs_metrics_exposition.prom";
  std::remove(path.c_str());

  ASSERT_TRUE(WriteExpositionFile(registry, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, registry.WriteExposition());
  // The tmp staging file must not linger after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  EXPECT_FALSE(WriteExpositionFile(registry, "/nonexistent-dir/x/y.prom").ok());
  std::remove(path.c_str());
}

// Every latency histogram buckets by the HDR layer; its upper edges must
// increase strictly, or Quantile's cumulative walk would misreport.
TEST(ObsDefaultLatencyBucketsTest, StrictlyIncreasing) {
  for (std::size_t i = 1; i < HdrHistogram::kBucketCount; ++i) {
    ASSERT_LT(HdrHistogram::BucketUpperEdge(i - 1), HdrHistogram::BucketUpperEdge(i))
        << "bucket " << i;
  }
}

}  // namespace
}  // namespace obs
}  // namespace dplearn
