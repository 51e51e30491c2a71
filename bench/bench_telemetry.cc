/// Telemetry-subsystem microbenchmarks: the headline pair —
/// BM_GibbsSampleTelemetryOff vs BM_GibbsSampleTelemetryOn run the SAME
/// Gibbs posterior sampling workload with all telemetry (metrics, tracing,
/// span ring buffers) disabled and fully armed. ISSUE budget: the armed run
/// costs <3% over the dark one; scripts/check_bench_json.py gates the
/// merged snapshot on exactly that ratio (scripts/run_bench.sh passes
/// --overhead-pair). The rest are component micro-costs: HDR record, span
/// open/close into the ring, tenant spend, and the two export paths.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>
#include "bench/bench_common.h"
#include "core/gibbs_estimator.h"
#include "learning/loss.h"
#include "mechanisms/privacy_budget.h"
#include "obs/config.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "sampling/rng.h"
#include "service/sharded_accountant.h"

namespace dplearn {
namespace {

/// Saves the three telemetry switches, forces them to `on`, restores on
/// destruction — so a benchmark's setting never leaks into the next one.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on)
      : metrics_(obs::MetricsEnabled()),
        tracing_(obs::TracingEnabled()),
        buffer_(obs::TraceBufferEnabled()) {
    obs::SetMetricsEnabled(on);
    obs::SetTracingEnabled(on);
    obs::SetTraceBufferEnabled(on);
  }
  ~ScopedTelemetry() {
    obs::SetMetricsEnabled(metrics_);
    obs::SetTracingEnabled(tracing_);
    obs::SetTraceBufferEnabled(buffer_);
  }

 private:
  bool metrics_;
  bool tracing_;
  bool buffer_;
};

/// The shared workload for the overhead pair: one SampleBatch of 64
/// posterior draws under a traced span — the shape exp_gibbs_privacy and
/// the DP verifier run in production, including the span the release path
/// opens.
void RunGibbsSampleWorkload(benchmark::State& state, bool telemetry_on) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 10.0).value();
  Dataset data = bench::MakeBernoulliData(1000, 6);
  Rng rng(14);
  std::vector<std::size_t> out;

  ScopedTelemetry telemetry(telemetry_on);
  for (auto _ : state) {
    obs::TraceSpan span("bench.gibbs_sample");
    const Status status = gibbs.SampleBatch(data, &rng, 64, &out);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}

void BM_GibbsSampleTelemetryOff(benchmark::State& state) {
  RunGibbsSampleWorkload(state, false);
}
BENCHMARK(BM_GibbsSampleTelemetryOff);

void BM_GibbsSampleTelemetryOn(benchmark::State& state) {
  RunGibbsSampleWorkload(state, true);
}
BENCHMARK(BM_GibbsSampleTelemetryOn);

void BM_HdrHistogramRecord(benchmark::State& state) {
  obs::HdrHistogram histogram;
  double value = 1.0;
  for (auto _ : state) {
    histogram.Record(value);
    value = value < 1.0e6 ? value * 1.001 : 1.0;
  }
  benchmark::DoNotOptimize(histogram.GetSnapshot().count);
}
BENCHMARK(BM_HdrHistogramRecord);

/// Full span lifecycle with recording armed: id assignment, stack push/pop,
/// ring append, duration histogram. This is the marginal cost every traced
/// call site pays when DPLEARN_TRACE_FILE is set.
void BM_TraceSpanRecorded(benchmark::State& state) {
  ScopedTelemetry telemetry(true);
  obs::ClearTraceBuffers();
  for (auto _ : state) {
    obs::TraceSpan span("bench.span_recorded");
    benchmark::DoNotOptimize(span.span_id());
  }
  obs::ClearTraceBuffers();
}
BENCHMARK(BM_TraceSpanRecorded);

/// One granted tenant spend through the path the release server runs:
/// shard lock and ledger append. The tenant stays far below its
/// near-exhaustion line, so, like every healthy tenant's spend, it stores no
/// gauges. The ledger is recycled every 64k iterations so the per-tenant
/// ledger cannot grow without bound across a long benchmark run; the
/// amortized re-registration cost is in the noise.
void BM_TenantSpendGranted(benchmark::State& state) {
  ScopedTelemetry telemetry(true);
  constexpr std::uint64_t kRecycleEvery = 1 << 16;
  const service::ShardedPrivacyAccountant::Options options;
  auto tenants = std::make_unique<service::ShardedPrivacyAccountant>(options);
  (void)tenants->RegisterTenant("bench_tenant", PrivacyBudget{1.0e18, 0.0});
  std::uint64_t spends = 0;
  for (auto _ : state) {
    if (++spends % kRecycleEvery == 0) {
      tenants = std::make_unique<service::ShardedPrivacyAccountant>(options);
      (void)tenants->RegisterTenant("bench_tenant", PrivacyBudget{1.0e18, 0.0});
    }
    const Status status =
        tenants->SpendOrReject("bench_tenant", PrivacyBudget{1.0e-6, 0.0}, "bench");
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_TenantSpendGranted);

/// Chrome-trace export over a ring holding `range(0)` retained spans — the
/// cost of one periodic TelemetryReporter trace flush.
void BM_ChromeTraceExport(benchmark::State& state) {
  ScopedTelemetry telemetry(true);
  obs::ClearTraceBuffers();
  const int spans = static_cast<int>(state.range(0));
  for (int i = 0; i < spans; ++i) {
    obs::TraceSpan span("bench.export_fill");
  }
  for (auto _ : state) {
    const std::string json = obs::ChromeTraceJson();
    benchmark::DoNotOptimize(json.size());
  }
  obs::ClearTraceBuffers();
}
BENCHMARK(BM_ChromeTraceExport)->Arg(1024)->Arg(8192);

/// Prometheus exposition render of the whole global registry — the cost of
/// one periodic TelemetryReporter metrics flush.
void BM_WriteExposition(benchmark::State& state) {
  ScopedTelemetry telemetry(true);
  for (auto _ : state) {
    const std::string text = obs::GlobalMetrics().WriteExposition();
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_WriteExposition);

}  // namespace
}  // namespace dplearn

BENCHMARK_MAIN();
