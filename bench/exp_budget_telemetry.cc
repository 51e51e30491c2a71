/// E-TEL (telemetry v2) — the per-tenant ε-budget telemetry pipeline is
/// exact and near-free.
///
/// Three claims, one per section:
///   A. Fidelity: replaying a many-tenant spend stream (with denials and
///      near-exhaustion crossings) through the release service's per-tenant
///      ledger (service::ShardedPrivacyAccountant) leaves every
///      near-exhausted tenant's gauges BITWISE equal to its ledger totals,
///      every ledger replay-clean, and exactly one near-exhaustion event per
///      crossing tenant — the ReplayVerifyAll contract under parallel load.
///      Quiet tenants that stay below the line leave no series in the
///      exposition, so its cardinality is bounded by the near set.
///   B. Overhead: the Gibbs posterior-sampling release path with metrics +
///      tracing + span recording fully armed costs under 10% over the same
///      path fully dark (lenient in-experiment bound; the strict <3% gate
///      runs on the BENCH_<rev>.json snapshot, where google-benchmark's
///      repetitions drive the noise down — see scripts/run_bench.sh).
///   C. Export: spans opened on pool workers parent to the submitting
///      span across threads, the Chrome trace renders them, and the
///      Prometheus exposition carries release-latency p99/p99.9 summaries
///      plus the tenant gauges from section A.
///
/// Run with DPLEARN_TRACE_FILE / DPLEARN_METRICS_FILE set and the CI
/// telemetry-smoke job validates the exported files with
/// scripts/check_trace_json.py and scripts/check_exposition.py.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "bench/experiment_util.h"
#include "core/gibbs_estimator.h"
#include "learning/loss.h"
#include "mechanisms/laplace.h"
#include "mechanisms/privacy_budget.h"
#include "mechanisms/sensitivity.h"
#include "obs/config.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "sampling/rng.h"
#include "service/sharded_accountant.h"

namespace dplearn {
namespace {

std::string TenantName(std::size_t t, const char* prefix = "tenant") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s_%03zu", prefix, t);
  return buf;
}

void RunFidelitySection(Rng* rng) {
  bench::PrintSection("A: many-tenant spend replay (fidelity)");

  const std::size_t num_tenants = bench::SmokeMode() ? 8 : 64;
  const std::size_t num_quiet = bench::SmokeMode() ? 4 : 16;
  const std::size_t grants_per_tenant = bench::SmokeMode() ? 50 : 400;

  service::ShardedPrivacyAccountant::Options options;
  options.near_exhaustion_fraction = 0.8;
  service::ShardedPrivacyAccountant tenants(options);

  obs::InMemorySink sink;
  // Scoped registration: an injected fault unwinding the spend replay (the
  // chaos job arms budget.spend) must still deregister, or the global
  // registry would keep a pointer to this dead stack frame.
  obs::ScopedGlobalSink sink_registration(&sink);

  bool all_registered = true;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    all_registered =
        all_registered &&
        tenants.RegisterTenant(TenantName(t), PrivacyBudget{1.0, 0.0}).ok();
  }
  for (std::size_t t = 0; t < num_quiet; ++t) {
    all_registered =
        all_registered &&
        tenants.RegisterTenant(TenantName(t, "quiet"), PrivacyBudget{1.0, 0.0}).ok();
  }
  bench::Verdict(all_registered, "A: every tenant registers");

  // Each tenant spends 90% of its ε in equal granted slices (crossing the
  // 80% near-exhaustion line exactly once), then bounces two over-budget
  // requests. Tenants run concurrently on the pool: same-tenant spends
  // serialize on their shard, which is the ordering the ledger needs.
  const double slice = 0.9 / static_cast<double>(grants_per_tenant);
  const std::vector<int> denial_counts = bench::RunTrials<int>(
      num_tenants, rng, [&tenants, grants_per_tenant, slice](std::size_t t, Rng&) {
        const std::string id = TenantName(t);
        for (std::size_t s = 0; s < grants_per_tenant; ++s) {
          bench::Check(tenants.SpendOrReject(id, PrivacyBudget{slice, 0.0}, "replay"),
                       "tenant spend");
        }
        int denials = 0;
        for (int d = 0; d < 2; ++d) {
          if (!tenants.SpendOrReject(id, PrivacyBudget{0.2, 0.0}, "replay").ok()) ++denials;
        }
        return denials;
      });
  // Quiet tenants spend 45% of their ε in the same slices and never reach
  // the 80% line.
  for (std::size_t t = 0; t < num_quiet; ++t) {
    for (std::size_t s = 0; s < grants_per_tenant / 2; ++s) {
      bench::Check(tenants.SpendOrReject(TenantName(t, "quiet"), PrivacyBudget{slice, 0.0},
                                         "replay"),
                   "quiet tenant spend");
    }
  }

  const Status replay = tenants.ReplayVerifyAll();
  if (!replay.ok()) std::printf("ReplayVerifyAll: %s\n", replay.ToString().c_str());
  bench::Verdict(replay.ok(), "A: every ledger replays clean; gauges bitwise match "
                              "ledger totals (ReplayVerifyAll)");

  bool views_exact = true;
  double total_spent = 0.0;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    const auto view = tenants.View(TenantName(t));
    views_exact = views_exact && view.ok() && view->spends == grants_per_tenant &&
                  view->denials == 2 && view->near_exhaustion;
    if (view.ok()) total_spent += view->spent.epsilon;
  }
  bench::Verdict(views_exact,
                 "A: every view shows the exact grant/denial counts and the "
                 "near-exhaustion flag");

  int denials_seen = 0;
  for (const int d : denial_counts) denials_seen += d;
  bench::Verdict(denials_seen == static_cast<int>(num_tenants) * 2,
                 "A: over-budget spends are denied, not granted");

  std::size_t near_exhaustion_events = 0;
  for (const obs::Event& event : sink.Events()) {
    if (event.type == "budget" && event.name == "near_exhaustion") {
      ++near_exhaustion_events;
    }
  }
  bench::Verdict(near_exhaustion_events == num_tenants,
                 "A: exactly one near-exhaustion event per tenant");

  const std::string exposition = obs::GlobalMetrics().WriteExposition();
  bool series_bounded = true;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    const std::string label = "{tenant=\"" + TenantName(t) + "\"} ";
    series_bounded =
        series_bounded &&
        exposition.find("dplearn_tenant_epsilon_remaining" + label) != std::string::npos &&
        exposition.find("dplearn_tenant_epsilon_spent" + label) != std::string::npos;
  }
  for (std::size_t t = 0; t < num_quiet; ++t) {
    series_bounded = series_bounded &&
                     exposition.find("tenant=\"" + TenantName(t, "quiet") + "\"") ==
                         std::string::npos;
  }
  bench::Verdict(series_bounded,
                 "A: the exposition has series for every near-exhausted tenant and "
                 "none for the quiet tenants");

  bench::RecordScalar("tenants", static_cast<double>(num_tenants));
  bench::RecordScalar("quiet_tenants", static_cast<double>(num_quiet));
  bench::RecordScalar("grants_per_tenant", static_cast<double>(grants_per_tenant));
  bench::RecordScalar("total_epsilon_spent", total_spent);
  std::printf("tenants=%zu grants/tenant=%zu denials=%d near_exhaustion_events=%zu\n",
              num_tenants, grants_per_tenant, denials_seen, near_exhaustion_events);
}

/// Seconds for `reps` Gibbs SampleBatch calls (64 draws each) under a
/// traced span — the release-path shape the telemetry overhead budget is
/// written against.
double TimeGibbsRounds(const GibbsEstimator& gibbs, const Dataset& data, Rng* rng,
                       int reps) {
  std::vector<std::size_t> out;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    obs::TraceSpan span("exp_tel.gibbs_sample");
    bench::Check(gibbs.SampleBatch(data, rng, 64, &out), "SampleBatch");
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void RunOverheadSection(Rng* rng) {
  bench::PrintSection("B: telemetry overhead on the Gibbs release path");

  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  auto gibbs =
      bench::Unwrap(GibbsEstimator::CreateUniform(&loss, hclass, 10.0), "gibbs");
  Dataset data = bench::MakeBernoulliData(1000, 6);

  const bool metrics_was = obs::MetricsEnabled();
  const bool tracing_was = obs::TracingEnabled();
  const bool buffer_was = obs::TraceBufferEnabled();
  // Measure the same thing the strict bench gate measures — metrics +
  // tracing + span recording — not the harness's JSONL event stream, whose
  // per-span formatting would otherwise dominate the armed rounds.
  obs::ScopedSinkPause sink_pause;

  // Alternate dark and armed rounds and keep the per-mode minimum: the
  // minimum is the standard noise-robust estimator for "how fast can this
  // go", and alternation cancels slow machine-state drift.
  const int rounds = bench::SmokeMode() ? 6 : 10;
  // Calibrate reps so one timed round is long enough for steady_clock to
  // resolve: a ~0.1 ms round puts timer granularity at the same order as
  // the 10% budget and the verdict becomes a coin flip. Warm up before
  // probing — the first call pays the cold risk-profile fill, which would
  // inflate the per-rep estimate and collapse the calibration.
  TimeGibbsRounds(gibbs, data, rng, 1);
  const double probe_seconds =
      std::max(TimeGibbsRounds(gibbs, data, rng, 2) / 2.0, 1e-7);
  const double target_round_seconds = bench::SmokeMode() ? 0.004 : 0.02;
  const int reps = static_cast<int>(
      std::clamp(std::ceil(target_round_seconds / probe_seconds), 2.0, 512.0));
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = std::numeric_limits<double>::infinity();
  for (int round = 0; round < rounds; ++round) {
    const bool on = round % 2 == 1;
    obs::SetMetricsEnabled(on);
    obs::SetTracingEnabled(on);
    obs::SetTraceBufferEnabled(on);
    const double seconds = TimeGibbsRounds(gibbs, data, rng, reps);
    if (on) {
      best_on = std::min(best_on, seconds);
    } else {
      best_off = std::min(best_off, seconds);
    }
  }
  obs::SetMetricsEnabled(metrics_was);
  obs::SetTracingEnabled(tracing_was);
  obs::SetTraceBufferEnabled(buffer_was);

  const double overhead = best_on / best_off - 1.0;
  std::printf("best off=%.4fs  best on=%.4fs  overhead=%+.2f%%\n", best_off, best_on,
              overhead * 100.0);
  bench::RecordScalar("telemetry_overhead_fraction", overhead);
  // Lenient wall-clock bound for a short in-experiment measurement; the
  // strict <3% budget is enforced on the bench snapshot
  // (BM_GibbsSampleTelemetryOff/On via check_bench_json.py --overhead-pair).
  bench::Verdict(overhead < 0.10,
                 "B: telemetry-on Gibbs sampling costs <10% over telemetry-off");
}

void RunExportSection(Rng* rng) {
  bench::PrintSection("C: cross-thread tracing + Prometheus exposition");

  const bool buffer_was = obs::TraceBufferEnabled();
  obs::SetTraceBufferEnabled(true);
  obs::ClearTraceBuffers();

  // Populate the release-latency histograms the exposition claim is about.
  const std::size_t n = 400;
  Dataset data = bench::MakeBernoulliData(n, 11);
  auto query = bench::Unwrap(BoundedMeanQuery(0.0, 1.0, n), "query");
  auto laplace =
      bench::Unwrap(LaplaceMechanism::Create(query, 0.5), "laplace mechanism");
  const std::size_t releases = bench::SmokeMode() ? 64 : 512;
  for (std::size_t i = 0; i < releases; ++i) {
    bench::Unwrap(laplace.Release(data, rng), "laplace release");
  }

  // A parent span on this thread, trials on the pool: every trial span must
  // come back with `outer` in its ancestry even when it ran on a worker.
  const std::size_t trials = bench::TrialCount(256, 32);
  std::uint64_t outer_id = 0;
  std::uint32_t outer_thread = 0;
  {
    obs::TraceSpan outer("exp_tel.parallel_sweep");
    outer_id = outer.span_id();
    bench::RunTrials<double>(trials, rng, [](std::size_t t, Rng& trial_rng) {
      obs::TraceSpan span("exp_tel.trial");
      double acc = static_cast<double>(t);
      for (int i = 0; i < 500; ++i) acc += trial_rng.NextDouble();
      return acc;
    });
  }

  const std::vector<obs::SpanRecord> records = obs::CollectSpanRecords();
  std::unordered_map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& r : records) {
    if (r.span_id == outer_id) outer_thread = r.thread_index;
    by_id.emplace(r.span_id, &r);
  }
  std::size_t trial_spans = 0;
  std::size_t cross_thread_children = 0;
  for (const obs::SpanRecord& r : records) {
    if (std::string_view(r.name) != "exp_tel.trial") continue;
    ++trial_spans;
    // The trial runner interposes its own spans (pool.batch) between the
    // sweep span and each trial span, so what must survive the thread hop
    // is the *ancestry* — walk the parent chain up to the sweep span.
    std::uint64_t ancestor = r.parent_id;
    for (int hops = 0; ancestor != 0 && ancestor != outer_id && hops < 16;
         ++hops) {
      const auto it = by_id.find(ancestor);
      ancestor = it == by_id.end() ? 0 : it->second->parent_id;
    }
    if (ancestor == outer_id && r.thread_index != outer_thread) {
      ++cross_thread_children;
    }
  }
  bench::RecordScalar("trial_spans_retained", static_cast<double>(trial_spans));
  bench::RecordScalar("cross_thread_children", static_cast<double>(cross_thread_children));
  bench::Verdict(trial_spans > 0, "C: worker spans land in the ring buffer");
  // On a single-thread pool every trial runs on the submitting thread, so
  // cross-thread parentage is vacuous there.
  const bool multi_threaded = parallel::DefaultThreadCount() > 1;
  bench::Verdict(!multi_threaded || cross_thread_children > 0,
                 "C: pool-worker spans parent to the submitting span across threads");

  const std::string trace_json = obs::ChromeTraceJson();
  bench::Verdict(trace_json.find("\"traceEvents\"") != std::string::npos &&
                     trace_json.find("exp_tel.trial") != std::string::npos &&
                     trace_json.find("exp_tel.parallel_sweep") != std::string::npos,
                 "C: Chrome trace JSON renders the parallel sweep");

  const std::string exposition = obs::GlobalMetrics().WriteExposition();
  bench::Verdict(
      exposition.find("dplearn_mechanism_laplace_release_us{quantile=\"0.99\"}") !=
              std::string::npos &&
          exposition.find("quantile=\"0.999\"") != std::string::npos,
      "C: exposition carries release-latency p99/p99.9 summaries");
  bench::Verdict(exposition.find("dplearn_tenant_epsilon_remaining{tenant=") !=
                     std::string::npos,
                 "C: exposition carries per-tenant remaining-epsilon gauges");

  obs::SetTraceBufferEnabled(buffer_was);
  std::printf("retained=%zu trial_spans=%zu cross_thread_children=%zu threads=%zu\n",
              records.size(), trial_spans, cross_thread_children,
              parallel::DefaultThreadCount());
}

void Run() {
  bench::PrintHeader("E-TEL (telemetry v2)",
                     "per-tenant budget telemetry is exact; armed telemetry is "
                     "near-free; traces parent across threads");
  Rng rng(bench::BaseSeed(20260809));

  RunFidelitySection(&rng);
  RunOverheadSection(&rng);
  RunExportSection(&rng);
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, dplearn::Run);
}
