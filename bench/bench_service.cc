// Closed-loop load generator and invariant checker for the DP release
// service (DESIGN.md §13).
//
// Drives a DpReleaseServer — in-process by default, or an external one via
// --socket — with one thread + one connection per tenant, a deterministic
// request mix (~55% Laplace mean releases, ~20% Gibbs draws, ~10% stream
// appends feeding each tenant's live StreamingRiskProfile, ~15% budget
// queries), and a per-repetition "probe" tenant registered with a tiny
// budget and deliberately overdrawn, so every run exercises the
// RESOURCE_EXHAUSTED admission path.
//
// Latencies of OK responses land in obs::HdrHistogram; the output is
// google-benchmark-shaped JSON whose aggregate entries
//   BM_ServiceReleaseLatencyP50_median   BM_ServiceReleaseLatencyP99_median
//   BM_ServiceGibbsLatencyP50_median     BM_ServiceGibbsLatencyP99_median
// are medians across --repetitions, suitable for bench_merge.py /
// bench_compare.py --strict, plus a "service" block with the invariant
// verdicts.
//
// The process exits non-zero if any invariant fails — and the invariants
// are chosen to hold even under the chaos fail points the service-chaos CI
// leg arms (service.accept / service.dispatch / budget.spend / sink.write):
//   * zero client-side protocol errors (every frame decodes);
//   * server-side ReplayVerifyAll reports clean ledgers;
//   * budget conservation: the Kahan sum of charged_epsilon over each
//     tenant's OK responses, in response order, is BITWISE equal to the
//     server's spent_epsilon for that tenant (same adds, same order), and
//     client-observed denials match the server's denial count;
//   * at least one RESOURCE_EXHAUSTED denial per repetition (the probe);
//   * every request eventually completes (UNAVAILABLE rejections are
//     retried — they fire before any ledger mutation, so retry is safe).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/hdr_histogram.h"
#include "sampling/rng.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/math_util.h"
#include "util/status.h"

namespace {

using dplearn::KahanSum;
using dplearn::Rng;
using dplearn::Status;
using dplearn::StatusCode;
using dplearn::StatusOr;
using dplearn::obs::HdrHistogram;
using dplearn::service::DpReleaseClient;
using dplearn::service::DpReleaseServer;
using dplearn::service::MechanismKind;
using dplearn::service::Opcode;
using dplearn::service::QueryKind;
using dplearn::service::Request;
using dplearn::service::Response;

struct Flags {
  std::string socket;       // empty => in-process server
  std::string out;          // empty => stdout
  bool smoke = false;
  std::size_t tenants = 6;
  std::size_t requests = 300;  // per tenant per repetition
  std::size_t repetitions = 3;
  std::uint64_t seed = 42;
  std::size_t threads = 0;  // in-process server event loops; 0 = default
};

/// Per-tenant tallies a worker thread accumulates; merged after join.
struct TenantStats {
  std::uint64_t ok = 0;
  std::uint64_t resource_exhausted = 0;
  std::uint64_t unavailable_responses = 0;  // structured, later retried
  std::uint64_t invalid_argument = 0;
  std::uint64_t other_errors = 0;
  std::uint64_t transport_retries = 0;
  std::uint64_t protocol_errors = 0;  // client-side decode failures
  std::uint64_t gave_up = 0;          // retry budget exhausted
  std::uint64_t stream_appends = 0;   // OK kStreamAppend responses
  KahanSum charged_epsilon;
  KahanSum charged_delta;
  std::uint64_t denials_seen = 0;  // RESOURCE_EXHAUSTED responses
};

constexpr int kMaxAttempts = 200;

/// Call() with reconnect-and-retry on transport failures, unsolicited
/// accept rejections (request_id 0) and structured UNAVAILABLE responses —
/// all of which happen strictly before any ledger mutation, so re-sending
/// the same request cannot double-charge.
StatusOr<Response> CallWithRetry(std::unique_ptr<DpReleaseClient>* client,
                                 const std::string& socket_path, const Request& request,
                                 TenantStats* stats) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (*client == nullptr || !(*client)->connected()) {
      StatusOr<DpReleaseClient> fresh = DpReleaseClient::ConnectWithRetry(
          socket_path, /*attempts=*/20, std::chrono::milliseconds(25));
      if (!fresh.ok()) {
        ++stats->transport_retries;
        continue;
      }
      *client = std::make_unique<DpReleaseClient>(std::move(*fresh));
    }
    StatusOr<Response> response = (*client)->Call(request);
    if (!response.ok()) {
      if (response.status().code() == StatusCode::kInvalidArgument) {
        // Undecodable response frame: a real protocol bug, never retried.
        ++stats->protocol_errors;
        return response;
      }
      ++stats->transport_retries;
      (*client)->Close();
      continue;
    }
    if (response->request_id == 0) {
      // Unsolicited server-level rejection (service.accept): the connection
      // is dead and the request was never consumed.
      ++stats->unavailable_responses;
      ++stats->transport_retries;
      (*client)->Close();
      continue;
    }
    if (response->code == StatusCode::kUnavailable) {
      // service.dispatch (or budget.spend) fired before admission: a
      // structured rejection with no charge. Count it, retry it.
      ++stats->unavailable_responses;
      continue;
    }
    return response;
  }
  ++stats->gave_up;
  return dplearn::UnavailableError("bench_service: retry budget exhausted");
}

void TallyTerminal(const Response& response, TenantStats* stats) {
  switch (response.code) {
    case StatusCode::kOk:
      ++stats->ok;
      stats->charged_epsilon.Add(response.charged_epsilon);
      stats->charged_delta.Add(response.charged_delta);
      break;
    case StatusCode::kResourceExhausted:
      ++stats->resource_exhausted;
      ++stats->denials_seen;
      break;
    case StatusCode::kInvalidArgument:
      ++stats->invalid_argument;
      break;
    default:
      ++stats->other_errors;
      break;
  }
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One tenant's closed loop for one repetition.
void RunTenant(const std::string& socket_path, const std::string& tenant_id,
               const Flags& flags, std::uint64_t stream_seed, HdrHistogram* release_lat,
               HdrHistogram* gibbs_lat, TenantStats* stats) {
  std::unique_ptr<DpReleaseClient> client;

  // A quota large enough that the deterministic mix never exhausts it —
  // admission denials are the probe tenant's job, not noise in the latency
  // numbers.
  Request reg;
  reg.opcode = Opcode::kRegisterTenant;
  reg.request_id = 1;
  reg.tenant_id = tenant_id;
  reg.epsilon = 1000.0;
  reg.delta = 1e-3;
  StatusOr<Response> registered = CallWithRetry(&client, socket_path, reg, stats);
  if (!registered.ok()) return;
  // FAILED_PRECONDITION (already registered) is fine on reconnect races.

  Rng rng(stream_seed);
  std::uint64_t next_id = 2;
  for (std::size_t i = 0; i < flags.requests; ++i) {
    const double pick = rng.NextDouble();
    Request request;
    request.request_id = next_id++;
    request.tenant_id = tenant_id;
    bool is_release = false;
    bool is_gibbs = false;
    bool is_append = false;
    if (pick < 0.55) {
      is_release = true;
      request.opcode = Opcode::kRelease;
      request.mechanism = MechanismKind::kLaplace;
      request.query = QueryKind::kMean;
      request.dataset = "bernoulli";
      request.epsilon = 0.01;
      request.delta = 0.0;
      request.count = 1 + static_cast<std::uint32_t>(rng.NextBounded(4));
    } else if (pick < 0.75) {
      is_gibbs = true;
      request.opcode = Opcode::kGibbsSample;
      request.dataset = "bernoulli";
      request.lambda = 1.0;
      request.count = 1 + static_cast<std::uint32_t>(rng.NextBounded(8));
    } else if (pick < 0.85) {
      // Free append to the tenant's live stream: later Gibbs draws in this
      // loop re-tilt from it and are charged at the live size, so the
      // budget-conservation invariant also covers the continual-release
      // accounting path.
      is_append = true;
      request.opcode = Opcode::kStreamAppend;
      request.dataset = "bernoulli";
      request.features = {1.0};
      request.label = rng.NextBounded(2) == 0 ? 0.0 : 1.0;
    } else {
      request.opcode = Opcode::kBudgetQuery;
    }
    const double start_us = NowMicros();
    StatusOr<Response> response = CallWithRetry(&client, socket_path, request, stats);
    if (!response.ok()) continue;  // tallied inside CallWithRetry
    const double elapsed_us = NowMicros() - start_us;
    TallyTerminal(*response, stats);
    if (response->code == StatusCode::kOk) {
      if (is_release) release_lat->Record(elapsed_us);
      if (is_gibbs) gibbs_lat->Record(elapsed_us);
      if (is_append) ++stats->stream_appends;
    }
  }
}

/// Registers a tiny-budget tenant and overdraws it, guaranteeing at least
/// one RESOURCE_EXHAUSTED denial this repetition.
void RunProbe(const std::string& socket_path, const std::string& tenant_id,
              TenantStats* stats) {
  std::unique_ptr<DpReleaseClient> client;
  Request reg;
  reg.opcode = Opcode::kRegisterTenant;
  reg.request_id = 1;
  reg.tenant_id = tenant_id;
  reg.epsilon = 0.05;
  reg.delta = 0.0;
  if (!CallWithRetry(&client, socket_path, reg, stats).ok()) return;

  for (int i = 0; i < 3; ++i) {
    Request release;
    release.opcode = Opcode::kRelease;
    release.request_id = static_cast<std::uint64_t>(2 + i);
    release.tenant_id = tenant_id;
    release.mechanism = MechanismKind::kLaplace;
    release.query = QueryKind::kMean;
    release.dataset = "bernoulli";
    release.epsilon = 0.03;
    release.count = 1;
    StatusOr<Response> response = CallWithRetry(&client, socket_path, release, stats);
    if (response.ok()) TallyTerminal(*response, stats);
  }
}

/// Fetches the server-side view of `tenant_id` and checks bitwise budget
/// conservation against the client-side Kahan sums. Returns false (and
/// prints why) on mismatch.
bool CheckTenantLedger(const std::string& socket_path, const std::string& tenant_id,
                       const TenantStats& stats) {
  std::unique_ptr<DpReleaseClient> client;
  TenantStats scratch;
  Request query;
  query.opcode = Opcode::kBudgetQuery;
  query.request_id = 1;
  query.tenant_id = tenant_id;
  StatusOr<Response> view = CallWithRetry(&client, socket_path, query, &scratch);
  if (!view.ok() || view->code != StatusCode::kOk) {
    std::fprintf(stderr, "bench_service: budget query for %s failed\n", tenant_id.c_str());
    return false;
  }
  const double client_epsilon = stats.charged_epsilon.Value();
  if (view->spent_epsilon != client_epsilon) {
    std::fprintf(stderr,
                 "bench_service: budget NOT conserved for %s: server spent %.17g, "
                 "client charged %.17g\n",
                 tenant_id.c_str(), view->spent_epsilon, client_epsilon);
    return false;
  }
  if (view->denials != stats.denials_seen) {
    std::fprintf(stderr,
                 "bench_service: denial count mismatch for %s: server %llu, client %llu\n",
                 tenant_id.c_str(), static_cast<unsigned long long>(view->denials),
                 static_cast<unsigned long long>(stats.denials_seen));
    return false;
  }
  return true;
}

bool CheckReplayVerify(const std::string& socket_path) {
  std::unique_ptr<DpReleaseClient> client;
  TenantStats scratch;
  Request verify;
  verify.opcode = Opcode::kReplayVerify;
  verify.request_id = 1;
  StatusOr<Response> verdict = CallWithRetry(&client, socket_path, verify, &scratch);
  if (!verdict.ok()) return false;
  if (verdict->code != StatusCode::kOk) {
    std::fprintf(stderr, "bench_service: ReplayVerifyAll dirty: %s\n",
                 verdict->message.c_str());
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Merge(const TenantStats& from, TenantStats* into) {
  into->ok += from.ok;
  into->resource_exhausted += from.resource_exhausted;
  into->unavailable_responses += from.unavailable_responses;
  into->invalid_argument += from.invalid_argument;
  into->other_errors += from.other_errors;
  into->transport_retries += from.transport_retries;
  into->protocol_errors += from.protocol_errors;
  into->gave_up += from.gave_up;
  into->stream_appends += from.stream_appends;
  into->denials_seen += from.denials_seen;
}

int Run(const Flags& flags) {
  std::string socket_path = flags.socket;
  std::unique_ptr<DpReleaseServer> server;
  if (socket_path.empty()) {
    socket_path = "/tmp/dplearn_bench_" + std::to_string(::getpid()) + ".sock";
    DpReleaseServer::Options options;
    options.socket_path = socket_path;
    options.seed = flags.seed;
    options.worker_threads = flags.threads;
    StatusOr<std::unique_ptr<DpReleaseServer>> started =
        DpReleaseServer::Start(std::move(options));
    if (!started.ok()) {
      std::fprintf(stderr, "bench_service: server start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
  }

  TenantStats totals;
  std::uint64_t exhausted_total = 0;
  std::vector<double> release_p50s, release_p99s, gibbs_p50s, gibbs_p99s;
  bool budget_conserved = true;
  const double wall_start_us = NowMicros();

  for (std::size_t rep = 0; rep < flags.repetitions; ++rep) {
    HdrHistogram release_lat;
    HdrHistogram gibbs_lat;
    std::vector<TenantStats> per_tenant(flags.tenants);
    std::vector<std::string> tenant_ids;
    tenant_ids.reserve(flags.tenants);
    for (std::size_t t = 0; t < flags.tenants; ++t) {
      tenant_ids.push_back("bench-r" + std::to_string(rep) + "-t" + std::to_string(t));
    }
    std::vector<std::thread> workers;
    workers.reserve(flags.tenants);
    for (std::size_t t = 0; t < flags.tenants; ++t) {
      workers.emplace_back(RunTenant, socket_path, tenant_ids[t], std::cref(flags),
                           flags.seed * 1000003ULL + rep * 1009ULL + t, &release_lat,
                           &gibbs_lat, &per_tenant[t]);
    }
    const std::string probe_id = "probe-r" + std::to_string(rep);
    TenantStats probe_stats;
    RunProbe(socket_path, probe_id, &probe_stats);
    for (auto& worker : workers) worker.join();

    for (std::size_t t = 0; t < flags.tenants; ++t) {
      budget_conserved =
          CheckTenantLedger(socket_path, tenant_ids[t], per_tenant[t]) && budget_conserved;
      Merge(per_tenant[t], &totals);
    }
    budget_conserved = CheckTenantLedger(socket_path, probe_id, probe_stats) &&
                       budget_conserved;
    Merge(probe_stats, &totals);
    exhausted_total += probe_stats.resource_exhausted;
    for (const auto& stats : per_tenant) exhausted_total += stats.resource_exhausted;

    const HdrHistogram::Snapshot release_snap = release_lat.GetSnapshot();
    const HdrHistogram::Snapshot gibbs_snap = gibbs_lat.GetSnapshot();
    release_p50s.push_back(release_snap.Quantile(0.50));
    release_p99s.push_back(release_snap.Quantile(0.99));
    gibbs_p50s.push_back(gibbs_snap.Quantile(0.50));
    gibbs_p99s.push_back(gibbs_snap.Quantile(0.99));
  }

  const bool replay_ok = CheckReplayVerify(socket_path);
  const double wall_us = NowMicros() - wall_start_us;
  if (server != nullptr) {
    totals.protocol_errors += server->protocol_errors();
    server->Stop();
  }

  const bool probe_exhausted = exhausted_total >= flags.repetitions;
  const bool all_completed = totals.gave_up == 0;
  const bool no_protocol_errors = totals.protocol_errors == 0;

  // google-benchmark-shaped output: medians across repetitions as
  // aggregate entries (bench_compare.py keeps aggregate rows only when
  // aggregate_name == "median"), plus the service invariant block.
  struct Entry {
    const char* name;
    double value_us;
  };
  const Entry entries[] = {
      {"BM_ServiceReleaseLatencyP50_median", Median(release_p50s)},
      {"BM_ServiceReleaseLatencyP99_median", Median(release_p99s)},
      {"BM_ServiceGibbsLatencyP50_median", Median(gibbs_p50s)},
      {"BM_ServiceGibbsLatencyP99_median", Median(gibbs_p99s)},
  };
  std::string json;
  json += "{\n  \"context\": {\n";
  json += "    \"executable\": \"bench_service\",\n";
  json += "    \"tenants\": " + std::to_string(flags.tenants) + ",\n";
  json += "    \"requests_per_tenant\": " + std::to_string(flags.requests) + ",\n";
  json += "    \"repetitions\": " + std::to_string(flags.repetitions) + ",\n";
  json += "    \"seed\": " + std::to_string(flags.seed) + ",\n";
  json += "    \"wall_time_us\": " + std::to_string(wall_us) + "\n";
  json += "  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < 4; ++i) {
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"run_type\": \"aggregate\", "
                  "\"aggregate_name\": \"median\", \"repetitions\": %zu, "
                  "\"real_time\": %.6f, \"cpu_time\": %.6f, \"time_unit\": \"us\"}%s\n",
                  entries[i].name, flags.repetitions, entries[i].value_us,
                  entries[i].value_us, i + 1 < 4 ? "," : "");
    json += buffer;
  }
  json += "  ],\n  \"service\": {\n";
  json += "    \"requests_ok\": " + std::to_string(totals.ok) + ",\n";
  json += "    \"resource_exhausted\": " + std::to_string(totals.resource_exhausted) + ",\n";
  json += "    \"unavailable_responses\": " +
          std::to_string(totals.unavailable_responses) + ",\n";
  json += "    \"invalid_argument\": " + std::to_string(totals.invalid_argument) + ",\n";
  json += "    \"other_errors\": " + std::to_string(totals.other_errors) + ",\n";
  json += "    \"transport_retries\": " + std::to_string(totals.transport_retries) + ",\n";
  json += "    \"stream_appends\": " + std::to_string(totals.stream_appends) + ",\n";
  json += "    \"protocol_errors\": " + std::to_string(totals.protocol_errors) + ",\n";
  json += std::string("    \"replay_verify_ok\": ") + (replay_ok ? "true" : "false") + ",\n";
  json += std::string("    \"budget_conserved\": ") +
          (budget_conserved ? "true" : "false") + ",\n";
  json += std::string("    \"probe_exhausted\": ") +
          (probe_exhausted ? "true" : "false") + ",\n";
  json += std::string("    \"all_requests_completed\": ") +
          (all_completed ? "true" : "false") + "\n";
  json += "  }\n}\n";

  if (flags.out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(flags.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_service: cannot open %s\n", flags.out.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  int failures = 0;
  const auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_service: INVARIANT FAILED: %s\n", what);
      ++failures;
    }
  };
  require(no_protocol_errors, "zero protocol errors");
  require(replay_ok, "ReplayVerifyAll clean");
  require(budget_conserved, "budget conservation (client charges == server ledger)");
  require(probe_exhausted, ">=1 RESOURCE_EXHAUSTED denial per repetition");
  require(all_completed, "every request completed within the retry budget");
  if (failures == 0) {
    std::fprintf(stderr,
                 "bench_service: OK (%llu ok, %llu denials, %llu structured "
                 "unavailable, %llu transport retries)\n",
                 static_cast<unsigned long long>(totals.ok),
                 static_cast<unsigned long long>(totals.resource_exhausted),
                 static_cast<unsigned long long>(totals.unavailable_responses),
                 static_cast<unsigned long long>(totals.transport_retries));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_service: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      flags.socket = next();
    } else if (arg == "--out") {
      flags.out = next();
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--tenants") {
      flags.tenants = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--requests") {
      flags.requests = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--repetitions") {
      flags.repetitions = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      flags.threads = std::strtoul(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--socket PATH] [--out FILE] [--smoke]\n"
                   "                     [--tenants N] [--requests N] [--repetitions N]\n"
                   "                     [--seed S] [--threads N]\n"
                   "  --threads N  event loops of the in-process server (default:\n"
                   "               DPLEARN_THREADS, else the CPU count)\n");
      return 2;
    }
  }
  if (flags.smoke) {
    flags.tenants = std::min<std::size_t>(flags.tenants, 4);
    flags.requests = std::min<std::size_t>(flags.requests, 40);
    flags.repetitions = std::min<std::size_t>(flags.repetitions, 2);
  }
  if (flags.tenants == 0 || flags.requests == 0 || flags.repetitions == 0) {
    std::fprintf(stderr, "bench_service: tenants/requests/repetitions must be positive\n");
    return 2;
  }
  return Run(flags);
}
