// dplearn_serve: runs a DpReleaseServer on an AF_UNIX socket until
// SIGINT/SIGTERM — the deployable front door of the library (DESIGN.md
// §13). Drive it with bench/bench_service or any client speaking the
// length-prefixed protocol of src/service/protocol.h:
//
//   ./dplearn_serve --socket /tmp/dplearn.sock &
//   ./bench_service --socket /tmp/dplearn.sock --smoke --out latency.json
//
// Chaos testing: arm fail points in THIS process's environment, e.g.
//   DPLEARN_FAILPOINTS='service.dispatch=every:17' ./dplearn_serve ...
// and the server degrades to structured UNAVAILABLE responses instead of
// crashing — the service-chaos CI leg drives exactly that.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>

#include "obs/event_sink.h"
#include "service/server.h"
#include "util/status.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  dplearn::service::DpReleaseServer::Options options;
  std::string events_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dplearn_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      options.worker_threads = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--tenant-epsilon") {
      options.default_tenant_budget.epsilon = std::strtod(next(), nullptr);
    } else if (arg == "--tenant-delta") {
      options.default_tenant_budget.delta = std::strtod(next(), nullptr);
    } else if (arg == "--events") {
      events_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: dplearn_serve --socket PATH [--seed S] [--threads N]\n"
                   "                     [--tenant-epsilon E] [--tenant-delta D]\n"
                   "                     [--events FILE]\n"
                   "  --threads N  event loops serving connections (default:\n"
                   "               DPLEARN_THREADS, else the CPU count)\n");
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "dplearn_serve: --socket is required\n");
    return 2;
  }

  // Optional JSONL event export (spans, audit entries, near-exhaustion
  // warnings) — and the surface the `sink.write` chaos leg aims at.
  std::unique_ptr<dplearn::obs::JsonlFileSink> sink;
  if (!events_path.empty()) {
    auto opened = dplearn::obs::JsonlFileSink::Open(events_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "dplearn_serve: cannot open events file: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    sink = std::move(*opened);
    dplearn::obs::AddGlobalSink(sink.get());
  }

  auto started = dplearn::service::DpReleaseServer::Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "dplearn_serve: start failed: %s\n",
                 started.status().ToString().c_str());
    if (sink != nullptr) dplearn::obs::RemoveGlobalSink(sink.get());
    return 1;
  }
  std::unique_ptr<dplearn::service::DpReleaseServer> server = std::move(*started);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // The readiness line scripts wait for before starting load.
  std::printf("dplearn_serve: listening on %s\n", options.socket_path.c_str());
  std::fflush(stdout);

  while (g_stop == 0) {
    struct timespec sleep_for = {0, 100 * 1000 * 1000};  // 100ms
    nanosleep(&sleep_for, nullptr);
  }

  std::fprintf(stderr, "dplearn_serve: shutting down (%llu protocol errors)\n",
               static_cast<unsigned long long>(server->protocol_errors()));
  server->Stop();
  if (sink != nullptr) dplearn::obs::RemoveGlobalSink(sink.get());
  return 0;
}
