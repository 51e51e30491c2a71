#ifndef DPLEARN_SERVICE_SERVER_H_
#define DPLEARN_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "learning/dataset.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/streaming_risk.h"
#include "mechanisms/privacy_budget.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"
#include "service/protocol.h"
#include "service/sharded_accountant.h"
#include "util/status.h"

namespace dplearn {
namespace service {

/// A dataset the service answers queries on: the data itself plus the
/// server-side modeling choices a remote tenant cannot supply — the
/// hypothesis grid and loss for Gibbs sampling, and the label bounds that
/// make the mean/sum sensitivity claims sound.
struct ServedDataset {
  Dataset data;
  FiniteHypothesisClass hypotheses;
  std::shared_ptr<const LossFunction> loss;
  double label_lo = 0.0;
  double label_hi = 1.0;
};

/// The multi-tenant DP release server (DESIGN.md §13).
///
/// Accepts length-prefixed binary frames (protocol.h) over an AF_UNIX
/// stream socket and serves Release / GibbsSample / BudgetQuery under
/// admission control by a ShardedPrivacyAccountant. Malformed or
/// over-budget requests get structured INVALID_ARGUMENT /
/// RESOURCE_EXHAUSTED responses — the server never crashes on bad input,
/// which the `service-chaos` CI leg drives with fail points armed.
///
/// Threading and determinism. An accept thread hands connection k to event
/// loop k mod worker_threads. Each loop owns its connections: when one is
/// readable it reads once, decodes every complete frame, processes the
/// requests inline and writes their answers, so a connection's requests are
/// processed and answered strictly in arrival order. The server runs
/// worker_threads + 1 threads however many connections are open. Randomness
/// is per *tenant*: each tenant owns an Rng seeded as a pure function of
/// (options.seed, tenant id), and the tenant's mutex is held across
/// admission + sampling. Consequently a workload in which each tenant's
/// requests arrive on one connection produces bitwise-identical responses,
/// ledgers and audit trails at 1 and at N loops (service_determinism_test
/// pins this).
///
/// Batching. Among the requests of one read, consecutive same-shape
/// requests (same tenant, opcode, dataset and parameters) are coalesced:
/// admission runs per request in order, then the granted draws are funneled
/// into ONE GibbsEstimator::SampleBatch / LaplaceMechanism::ReleaseBatch
/// call and the outputs split back per request. The batch APIs are bit- and
/// stream-identical to per-draw calls, so coalescing changes throughput,
/// not results.
///
/// Fail points: `service.accept` rejects a fresh connection with one
/// structured UNAVAILABLE frame (request_id 0); `service.dispatch` fails a
/// request at dispatch, before admission — a structured UNAVAILABLE
/// response with no ledger mutation; `budget.spend` and `sink.write` fire
/// in the layers below as usual.
class DpReleaseServer {
 public:
  struct Options {
    /// Filesystem path to bind the AF_UNIX socket to (length limited by
    /// sockaddr_un; keep it short). An existing socket file is replaced.
    std::string socket_path;
    /// Event loops serving connections; 0 means
    /// parallel::DefaultThreadCount() (so DPLEARN_THREADS steers it).
    std::size_t worker_threads = 0;
    /// Root seed for the per-tenant Rngs.
    std::uint64_t seed = 1;
    /// Budget auto-registered tenants receive on first spend.
    PrivacyBudget default_tenant_budget{5.0, 1e-6};
  };

  /// Binds, listens, registers the built-in "bernoulli" dataset and starts
  /// the event loops and the accept thread. INVALID_ARGUMENT, before
  /// binding, on an invalid default_tenant_budget (ValidateBudget) or a path
  /// too long for sockaddr_un; errors on socket/bind/listen or epoll failure.
  static StatusOr<std::unique_ptr<DpReleaseServer>> Start(Options options);

  ~DpReleaseServer();

  DpReleaseServer(const DpReleaseServer&) = delete;
  DpReleaseServer& operator=(const DpReleaseServer&) = delete;

  /// Stops accepting, lets each loop answer what it has read, joins all
  /// threads, closes every connection and removes the socket file.
  /// Idempotent.
  void Stop();

  /// Adds (or replaces) a dataset clients can reference by name. Error on
  /// an empty name, empty data, or a null loss.
  Status RegisterDataset(const std::string& name, ServedDataset dataset);

  ShardedPrivacyAccountant& accountant() { return accountant_; }

  /// Frames that failed framing or decoding since start (also exported as
  /// the `service.protocol_errors` counter).
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  /// One event loop: an epoll set and the connections registered in it,
  /// each with its frame decoder. The accept thread adds connections; only
  /// the loop's own thread reads and removes them.
  struct Loop {
    int epoll_fd = -1;
    std::mutex mu;  // guards connections
    std::unordered_map<int, FrameDecoder> connections;
    std::thread thread;
  };

  /// A tenant's live stream over one served dataset: the streaming risk
  /// profile plus the loss keep-alive (the profile holds a raw pointer).
  /// Seeded lazily from the served dataset's examples on the tenant's first
  /// kStreamAppend, so the first streamed posterior continues the batch one.
  struct TenantStream {
    StreamingRiskProfile profile;
    std::shared_ptr<const LossFunction> loss;
    TenantStream(StreamingRiskProfile p, std::shared_ptr<const LossFunction> l)
        : profile(std::move(p)), loss(std::move(l)) {}
  };

  /// Per-tenant sampling state; mu is held across admission + draw so one
  /// tenant's requests serialize even across connections. `streams` (also
  /// under mu — appends and streamed draws serialize with everything else
  /// the tenant does, which is what makes 1-vs-N-loop runs bitwise
  /// identical) maps served-dataset name -> the tenant's private live
  /// stream.
  struct TenantRuntime {
    std::mutex mu;
    Rng rng;
    std::unordered_map<std::string, std::unique_ptr<TenantStream>> streams;
    explicit TenantRuntime(std::uint64_t seed) : rng(seed) {}
  };

  explicit DpReleaseServer(Options options);

  Status Listen();
  /// Creates the wake-up eventfd and every loop's epoll set.
  Status CreateLoops();
  void AcceptLoop();
  void EventLoop(Loop& loop);
  /// One read from a readable connection: decodes every complete frame,
  /// answers the requests in order and, on EOF, a read error or a protocol
  /// error (answered last), closes the connection.
  void ServeReadable(Loop& loop, int fd);
  /// Processes requests[begin..), coalescing a same-shape run, and appends
  /// the response frames to *out. Returns the index one past the run.
  std::size_t ProcessRun(const std::vector<Request>& requests, std::size_t begin,
                         std::string* out);
  Response ProcessSimple(const Request& request);
  /// kStreamAppend: under the tenant lock, lazily seeds the tenant's stream
  /// from the served dataset and appends the decoded example. Appends are
  /// free (no admission spend); the response carries the live stream size.
  Response ProcessStreamAppend(const Request& request);
  void CountProtocolError();

  TenantRuntime& RuntimeFor(const std::string& tenant_id);
  StatusOr<const ServedDataset*> FindDataset(const std::string& name) const;

  /// Shared validation for kRelease / kGibbsSample: bounds on count, the
  /// dataset lookup, parameter sanity. Returns the per-draw privacy cost.
  StatusOr<PrivacyBudget> ValidateSampling(const Request& request,
                                           const ServedDataset** dataset) const;

  /// The SensitiveQuery a kRelease request names, built against the served
  /// dataset's label bounds (which make the sensitivity claims sound).
  static StatusOr<SensitiveQuery> BuildQuery(const Request& request,
                                             const ServedDataset& dataset);

  Options options_;
  ShardedPrivacyAccountant accountant_;

  mutable std::mutex datasets_mu_;
  std::unordered_map<std::string, ServedDataset> datasets_;

  std::mutex tenants_mu_;
  std::unordered_map<std::string, std::unique_ptr<TenantRuntime>> tenants_;

  std::atomic<std::uint64_t> protocol_errors_{0};
  bool stopped_ = false;

  int listen_fd_ = -1;
  /// Registered in every loop's epoll set; Stop() makes it readable, which
  /// wakes every loop for good.
  int wake_fd_ = -1;
  std::vector<Loop> loops_;
  std::thread accept_thread_;
};

}  // namespace service
}  // namespace dplearn

#endif  // DPLEARN_SERVICE_SERVER_H_
