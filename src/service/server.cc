#include "service/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robustness/failpoint.h"

namespace dplearn {
namespace service {
namespace {

/// Ledger shards: tenants hash onto this many independently locked shards.
constexpr std::size_t kShardCount = 16;
/// Per-request draw-count ceiling; larger counts are INVALID_ARGUMENT.
constexpr std::uint32_t kMaxCountPerRequest = 4096;
/// Cap on how many same-shape requests one run coalesces.
constexpr std::size_t kMaxCoalescedRequests = 64;
/// Cap on a tenant stream's live examples; an append past it is
/// RESOURCE_EXHAUSTED. It bounds a stream's memory and the O(|Θ|·n) resync
/// its event loop runs every few thousand appends.
constexpr std::size_t kMaxStreamExamples = std::size_t{1} << 15;

/// FNV-1a over the tenant id, mixed with the server's root seed — a stable,
/// platform-independent function (std::hash is not guaranteed stable), so a
/// tenant's stream is reproducible across runs and binaries.
std::uint64_t TenantSeed(std::uint64_t root_seed, const std::string& tenant_id) {
  std::uint64_t h = 1469598103934665603ULL ^ root_seed;
  for (const char c : tenant_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void SendAll(int fd, const std::string& buffer) {
  std::size_t offset = 0;
  while (offset < buffer.size()) {
    const ssize_t n =
        ::send(fd, buffer.data() + offset, buffer.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; responses to a dead connection are droppable
    }
    offset += static_cast<std::size_t>(n);
  }
}

/// True when `a` can join `b`'s coalesced run: same tenant, same opcode and
/// identical sampling parameters (bitwise on the doubles — the run shares
/// one mechanism object). `count` deliberately excluded: it varies per
/// request and is charged per request.
bool SameShape(const Request& a, const Request& b) {
  if (a.opcode != b.opcode || a.tenant_id != b.tenant_id || a.dataset != b.dataset) {
    return false;
  }
  switch (a.opcode) {
    case Opcode::kRelease:
      return a.mechanism == b.mechanism && a.query == b.query && a.epsilon == b.epsilon &&
             a.delta == b.delta;
    case Opcode::kGibbsSample:
      return a.lambda == b.lambda;
    default:
      return false;  // non-sampling opcodes never coalesce
  }
}

obs::Counter* ServiceCounter(const char* name) {
  return obs::GlobalMetrics().GetCounter(name);
}

void AppendResponse(std::string* out, const Response& response) {
  if (obs::MetricsEnabled()) {
    static obs::Counter* const ok = ServiceCounter("service.responses.ok");
    static obs::Counter* const error = ServiceCounter("service.responses.error");
    (response.code == StatusCode::kOk ? ok : error)->Increment();
  }
  AppendFrame(out, EncodeResponse(response));
}

}  // namespace

DpReleaseServer::DpReleaseServer(Options options)
    : options_(std::move(options)),
      accountant_(ShardedPrivacyAccountant::Options{
          options_.default_tenant_budget, kShardCount,
          /*near_exhaustion_fraction=*/0.9}),
      loops_(options_.worker_threads > 0 ? options_.worker_threads
                                         : parallel::DefaultThreadCount()) {}

StatusOr<std::unique_ptr<DpReleaseServer>> DpReleaseServer::Start(Options options) {
  if (options.socket_path.empty()) {
    return InvalidArgumentError("DpReleaseServer: socket_path must be set");
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("DpReleaseServer: socket path \"" + options.socket_path +
                                "\" exceeds the AF_UNIX path limit");
  }
  // Checked before binding: with an invalid default budget every
  // auto-registration would fail, so the server must not start listening.
  if (const Status budget_ok = ValidateBudget(options.default_tenant_budget); !budget_ok.ok()) {
    return InvalidArgumentError("DpReleaseServer: default_tenant_budget: " +
                                budget_ok.message());
  }
  std::unique_ptr<DpReleaseServer> server(new DpReleaseServer(std::move(options)));

  // The built-in dataset every deployment serves: the paper's smallest
  // exactly-analyzable task (Bernoulli mean, scalar grid, clipped squared
  // loss). Sampled from a seed-derived stream so two servers started with
  // the same seed serve the same bytes.
  DPLEARN_ASSIGN_OR_RETURN(const BernoulliMeanTask task, BernoulliMeanTask::Create(0.3));
  Rng dataset_rng(TenantSeed(server->options_.seed, "__dataset.bernoulli"));
  DPLEARN_ASSIGN_OR_RETURN(Dataset data, task.Sample(200, &dataset_rng));
  DPLEARN_ASSIGN_OR_RETURN(FiniteHypothesisClass grid,
                           FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101));
  ServedDataset bernoulli{std::move(data), std::move(grid),
                          std::make_shared<ClippedSquaredLoss>(1.0),
                          /*label_lo=*/0.0, /*label_hi=*/1.0};
  DPLEARN_RETURN_IF_ERROR(server->RegisterDataset("bernoulli", std::move(bernoulli)));

  DPLEARN_RETURN_IF_ERROR(server->Listen());
  DPLEARN_RETURN_IF_ERROR(server->CreateLoops());
  for (Loop& loop : server->loops_) {
    loop.thread = std::thread(&DpReleaseServer::EventLoop, server.get(), std::ref(loop));
  }
  server->accept_thread_ = std::thread(&DpReleaseServer::AcceptLoop, server.get());
  return server;
}

DpReleaseServer::~DpReleaseServer() { Stop(); }

Status DpReleaseServer::Listen() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("DpReleaseServer: socket(): ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = InternalError(std::string("DpReleaseServer: bind(") +
                                        options_.socket_path + "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status =
        InternalError(std::string("DpReleaseServer: listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  return Status::Ok();
}

Status DpReleaseServer::CreateLoops() {
  wake_fd_ = ::eventfd(0, 0);
  if (wake_fd_ < 0) {
    return InternalError(std::string("DpReleaseServer: eventfd(): ") + std::strerror(errno));
  }
  for (Loop& loop : loops_) {
    loop.epoll_fd = ::epoll_create1(0);
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.fd = wake_fd_;
    if (loop.epoll_fd < 0 || ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, wake_fd_, &wake) < 0) {
      return InternalError(std::string("DpReleaseServer: epoll: ") + std::strerror(errno));
    }
  }
  return Status::Ok();
}

void DpReleaseServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Ends the blocked accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::eventfd_write(wake_fd_, 1);
  for (Loop& loop : loops_) {
    if (loop.thread.joinable()) loop.thread.join();
    for (const auto& connection : loop.connections) ::close(connection.first);
    loop.connections.clear();
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  ::unlink(options_.socket_path.c_str());
}

Status DpReleaseServer::RegisterDataset(const std::string& name, ServedDataset dataset) {
  if (name.empty()) return InvalidArgumentError("RegisterDataset: name must be non-empty");
  if (dataset.data.empty()) {
    return InvalidArgumentError("RegisterDataset: dataset must be non-empty");
  }
  if (dataset.loss == nullptr) return InvalidArgumentError("RegisterDataset: loss must be set");
  if (!(dataset.label_hi > dataset.label_lo)) {
    return InvalidArgumentError("RegisterDataset: label bounds must be a non-empty range");
  }
  std::lock_guard<std::mutex> lock(datasets_mu_);
  datasets_.insert_or_assign(name, std::move(dataset));
  return Status::Ok();
}

StatusOr<const ServedDataset*> DpReleaseServer::FindDataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  const auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return NotFoundError("service: unknown dataset \"" + name + "\"");
  }
  // unordered_map values are pointer-stable under insertion; datasets are
  // registered before traffic references them.
  return &it->second;
}

DpReleaseServer::TenantRuntime& DpReleaseServer::RuntimeFor(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(tenant_id, std::make_unique<TenantRuntime>(
                                     TenantSeed(options_.seed, tenant_id)))
             .first;
  }
  return *it->second;
}

void DpReleaseServer::AcceptLoop() {
  for (std::size_t next_loop = 0;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors or memory: the connection stays in the backlog
        // until a close frees one.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listen socket shut down (Stop) or unrecoverable
    }
    const Status admitted = robustness::Inject("service.accept");
    if (!admitted.ok()) {
      // One structured rejection frame (request_id 0), then close — the
      // client sees UNAVAILABLE and may retry; no request was consumed.
      Response rejection;
      rejection.opcode = Opcode::kPing;
      rejection.request_id = 0;
      rejection.code = admitted.code();
      rejection.message = admitted.message();
      std::string frame;
      AppendFrame(&frame, EncodeResponse(rejection));
      SendAll(fd, frame);
      ::close(fd);
      if (obs::MetricsEnabled()) {
        static obs::Counter* const rejected = ServiceCounter("service.connections.rejected");
        rejected->Increment();
      }
      continue;
    }
    // Round-robin, so the connections spread evenly over the loops. The
    // decoder exists before epoll can report the fd readable.
    Loop& loop = loops_[next_loop++ % loops_.size()];
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      loop.connections.emplace(fd, FrameDecoder());
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &event) < 0) {
      std::lock_guard<std::mutex> lock(loop.mu);
      loop.connections.erase(fd);
      ::close(fd);
      continue;
    }
    if (obs::MetricsEnabled()) {
      static obs::Counter* const accepted = ServiceCounter("service.connections.accepted");
      accepted->Increment();
    }
  }
}

void DpReleaseServer::EventLoop(Loop& loop) {
  epoll_event events[64];
  for (bool woken = false; !woken;) {
    const int ready = ::epoll_wait(loop.epoll_fd, events, 64, -1);
    if (ready < 0 && errno != EINTR) return;
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.fd == wake_fd_) {
        woken = true;  // Stop(): leave once this batch is answered
      } else {
        ServeReadable(loop, events[i].data.fd);
      }
    }
  }
}

void DpReleaseServer::ServeReadable(Loop& loop, int fd) {
  FrameDecoder* decoder = nullptr;
  {
    // Map references survive the accept thread's inserts; only this loop
    // erases.
    std::lock_guard<std::mutex> lock(loop.mu);
    decoder = &loop.connections.at(fd);
  }
  char buffer[4096];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  if (n < 0 && errno == EINTR) return;  // still readable: epoll reports it again
  std::vector<Request> requests;
  Status failure = Status::Ok();
  if (n > 0) {
    decoder->Feed(buffer, static_cast<std::size_t>(n));
    for (;;) {
      std::string payload;
      StatusOr<bool> next = decoder->Next(&payload);
      if (!next.ok()) {
        failure = next.status();
        break;
      }
      if (!*next) break;
      StatusOr<Request> request = DecodeRequest(payload.data(), payload.size());
      if (!request.ok()) {
        failure = request.status();
        break;
      }
      requests.push_back(std::move(*request));
    }
  } else if (decoder->PendingBytes() > 0) {
    // EOF or a read error mid-frame: the peer truncated a length prefix or
    // payload.
    CountProtocolError();
  }

  std::string out;
  for (std::size_t i = 0; i < requests.size();) i = ProcessRun(requests, i, &out);
  if (!failure.ok()) {
    // A framing or decode error ends the connection. Its error frame comes
    // after the answers to every request decoded before it, so it never
    // overtakes one. There is no request_id to echo: unsolicited-frame
    // convention (kPing, id 0).
    CountProtocolError();
    Response response;
    response.opcode = Opcode::kPing;
    response.request_id = 0;
    response.code = failure.code();
    response.message = failure.message();
    AppendResponse(&out, response);
  }
  SendAll(fd, out);
  if (n > 0 && failure.ok()) return;
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    loop.connections.erase(fd);
  }
  ::close(fd);
}

void DpReleaseServer::CountProtocolError() {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    static obs::Counter* const errors = ServiceCounter("service.protocol_errors");
    errors->Increment();
  }
}

std::size_t DpReleaseServer::ProcessRun(const std::vector<Request>& requests,
                                        std::size_t begin, std::string* out) {
  const Request& head = requests[begin];
  if (head.opcode == Opcode::kStreamAppend) {
    // Mutates tenant state, so it takes the tenant lock — never the
    // lock-free ProcessSimple path. SameShape never coalesces it.
    AppendResponse(out, ProcessStreamAppend(head));
    return begin + 1;
  }
  if (head.opcode != Opcode::kRelease && head.opcode != Opcode::kGibbsSample) {
    AppendResponse(out, ProcessSimple(head));
    return begin + 1;
  }

  std::size_t end = begin + 1;
  while (end < requests.size() && end - begin < kMaxCoalescedRequests &&
         SameShape(requests[end], head)) {
    ++end;
  }
  const std::size_t run_size = end - begin;

  obs::TraceSpan span(head.opcode == Opcode::kGibbsSample ? "service.gibbs_run"
                                                          : "service.release_run");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const total = ServiceCounter("service.requests");
    total->Increment(run_size);
    if (run_size > 1) {
      static obs::Counter* const coalesced = ServiceCounter("service.batched_requests");
      coalesced->Increment(run_size);
    }
  }

  // Checked before RuntimeFor, so a malformed id leaves no tenant state.
  const Status tenant_ok = ShardedPrivacyAccountant::ValidateTenantId(head.tenant_id);
  if (!tenant_ok.ok()) {
    for (std::size_t k = begin; k < end; ++k) {
      AppendResponse(out, Response::Error(requests[k], tenant_ok));
    }
    return end;
  }

  // Run-level validation: dataset, parameters, and the per-draw privacy
  // cost — shared by every request of the run (identical shape). Done
  // BEFORE admission so an unservable request can never be charged.
  const ServedDataset* dataset = nullptr;
  StatusOr<PrivacyBudget> per_draw = ValidateSampling(head, &dataset);

  struct Slot {
    Response response;
    bool granted = false;
    std::uint32_t count = 0;
  };
  std::vector<Slot> slots(run_size);
  std::size_t total_draws = 0;

  TenantRuntime& runtime = RuntimeFor(head.tenant_id);
  // One critical section per run: admission and sampling under the tenant
  // lock, so a tenant's requests serialize (and its Rng stream stays a pure
  // function of its request order) even when arriving over many sessions.
  std::lock_guard<std::mutex> tenant_lock(runtime.mu);

  // A tenant with a live stream over this dataset re-tilts from it: the
  // per-draw cost uses the LIVE size (Δ(R̂) <= B/n_live, Theorem 4.1 against
  // the stream), and the draws below go through SampleStreamingBatch.
  // Resolved under the tenant lock so the size admission charges for is
  // exactly the size the draw sees.
  TenantStream* stream = nullptr;
  if (head.opcode == Opcode::kGibbsSample && per_draw.ok()) {
    const auto stream_it = runtime.streams.find(head.dataset);
    if (stream_it != runtime.streams.end()) {
      stream = stream_it->second.get();
      const double sensitivity =
          dataset->loss->UpperBound() / static_cast<double>(stream->profile.size());
      per_draw = PrivacyBudget{2.0 * head.lambda * sensitivity, 0.0};
    }
  }

  for (std::size_t k = 0; k < run_size; ++k) {
    const Request& request = requests[begin + k];
    Slot& slot = slots[k];
    const Status dispatched = robustness::Inject("service.dispatch");
    if (!dispatched.ok()) {
      // Fails before admission: structured UNAVAILABLE, no ledger mutation.
      slot.response = Response::Error(request, dispatched);
      continue;
    }
    if (!per_draw.ok()) {
      slot.response = Response::Error(request, per_draw.status());
      continue;
    }
    if (request.count == 0 || request.count > kMaxCountPerRequest) {
      slot.response = Response::Error(
          request, InvalidArgumentError("service: count must be in [1, " +
                                        std::to_string(kMaxCountPerRequest) +
                                        "], got " + std::to_string(request.count)));
      continue;
    }
    const PrivacyBudget cost{per_draw->epsilon * static_cast<double>(request.count),
                             per_draw->delta * static_cast<double>(request.count)};
    const Status admitted = accountant_.SpendOrReject(
        request.tenant_id, cost,
        head.opcode == Opcode::kGibbsSample ? "service.gibbs" : "service.release");
    if (!admitted.ok()) {
      slot.response = Response::Error(request, admitted);
      continue;
    }
    slot.granted = true;
    slot.count = request.count;
    slot.response.opcode = request.opcode;
    slot.response.request_id = request.request_id;
    slot.response.charged_epsilon = cost.epsilon;
    slot.response.charged_delta = cost.delta;
    total_draws += request.count;
  }

  // Sampling: the granted draws of the whole run funnel into ONE batched
  // call on the tenant's Rng. The batch APIs are stream-identical to
  // per-draw calls, so the split-back below is bitwise what serial
  // processing would have produced.
  if (total_draws > 0) {
    static obs::Histogram* const gibbs_us = obs::GlobalMetrics().GetHistogram("service.gibbs.us");
    static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(
        "service.release.us");
    Status sampled = Status::Ok();
    std::size_t produced = 0;
    std::vector<std::size_t> gibbs_draws;
    std::vector<double> release_draws;
    if (head.opcode == Opcode::kGibbsSample) {
      obs::LatencyTimer timer(obs::MetricsEnabled() ? gibbs_us : nullptr);
      StatusOr<GibbsEstimator> estimator = GibbsEstimator::CreateUniform(
          dataset->loss.get(), dataset->hypotheses, head.lambda);
      if (!estimator.ok()) {
        sampled = estimator.status();
      } else {
        sampled = stream != nullptr
                      ? estimator->SampleStreamingBatch(stream->profile, &runtime.rng,
                                                        total_draws, &gibbs_draws)
                      : estimator->SampleBatch(dataset->data, &runtime.rng, total_draws,
                                               &gibbs_draws);
        produced = sampled.ok() ? gibbs_draws.size() : 0;
      }
    } else if (head.mechanism == MechanismKind::kLaplace) {
      obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
      StatusOr<SensitiveQuery> query = BuildQuery(head, *dataset);
      StatusOr<LaplaceMechanism> mechanism =
          query.ok() ? LaplaceMechanism::Create(std::move(*query), head.epsilon)
                     : StatusOr<LaplaceMechanism>(query.status());
      if (!mechanism.ok()) {
        sampled = mechanism.status();
      } else {
        sampled =
            mechanism->ReleaseBatch(dataset->data, &runtime.rng, total_draws, &release_draws);
        // On error ReleaseBatch leaves the successful prefix in place —
        // requests fully inside it still succeed below.
        produced = release_draws.size();
        if (sampled.ok()) produced = total_draws;
      }
    } else {  // Gaussian
      obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);
      StatusOr<SensitiveQuery> query = BuildQuery(head, *dataset);
      StatusOr<GaussianMechanism> mechanism =
          query.ok() ? GaussianMechanism::Create(std::move(*query),
                                                 PrivacyBudget{head.epsilon, head.delta})
                     : StatusOr<GaussianMechanism>(query.status());
      if (!mechanism.ok()) {
        sampled = mechanism.status();
      } else {
        release_draws.reserve(total_draws);
        for (std::size_t j = 0; j < total_draws && sampled.ok(); ++j) {
          StatusOr<double> draw = mechanism->Release(dataset->data, &runtime.rng);
          if (!draw.ok()) {
            sampled = draw.status();
          } else {
            release_draws.push_back(*draw);
          }
        }
        produced = release_draws.size();
      }
    }

    // Split the draws back in request order. A request whose draws fall
    // entirely inside the successful prefix answers OK; from the failing
    // draw onward, granted requests answer with the sampling error. Their
    // spends STAND — admission is fail-closed; once granted, budget is
    // never refunded (the randomness may have been partially consumed).
    std::size_t offset = 0;
    std::size_t orphaned = 0;
    for (Slot& slot : slots) {
      if (!slot.granted) continue;
      if (sampled.ok() || offset + slot.count <= produced) {
        if (head.opcode == Opcode::kGibbsSample) {
          slot.response.indices.reserve(slot.count);
          for (std::uint32_t j = 0; j < slot.count; ++j) {
            slot.response.indices.push_back(
                static_cast<std::uint32_t>(gibbs_draws[offset + j]));
          }
        } else {
          slot.response.values.assign(release_draws.begin() + offset,
                                      release_draws.begin() + offset + slot.count);
        }
      } else {
        const Request& request = requests[begin + (&slot - slots.data())];
        slot.response = Response::Error(request, sampled);
        ++orphaned;
      }
      offset += slot.count;
    }
    if (orphaned > 0 && obs::MetricsEnabled()) {
      static obs::Counter* const orphans = ServiceCounter("service.orphaned_spends");
      orphans->Increment(orphaned);
    }
    if (obs::MetricsEnabled() && run_size > 1) {
      static obs::Counter* const batched = ServiceCounter("service.batched_draws");
      batched->Increment(total_draws);
    }
  }

  for (const Slot& slot : slots) AppendResponse(out, slot.response);
  return end;
}

StatusOr<SensitiveQuery> DpReleaseServer::BuildQuery(const Request& request,
                                                     const ServedDataset& dataset) {
  switch (request.query) {
    case QueryKind::kMean:
      return BoundedMeanQuery(dataset.label_lo, dataset.label_hi, dataset.data.size());
    case QueryKind::kSum:
      return BoundedSumQuery(dataset.label_lo, dataset.label_hi);
    case QueryKind::kCountPositive:
      return CountQuery([](const Example& example) { return example.label > 0.0; });
  }
  return InvalidArgumentError("service: unknown query kind");
}

StatusOr<PrivacyBudget> DpReleaseServer::ValidateSampling(const Request& request,
                                                          const ServedDataset** dataset) const {
  DPLEARN_ASSIGN_OR_RETURN(const ServedDataset* found, FindDataset(request.dataset));
  *dataset = found;
  if (request.opcode == Opcode::kGibbsSample) {
    if (!(request.lambda > 0.0) || !std::isfinite(request.lambda)) {
      return InvalidArgumentError("service: lambda must be positive and finite");
    }
    // Theorem 4.1: one Gibbs draw is 2λΔ(R̂)-DP with Δ(R̂) <= B/n.
    const double sensitivity =
        found->loss->UpperBound() / static_cast<double>(found->data.size());
    return PrivacyBudget{2.0 * request.lambda * sensitivity, 0.0};
  }
  if (!(request.epsilon > 0.0) || !std::isfinite(request.epsilon)) {
    return InvalidArgumentError("service: epsilon must be positive and finite");
  }
  if (request.mechanism == MechanismKind::kLaplace) {
    if (request.delta != 0.0) {
      return InvalidArgumentError("service: the Laplace mechanism is pure ε-DP; delta must be 0");
    }
    return PrivacyBudget{request.epsilon, 0.0};
  }
  // Gaussian: mirror GaussianMechanism::Create's domain so an unservable
  // request is rejected before admission can charge it.
  if (request.epsilon > 1.0) {
    return InvalidArgumentError("service: Gaussian mechanism requires epsilon in (0,1]");
  }
  if (!(request.delta > 0.0) || request.delta >= 1.0) {
    return InvalidArgumentError("service: Gaussian mechanism requires delta in (0,1)");
  }
  return PrivacyBudget{request.epsilon, request.delta};
}

Response DpReleaseServer::ProcessSimple(const Request& request) {
  obs::TraceSpan span("service.request");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const total = ServiceCounter("service.requests");
    total->Increment();
  }
  const Status dispatched = robustness::Inject("service.dispatch");
  if (!dispatched.ok()) return Response::Error(request, dispatched);

  Response response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  switch (request.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kRegisterTenant: {
      const Status registered = accountant_.RegisterTenant(
          request.tenant_id, PrivacyBudget{request.epsilon, request.delta});
      if (!registered.ok()) return Response::Error(request, registered);
      break;
    }
    case Opcode::kBudgetQuery: {
      StatusOr<ShardedPrivacyAccountant::TenantView> view =
          accountant_.View(request.tenant_id);
      if (!view.ok()) return Response::Error(request, view.status());
      response.total_epsilon = view->total.epsilon;
      response.total_delta = view->total.delta;
      response.spent_epsilon = view->spent.epsilon;
      response.spent_delta = view->spent.delta;
      response.remaining_epsilon = view->remaining.epsilon;
      response.remaining_delta = view->remaining.delta;
      response.spends = view->spends;
      response.denials = view->denials;
      break;
    }
    case Opcode::kReplayVerify: {
      const Status verified = accountant_.ReplayVerifyAll();
      if (!verified.ok()) return Response::Error(request, verified);
      break;
    }
    default:
      return Response::Error(request,
                             InvalidArgumentError("service: opcode not servable here"));
  }
  return response;
}

Response DpReleaseServer::ProcessStreamAppend(const Request& request) {
  obs::TraceSpan span("service.stream_append");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const total = ServiceCounter("service.requests");
    total->Increment();
  }
  const Status dispatched = robustness::Inject("service.dispatch");
  if (!dispatched.ok()) return Response::Error(request, dispatched);

  const Status tenant_ok = ShardedPrivacyAccountant::ValidateTenantId(request.tenant_id);
  if (!tenant_ok.ok()) return Response::Error(request, tenant_ok);
  StatusOr<const ServedDataset*> found = FindDataset(request.dataset);
  if (!found.ok()) return Response::Error(request, found.status());
  const ServedDataset* dataset = *found;

  TenantRuntime& runtime = RuntimeFor(request.tenant_id);
  std::lock_guard<std::mutex> tenant_lock(runtime.mu);

  auto it = runtime.streams.find(request.dataset);
  if (it == runtime.streams.end()) {
    // First append: seed the stream from the served dataset so the streamed
    // posterior continues the batch one (the first kGibbsSample after one
    // append sees n_live = n_base + 1).
    StatusOr<StreamingRiskProfile> profile = StreamingRiskProfile::Create(
        dataset->loss.get(), dataset->hypotheses.thetas(),
        StreamingRiskProfile::Options{});
    if (!profile.ok()) return Response::Error(request, profile.status());
    for (const Example& z : dataset->data.examples()) {
      const Status seeded = profile->AddExample(z);
      if (!seeded.ok()) return Response::Error(request, seeded);
    }
    it = runtime.streams
             .emplace(request.dataset,
                      std::make_unique<TenantStream>(std::move(*profile), dataset->loss))
             .first;
  }

  if (it->second->profile.size() >= kMaxStreamExamples) {
    if (obs::MetricsEnabled()) {
      static obs::Counter* const rejected =
          ServiceCounter("service.stream_appends_rejected");
      rejected->Increment();
    }
    return Response::Error(
        request, ResourceExhaustedError("service: stream holds the maximum of " +
                                        std::to_string(kMaxStreamExamples) + " examples"));
  }
  Example example;
  example.features = Vector(request.features.begin(), request.features.end());
  example.label = request.label;
  const Status appended = it->second->profile.AddExample(example);
  if (!appended.ok()) return Response::Error(request, appended);

  if (obs::MetricsEnabled()) {
    static obs::Counter* const appends = ServiceCounter("service.stream_appends");
    appends->Increment();
  }
  Response response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.stream_size = static_cast<std::uint64_t>(it->second->profile.size());
  return response;
}

}  // namespace service
}  // namespace dplearn
