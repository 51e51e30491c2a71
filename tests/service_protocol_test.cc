// Pins the wire protocol of the DP release service (DESIGN.md §13): codec
// round-trips are bitwise, every malformed input yields a typed Status
// (never UB, never a crash), and the server answers protocol and
// validation failures with structured error responses while staying up
// for the next connection.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "robustness/failpoint.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/status.h"

namespace dplearn {
namespace service {
namespace {

Request MakeGibbs(std::uint64_t id, const std::string& tenant,
                  double lambda = 1.0, std::uint32_t count = 1) {
  Request request;
  request.opcode = Opcode::kGibbsSample;
  request.request_id = id;
  request.tenant_id = tenant;
  request.dataset = "bernoulli";
  request.lambda = lambda;
  request.count = count;
  return request;
}

Request MakeRelease(std::uint64_t id, const std::string& tenant,
                    MechanismKind mechanism = MechanismKind::kLaplace,
                    double epsilon = 0.1, double delta = 0.0,
                    std::uint32_t count = 1) {
  Request request;
  request.opcode = Opcode::kRelease;
  request.request_id = id;
  request.tenant_id = tenant;
  request.mechanism = mechanism;
  request.query = QueryKind::kMean;
  request.dataset = "bernoulli";
  request.epsilon = epsilon;
  request.delta = delta;
  request.count = count;
  return request;
}

// ---------------------------------------------------------------------------
// Codec round-trips (no server).

TEST(ProtocolCodec, RequestRoundTripsBitwise) {
  Request request = MakeRelease(0x0123456789abcdefULL, "tenant-a_1",
                                MechanismKind::kGaussian, 0.25, 1e-7, 17);
  request.query = QueryKind::kCountPositive;
  const std::string payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->opcode, request.opcode);
  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->tenant_id, request.tenant_id);
  EXPECT_EQ(decoded->mechanism, request.mechanism);
  EXPECT_EQ(decoded->query, request.query);
  EXPECT_EQ(decoded->dataset, request.dataset);
  // Doubles travel as IEEE-754 bit patterns: compare representations, not
  // values, because the determinism gates rely on bitwise round-trips.
  std::uint64_t sent_bits = 0, got_bits = 0;
  std::memcpy(&sent_bits, &request.epsilon, sizeof(sent_bits));
  std::memcpy(&got_bits, &decoded->epsilon, sizeof(got_bits));
  EXPECT_EQ(sent_bits, got_bits);
  EXPECT_EQ(decoded->count, request.count);
}

TEST(ProtocolCodec, EveryOpcodeRoundTrips) {
  for (const Opcode opcode :
       {Opcode::kPing, Opcode::kRelease, Opcode::kGibbsSample,
        Opcode::kBudgetQuery, Opcode::kRegisterTenant, Opcode::kReplayVerify,
        Opcode::kStreamAppend}) {
    Request request;
    request.opcode = opcode;
    request.request_id = 7;
    request.tenant_id = (opcode == Opcode::kPing || opcode == Opcode::kReplayVerify)
                            ? ""
                            : "t0";
    request.dataset = "bernoulli";
    request.epsilon = 0.5;
    request.lambda = 2.0;
    request.count = 3;
    const std::string payload = EncodeRequest(request);
    auto decoded = DecodeRequest(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok())
        << "opcode " << static_cast<int>(opcode) << ": "
        << decoded.status().ToString();
    EXPECT_EQ(decoded->opcode, opcode);
  }
}

TEST(ProtocolCodec, ResponseRoundTripsValuesAndIndices) {
  Response response;
  response.opcode = Opcode::kGibbsSample;
  response.request_id = 42;
  response.code = StatusCode::kOk;
  response.charged_epsilon = 0.375;
  response.indices = {0, 5, 100};
  const std::string payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->indices, response.indices);
  EXPECT_EQ(decoded->charged_epsilon, response.charged_epsilon);
}

TEST(ProtocolCodec, ErrorResponseCarriesCodeAndMessage) {
  Response response;
  response.opcode = Opcode::kRelease;
  response.request_id = 9;
  response.code = StatusCode::kResourceExhausted;
  response.message = "tenant over budget";
  const std::string payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->message, "tenant over budget");
  EXPECT_TRUE(decoded->values.empty());
}

TEST(ProtocolCodec, StreamAppendRoundTripsExampleBitsExactly) {
  // The appended example must reach the server-side StreamingRiskProfile
  // bitwise intact: signed zeros and denormals are the canaries.
  Request request;
  request.opcode = Opcode::kStreamAppend;
  request.request_id = 77;
  request.tenant_id = "stream-t";
  request.dataset = "bernoulli";
  request.label = -0.0;
  request.features = {1.0, std::numeric_limits<double>::denorm_min(), -3.5};
  const std::string payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->opcode, Opcode::kStreamAppend);
  EXPECT_EQ(decoded->dataset, request.dataset);
  ASSERT_EQ(decoded->features.size(), request.features.size());
  EXPECT_EQ(std::memcmp(decoded->features.data(), request.features.data(),
                        request.features.size() * sizeof(double)),
            0);
  std::uint64_t sent_bits = 0, got_bits = 0;
  std::memcpy(&sent_bits, &request.label, sizeof(sent_bits));
  std::memcpy(&got_bits, &decoded->label, sizeof(got_bits));
  EXPECT_EQ(sent_bits, got_bits);  // -0.0, not 0.0
}

TEST(ProtocolCodec, StreamAppendResponseCarriesStreamSize) {
  Response response;
  response.opcode = Opcode::kStreamAppend;
  response.request_id = 8;
  response.code = StatusCode::kOk;
  response.stream_size = 4242;
  const std::string payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stream_size, 4242u);
}

// ---------------------------------------------------------------------------
// Malformed payloads: typed errors, never UB.

TEST(ProtocolCodec, RejectsWrongVersion) {
  std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  payload[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_EQ(DecodeRequest(payload.data(), payload.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolCodec, RejectsUnknownOpcode) {
  std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  payload[1] = static_cast<char>(250);
  EXPECT_EQ(DecodeRequest(payload.data(), payload.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolCodec, RejectsEveryTruncationPoint) {
  const std::string payload = EncodeRequest(
      MakeRelease(1, "tenant", MechanismKind::kLaplace, 0.1, 0.0, 2));
  // Every proper prefix must decode to a typed error (ASan/UBSan would
  // flag an out-of-bounds read here if any ByteReader bound were missing).
  for (std::size_t n = 0; n < payload.size(); ++n) {
    auto decoded = DecodeRequest(payload.data(), n);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolCodec, StreamAppendRejectsOversizedFeatureDim) {
  // kMaxStreamFeatureDim caps the decoder-side allocation far below what a
  // u16 dim field (or the frame cap) could demand of a hostile client.
  Request request;
  request.opcode = Opcode::kStreamAppend;
  request.request_id = 1;
  request.tenant_id = "t";
  request.dataset = "bernoulli";
  request.features.assign(kMaxStreamFeatureDim + 1, 0.5);
  const std::string payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload.data(), payload.size());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  request.features.resize(kMaxStreamFeatureDim);  // exactly at the cap: fine
  const std::string ok_payload = EncodeRequest(request);
  EXPECT_TRUE(DecodeRequest(ok_payload.data(), ok_payload.size()).ok());
}

TEST(ProtocolCodec, RejectsTrailingBytes) {
  std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  payload.push_back('\0');
  EXPECT_EQ(DecodeRequest(payload.data(), payload.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolCodec, ResponseRejectsUnknownStatusCode) {
  Response response;
  response.opcode = Opcode::kPing;
  response.code = StatusCode::kOk;
  std::string payload = EncodeResponse(response);
  payload[1 + 1 + 8] = static_cast<char>(99);  // status_code byte
  EXPECT_EQ(DecodeResponse(payload.data(), payload.size()).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// FrameDecoder: reassembly and sticky framing errors.

TEST(FrameDecoderTest, ReassemblesByteAtATime) {
  const std::string payload = EncodeRequest(MakeGibbs(3, "t"));
  std::string wire;
  AppendFrame(&wire, payload);
  AppendFrame(&wire, payload);

  FrameDecoder decoder;
  int frames = 0;
  for (char byte : wire) {
    decoder.Feed(&byte, 1);
    for (;;) {
      std::string out;
      auto next = decoder.Next(&out);
      ASSERT_TRUE(next.ok());
      if (!*next) break;
      EXPECT_EQ(out, payload);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(decoder.PendingBytes(), 0u);
}

TEST(FrameDecoderTest, UndersizedLengthIsStickyError) {
  FrameDecoder decoder;
  const std::uint32_t tiny = 2;  // below kMinPayloadBytes
  char header[kFrameHeaderBytes];
  std::memcpy(header, &tiny, sizeof(tiny));
  decoder.Feed(header, sizeof(header));
  std::string out;
  EXPECT_EQ(decoder.Next(&out).status().code(), StatusCode::kInvalidArgument);
  // Sticky: once framing is lost the stream cannot be resynchronized.
  const std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  std::string wire;
  AppendFrame(&wire, payload);
  decoder.Feed(wire.data(), wire.size());
  EXPECT_EQ(decoder.Next(&out).status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, OversizedLengthIsError) {
  FrameDecoder decoder(/*max_payload=*/64);
  const std::uint32_t huge = 65;
  char header[kFrameHeaderBytes];
  std::memcpy(header, &huge, sizeof(huge));
  decoder.Feed(header, sizeof(header));
  std::string out;
  EXPECT_EQ(decoder.Next(&out).status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, PendingBytesExposesTruncation) {
  const std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  std::string wire;
  AppendFrame(&wire, payload);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size() - 3);  // truncated mid-payload
  std::string out;
  auto next = decoder.Next(&out);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
  EXPECT_GT(decoder.PendingBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Server-level behavior: structured errors, survival across bad clients.

void SetReceiveTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

// The open descriptors of this process, the in-process server's included.
std::vector<int> OpenDescriptors() {
  std::vector<int> fds;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    fds.push_back(std::stoi(entry.path().filename().string()));
  }
  return fds;
}

// Lowers the soft RLIMIT_NOFILE for its lifetime.
class ScopedDescriptorLimit {
 public:
  explicit ScopedDescriptorLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~ScopedDescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  ScopedDescriptorLimit(const ScopedDescriptorLimit&) = delete;
  ScopedDescriptorLimit& operator=(const ScopedDescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

std::string PingFrame(std::uint64_t request_id) {
  Request ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = request_id;
  std::string wire;
  AppendFrame(&wire, EncodeRequest(ping));
  return wire;
}

class ServiceProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DpReleaseServer::Options options;
    socket_path_ = "/tmp/dpl_pt_" + std::to_string(::getpid()) + "_" +
                   std::to_string(++socket_counter_) + ".sock";
    options.socket_path = socket_path_;
    options.worker_threads = 2;
    options.seed = 11;
    auto started = DpReleaseServer::Start(options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(*started);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  DpReleaseClient MustConnect() {
    auto client = DpReleaseClient::Connect(socket_path_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  // Raw socket for sending deliberately malformed bytes. Its reads give up
  // after 2 s, so a server that never answers fails the test instead of
  // hanging it.
  int RawConnect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(ConnectSocket(fd), 0);
    SetReceiveTimeout(fd, std::chrono::seconds(2));
    return fd;
  }

  int ConnectSocket(int fd) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socket_path_.c_str());
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  // Reads one full response frame off a raw socket.
  StatusOr<Response> RawReceive(int fd) {
    FrameDecoder decoder;
    char buffer[1024];
    for (;;) {
      std::string payload;
      auto next = decoder.Next(&payload);
      if (!next.ok()) return next.status();
      if (*next) return DecodeResponse(payload.data(), payload.size());
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) return UnavailableError("server closed the connection");
      if (n < 0) return UnavailableError("no answer before the receive timeout");
      decoder.Feed(buffer, static_cast<std::size_t>(n));
    }
  }

  static int socket_counter_;
  std::string socket_path_;
  std::unique_ptr<DpReleaseServer> server_;
};

int ServiceProtocolTest::socket_counter_ = 0;

TEST(ServiceStartTest, InvalidDefaultTenantBudgetFailsBeforeBinding) {
  // Such a server would answer every tenant's first spend with
  // INVALID_ARGUMENT, so it must not start at all.
  const std::string path = "/tmp/dpl_pt_" + std::to_string(::getpid()) + "_budget.sock";
  for (const PrivacyBudget& budget : {PrivacyBudget{0.0, 0.0}, PrivacyBudget{1.0, 1.0},
                                      PrivacyBudget{1.0, std::nan("")}}) {
    ::unlink(path.c_str());
    DpReleaseServer::Options options;
    options.socket_path = path;
    options.default_tenant_budget = budget;
    auto started = DpReleaseServer::Start(options);
    EXPECT_EQ(started.status().code(), StatusCode::kInvalidArgument)
        << "budget (" << budget.epsilon << ", " << budget.delta << ")";
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST_F(ServiceProtocolTest, PingAndReplayVerifyWork) {
  DpReleaseClient client = MustConnect();
  Request ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 1;
  auto response = client.Call(ping);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->request_id, 1u);

  Request verify;
  verify.opcode = Opcode::kReplayVerify;
  verify.request_id = 2;
  response = client.Call(verify);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOk);
}

TEST_F(ServiceProtocolTest, GarbagePayloadGetsStructuredErrorAndServerSurvives) {
  const int fd = RawConnect();
  std::string garbage(kMinPayloadBytes + 4, '\xff');
  std::string wire;
  AppendFrame(&wire, garbage);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto response = RawReceive(fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Unsolicited-frame convention: kPing, request_id 0, decode diagnostic.
  EXPECT_EQ(response->opcode, Opcode::kPing);
  EXPECT_EQ(response->request_id, 0u);
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  ::close(fd);
  EXPECT_GE(server_->protocol_errors(), 1u);

  // The server is still healthy for the next client.
  DpReleaseClient client = MustConnect();
  Request ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 5;
  auto ok = client.Call(ping);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->code, StatusCode::kOk);
}

TEST_F(ServiceProtocolTest, UndersizedFrameLengthGetsStructuredError) {
  const int fd = RawConnect();
  const std::uint32_t tiny = 1;
  char header[kFrameHeaderBytes];
  std::memcpy(header, &tiny, sizeof(tiny));
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  auto response = RawReceive(fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 0u);
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  ::close(fd);
}

TEST_F(ServiceProtocolTest, TruncatedFrameAtEofIsCounted) {
  const int fd = RawConnect();
  const std::string payload = EncodeRequest(MakeGibbs(1, "t"));
  std::string wire;
  AppendFrame(&wire, payload);
  // Send all but the last byte, then hang up mid-frame.
  ASSERT_EQ(::send(fd, wire.data(), wire.size() - 1, 0),
            static_cast<ssize_t>(wire.size() - 1));
  ::close(fd);
  // The server notices the truncation at EOF asynchronously.
  for (int i = 0; i < 200 && server_->protocol_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServiceProtocolTest, ProtocolErrorFollowsEarlierResponses) {
  // Three pings and a garbage frame in one write: the pings are answered in
  // order, then the error frame arrives, then the server hangs up.
  std::string wire = PingFrame(1) + PingFrame(2) + PingFrame(3);
  AppendFrame(&wire, std::string(kMinPayloadBytes + 4, '\xff'));
  for (int trial = 0; trial < 20; ++trial) {
    const int fd = RawConnect();
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    FrameDecoder decoder;
    char buffer[1024];
    ssize_t n = 0;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      decoder.Feed(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(n, 0) << "trial " << trial << ": the connection was not closed";

    std::vector<std::uint64_t> ids;
    StatusCode last_code = StatusCode::kOk;
    std::string payload;
    for (auto next = decoder.Next(&payload); next.ok() && *next;
         next = decoder.Next(&payload)) {
      auto response = DecodeResponse(payload.data(), payload.size());
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ids.push_back(response->request_id);
      last_code = response->code;
    }
    ASSERT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 0})) << "trial " << trial;
    EXPECT_EQ(last_code, StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(server_->protocol_errors(), 20u);
}

TEST_F(ServiceProtocolTest, ClosedConnectionsReleaseTheirDescriptors) {
  const std::string ping = PingFrame(1);
  const std::size_t before = OpenDescriptors().size();
  for (int cycle = 0; cycle < 500; ++cycle) {
    const int fd = RawConnect();
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0), static_cast<ssize_t>(ping.size()));
    auto response = RawReceive(fd);
    ::close(fd);
    ASSERT_TRUE(response.ok()) << "cycle " << cycle << ": " << response.status().ToString();
  }
  // The server closes its end when it reads the EOF; let the last closes land.
  std::size_t after = OpenDescriptors().size();
  for (int i = 0; i < 200 && after > before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = OpenDescriptors().size();
  }
  EXPECT_LE(after, before);
}

TEST_F(ServiceProtocolTest, AcceptRecoversAfterDescriptorExhaustion) {
  const std::string ping = PingFrame(1);
  // Made before the table fills, so it can still dial the server after.
  const int late = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(late, 0);
  std::vector<int> held;
  {
    const std::vector<int> open = OpenDescriptors();
    ScopedDescriptorLimit limit(
        static_cast<rlim_t>(*std::max_element(open.begin(), open.end()) + 64));
    // Hold connections until this process (client ends and server ends
    // together) has no descriptor left.
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) break;
      held.push_back(fd);
      if (ConnectSocket(fd) != 0) break;
    }
    ASSERT_GT(held.size(), 1u);
    // With the table full, accepting `late` fails with EMFILE.
    ASSERT_EQ(ConnectSocket(late), 0);
    ASSERT_EQ(::send(late, ping.data(), ping.size(), 0), static_cast<ssize_t>(ping.size()));
    SetReceiveTimeout(late, std::chrono::milliseconds(200));
    EXPECT_FALSE(RawReceive(late).ok()) << "accepted with no descriptor free";

    for (const int fd : held) ::close(fd);
    SetReceiveTimeout(late, std::chrono::seconds(2));
    auto queued = RawReceive(late);
    EXPECT_TRUE(queued.ok()) << "the queued connection: " << queued.status().ToString();
    ::close(late);

    const int fresh = RawConnect();
    ASSERT_EQ(::send(fresh, ping.data(), ping.size(), 0), static_cast<ssize_t>(ping.size()));
    auto answered = RawReceive(fresh);
    ::close(fresh);
    ASSERT_TRUE(answered.ok()) << "a new client: " << answered.status().ToString();
    EXPECT_EQ(answered->code, StatusCode::kOk);
  }
}

TEST_F(ServiceProtocolTest, ValidationErrorsAreStructuredNotFatal) {
  DpReleaseClient client = MustConnect();

  // Unknown dataset.
  Request request = MakeGibbs(1, "tenant-v");
  request.dataset = "no-such-dataset";
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  // count = 0.
  request = MakeGibbs(2, "tenant-v", 1.0, 0);
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);

  // count above the server's per-request ceiling of 4096.
  request = MakeGibbs(3, "tenant-v", 1.0, 4097);
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);

  // Laplace is pure ε-DP: a nonzero delta is a caller bug.
  request = MakeRelease(4, "tenant-v", MechanismKind::kLaplace, 0.1, 1e-6);
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);

  // Gaussian requires ε in (0,1] and δ in (0,1) — checked BEFORE admission
  // so an unsatisfiable request cannot burn budget.
  request = MakeRelease(5, "tenant-v", MechanismKind::kGaussian, 1.5, 1e-6);
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);

  // Malformed tenant id.
  request = MakeGibbs(6, "bad tenant!");
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);

  // None of the rejects burned budget: the tenant was never registered.
  Request query;
  query.opcode = Opcode::kBudgetQuery;
  query.request_id = 7;
  query.tenant_id = "tenant-v";
  response = client.Call(query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  EXPECT_EQ(server_->protocol_errors(), 0u);
}

TEST_F(ServiceProtocolTest, OverBudgetIsResourceExhaustedAndLedgered) {
  DpReleaseClient client = MustConnect();

  Request reg;
  reg.opcode = Opcode::kRegisterTenant;
  reg.request_id = 1;
  reg.tenant_id = "tight";
  reg.epsilon = 0.05;
  reg.delta = 0.0;
  auto response = client.Call(reg);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk);

  // One ε=0.03 release fits; the second must be denied, with the denial
  // recorded in the tenant's ledger and totals untouched.
  auto first = client.Call(MakeRelease(2, "tight", MechanismKind::kLaplace, 0.03));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, StatusCode::kOk);
  EXPECT_EQ(first->charged_epsilon, 0.03);
  ASSERT_EQ(first->values.size(), 1u);

  auto second = client.Call(MakeRelease(3, "tight", MechanismKind::kLaplace, 0.03));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, StatusCode::kResourceExhausted);

  Request query;
  query.opcode = Opcode::kBudgetQuery;
  query.request_id = 4;
  query.tenant_id = "tight";
  auto view = client.Call(query);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->code, StatusCode::kOk);
  EXPECT_EQ(view->spent_epsilon, 0.03);
  EXPECT_EQ(view->spends, 1u);
  EXPECT_EQ(view->denials, 1u);

  // And the ledger replays cleanly after the denial.
  EXPECT_TRUE(server_->accountant().ReplayVerifyAll().ok());
}

TEST_F(ServiceProtocolTest, StreamAppendGrowsTheStreamAndNeverTouchesTheLedger) {
  DpReleaseClient client = MustConnect();
  Request append;
  append.opcode = Opcode::kStreamAppend;
  append.request_id = 1;
  append.tenant_id = "streamer";
  append.dataset = "bernoulli";
  append.features = {1.0};
  append.label = 1.0;

  // First append lazily seeds the stream from the 200-example served
  // dataset, so the reported live size starts at 201 and grows by one.
  auto response = client.Call(append);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->stream_size, 201u);
  EXPECT_EQ(response->charged_epsilon, 0.0);

  append.request_id = 2;
  append.label = 0.0;
  response = client.Call(append);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->stream_size, 202u);

  // The error taxonomy crosses the wire: missing or malformed tenant,
  // unknown dataset, non-finite label — each a typed rejection that leaves
  // the stream alone.
  Request bad = append;
  bad.request_id = 3;
  for (const char* tenant_id : {"", "bad tenant!"}) {
    bad.tenant_id = tenant_id;
    response = client.Call(bad);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument) << "tenant '" << tenant_id << "'";
  }

  bad = append;
  bad.request_id = 4;
  bad.dataset = "no-such-dataset";
  response = client.Call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  bad = append;
  bad.request_id = 5;
  bad.label = std::numeric_limits<double>::quiet_NaN();
  response = client.Call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOutOfRange);

  append.request_id = 6;
  append.label = 1.0;
  response = client.Call(append);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->stream_size, 203u);  // the rejects appended nothing

  // Appends are free (growing n only shrinks per-draw ε), so the tenant
  // was never registered with the accountant at all.
  Request query;
  query.opcode = Opcode::kBudgetQuery;
  query.request_id = 7;
  query.tenant_id = "streamer";
  response = client.Call(query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  // A streamed Gibbs draw now charges at the LIVE size: 2λB/203, not
  // 2λB/200 — the continual-release accounting this layer exists for.
  Request gibbs = MakeGibbs(8, "streamer", /*lambda=*/1.0, /*count=*/1);
  auto draw = client.Call(gibbs);
  ASSERT_TRUE(draw.ok());
  ASSERT_EQ(draw->code, StatusCode::kOk);
  EXPECT_EQ(draw->charged_epsilon, 2.0 * 1.0 * 1.0 / 203.0);
  ASSERT_EQ(draw->indices.size(), 1u);
}

TEST_F(ServiceProtocolTest, StreamAppendPastTheCapIsResourceExhausted) {
  // The server caps a stream at 2^15 live examples. Fill it, pipelining
  // the appends in bursts to keep the test fast.
  constexpr std::uint64_t kStreamCap = std::uint64_t{1} << 15;
  DpReleaseClient client = MustConnect();
  Request append;
  append.opcode = Opcode::kStreamAppend;
  append.tenant_id = "hoarder";
  append.dataset = "bernoulli";
  append.features = {1.0};
  append.label = 1.0;
  std::uint64_t request_id = 0;
  std::uint64_t size = 200;  // the served dataset seeds the stream
  while (size < kStreamCap) {
    const std::uint64_t burst = std::min<std::uint64_t>(256, kStreamCap - size);
    for (std::uint64_t i = 0; i < burst; ++i) {
      append.request_id = ++request_id;
      ASSERT_TRUE(client.Send(append).ok());
    }
    for (std::uint64_t i = 0; i < burst; ++i) {
      auto response = client.Receive();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->code, StatusCode::kOk) << response->message;
      ASSERT_EQ(response->stream_size, ++size);
    }
  }

  // Past the cap an append is refused and leaves the stream as it was:
  // a draw still charges at n = kStreamCap.
  for (int i = 0; i < 2; ++i) {
    append.request_id = ++request_id;
    auto response = client.Call(append);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kResourceExhausted);
  }
  auto draw = client.Call(MakeGibbs(++request_id, "hoarder", /*lambda=*/1.0, /*count=*/1));
  ASSERT_TRUE(draw.ok()) << draw.status().ToString();
  ASSERT_EQ(draw->code, StatusCode::kOk);
  EXPECT_EQ(draw->charged_epsilon, 2.0 / static_cast<double>(kStreamCap));
}

TEST_F(ServiceProtocolTest, AcceptFailPointRejectsWithStructuredFrame) {
  robustness::ScopedFailPoint accept_chaos("service.accept", "always");
  auto client = DpReleaseClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The server accepted the connection, then injected the rejection: one
  // unsolicited UNAVAILABLE frame (request_id 0) and a close.
  auto response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 0u);
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
}

TEST_F(ServiceProtocolTest, DispatchFailPointFailsBeforeAdmission) {
  DpReleaseClient client = MustConnect();
  Request reg;
  reg.opcode = Opcode::kRegisterTenant;
  reg.request_id = 1;
  reg.tenant_id = "chaos-t";
  reg.epsilon = 1.0;
  reg.delta = 0.0;
  auto response = client.Call(reg);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk);

  {
    robustness::ScopedFailPoint dispatch_chaos("service.dispatch", "always");
    auto rejected = client.Call(MakeGibbs(2, "chaos-t"));
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_EQ(rejected->code, StatusCode::kUnavailable);
  }

  // The injected failure fired before admission: no spend, no denial.
  Request query;
  query.opcode = Opcode::kBudgetQuery;
  query.request_id = 3;
  query.tenant_id = "chaos-t";
  auto view = client.Call(query);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->code, StatusCode::kOk);
  EXPECT_EQ(view->spent_epsilon, 0.0);
  EXPECT_EQ(view->spends, 0u);
  EXPECT_EQ(view->denials, 0u);
  EXPECT_TRUE(server_->accountant().ReplayVerifyAll().ok());
}

}  // namespace
}  // namespace service
}  // namespace dplearn
