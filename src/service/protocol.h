#ifndef DPLEARN_SERVICE_PROTOCOL_H_
#define DPLEARN_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dplearn {
namespace service {

/// Wire protocol of the multi-tenant DP release service (DESIGN.md §13).
///
/// Framing: every message is a *length-prefixed binary frame* — a 4-byte
/// little-endian unsigned payload length followed by exactly that many
/// payload bytes. The length counts the payload only (not itself) and must
/// be in [kMinPayloadBytes, max_payload]; anything else is a protocol error
/// the server answers with a structured INVALID_ARGUMENT response before
/// closing the connection. Inside a connection, frames are processed in
/// arrival order and answered in the same order, so a client may pipeline.
///
/// Payloads are versioned, fixed-layout little-endian binary (doubles
/// travel as their IEEE-754 bit patterns, so values round-trip bitwise —
/// the determinism and replay-verification gates depend on this). Every
/// decode path is bounds-checked: malformed input yields a typed
/// util::Status, never undefined behavior (service_protocol_test pins
/// this).
///
/// Request payload layout (offsets in bytes):
///   u8  version            == kProtocolVersion
///   u8  opcode             Opcode below
///   u64 request_id         echoed verbatim in the response
///   u16 tenant_len, bytes  tenant id ([A-Za-z0-9_-]+; may be empty for
///                          Ping/ReplayVerify)
///   ... opcode-specific fields, see EncodeRequest
///
/// Response payload layout:
///   u8  version
///   u8  opcode             echo of the request (kPing for unsolicited
///                          server-level rejections, with request_id 0)
///   u64 request_id
///   u8  status_code        util::StatusCode
///   u16 message_len, bytes diagnostic (empty on OK)
///   ... opcode-specific body, present only when status_code == kOk
enum class Opcode : std::uint8_t {
  /// Liveness probe; empty body both ways. Also the opcode of unsolicited
  /// server-level rejection frames (request_id 0), e.g. the `service.accept`
  /// fail point refusing a connection.
  kPing = 1,
  /// Release(mechanism, query, epsilon, tenant_id): `count` noisy answers
  /// of `query` on dataset `dataset` under `mechanism`, each ε-DP with the
  /// given epsilon (delta used by the Gaussian mechanism). Charged as one
  /// admission-controlled spend of count·(epsilon, delta).
  kRelease = 2,
  /// GibbsSample(dataset_ref, lambda, n_draws, tenant_id): `count` draws
  /// from the Gibbs posterior at inverse temperature `lambda`. Each draw is
  /// 2λΔ(R̂)-DP (Theorem 4.1); charged as one spend of count·2λΔ.
  kGibbsSample = 3,
  /// BudgetQuery(tenant_id): the tenant's ledger view. Free (no spend).
  kBudgetQuery = 4,
  /// Registers `tenant_id` with total budget (epsilon, delta). Tenants are
  /// otherwise auto-registered with the server's default budget on first
  /// spend; explicit registration is for custom quotas.
  kRegisterTenant = 5,
  /// Runs ShardedPrivacyAccountant::ReplayVerifyAll server-side and reports
  /// the verdict in the response status — a client-observable audit gate.
  kReplayVerify = 6,
  /// StreamAppend(dataset_ref, example, tenant_id): appends one example to
  /// the tenant's PRIVATE live stream over dataset `dataset` (lazily seeded
  /// from the served dataset's examples on first append). Subsequent
  /// kGibbsSample requests against that dataset re-tilt from the live
  /// stream via GibbsEstimator::SampleStreaming, with per-draw cost
  /// 2λ·B/n_live — appends are free (no spend; growing n only shrinks ε).
  /// Returns the live stream size. A stream holds at most 2^15 examples;
  /// an append past that returns RESOURCE_EXHAUSTED and leaves the stream
  /// unchanged.
  kStreamAppend = 7,
};

enum class MechanismKind : std::uint8_t {
  kLaplace = 1,
  kGaussian = 2,
};

enum class QueryKind : std::uint8_t {
  /// Bounded mean of labels (sensitivity (hi-lo)/n).
  kMean = 1,
  /// Bounded sum of labels (sensitivity hi-lo).
  kSum = 2,
  /// Count of examples with positive label (sensitivity 1).
  kCountPositive = 3,
};

inline constexpr std::uint8_t kProtocolVersion = 1;
/// Frame length prefix is 4 bytes, little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 4;
/// A payload smaller than version+opcode+request_id+tenant_len cannot be a
/// message at all.
inline constexpr std::size_t kMinPayloadBytes = 1 + 1 + 8 + 2;
/// Default cap a FrameDecoder enforces on declared payload lengths.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 1 << 20;
inline constexpr std::size_t kMaxTenantIdBytes = 128;
inline constexpr std::size_t kMaxDatasetRefBytes = 256;
/// Cap on kStreamAppend feature vectors — far below what a frame can hold,
/// so a hostile length field cannot force a large allocation.
inline constexpr std::size_t kMaxStreamFeatureDim = 1024;

/// One decoded request. Fields beyond (opcode, request_id, tenant_id) are
/// meaningful per opcode as documented on Opcode.
struct Request {
  Opcode opcode = Opcode::kPing;
  std::uint64_t request_id = 0;
  std::string tenant_id;

  MechanismKind mechanism = MechanismKind::kLaplace;  // kRelease
  QueryKind query = QueryKind::kMean;                 // kRelease
  std::string dataset;          // kRelease / kGibbsSample / kStreamAppend
  double epsilon = 0.0;         // kRelease per-draw ε; kRegisterTenant total
  double delta = 0.0;           // kRelease (Gaussian); kRegisterTenant total
  double lambda = 0.0;          // kGibbsSample inverse temperature
  std::uint32_t count = 1;      // kRelease answers / kGibbsSample draws

  // kStreamAppend: the example joining the tenant's live stream. Doubles
  // travel as IEEE bit patterns, so the appended example reaches the
  // server-side StreamingRiskProfile bitwise intact.
  double label = 0.0;
  std::vector<double> features;
};

/// One decoded response. `code`/`message` mirror the util::Status taxonomy;
/// the typed body fields are populated only on kOk.
struct Response {
  Opcode opcode = Opcode::kPing;
  std::uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;

  /// What admission control charged the tenant for this request (zero for
  /// free ops). Clients replay these to cross-check the server ledger.
  double charged_epsilon = 0.0;
  double charged_delta = 0.0;

  std::vector<double> values;          // kRelease: the noisy answers
  std::vector<std::uint32_t> indices;  // kGibbsSample: hypothesis indices

  // kBudgetQuery body.
  double total_epsilon = 0.0;
  double total_delta = 0.0;
  double spent_epsilon = 0.0;
  double spent_delta = 0.0;
  double remaining_epsilon = 0.0;
  double remaining_delta = 0.0;
  std::uint64_t spends = 0;
  std::uint64_t denials = 0;

  /// kStreamAppend body: live examples in the tenant's stream after the
  /// append.
  std::uint64_t stream_size = 0;

  /// Convenience constructor for an error response echoing `request`.
  static Response Error(const Request& request, const Status& status);
};

/// Serializes the request payload (no frame header).
std::string EncodeRequest(const Request& request);
/// Parses a request payload. INVALID_ARGUMENT on any malformed input:
/// wrong version, unknown opcode, truncated or oversized variable-length
/// fields, trailing bytes.
StatusOr<Request> DecodeRequest(const void* data, std::size_t size);

std::string EncodeResponse(const Response& response);
StatusOr<Response> DecodeResponse(const void* data, std::size_t size);

/// Appends the 4-byte length prefix followed by `payload` to *out.
void AppendFrame(std::string* out, std::string_view payload);

/// Incremental frame reassembly over an arbitrary byte stream. Feed() any
/// chunking the transport produces; Next() yields complete payloads in
/// order. A declared length outside [kMinPayloadBytes, max_payload] is a
/// protocol error: Next() returns INVALID_ARGUMENT and the decoder latches
/// the error (the stream has lost framing and cannot be resynchronized).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  /// True + *payload filled when a complete frame was available; false when
  /// more bytes are needed; INVALID_ARGUMENT (sticky) on a framing error.
  StatusOr<bool> Next(std::string* payload);

  /// Bytes buffered but not yet consumed as a complete frame — nonzero at
  /// EOF means the peer truncated a length prefix or payload mid-frame.
  std::size_t PendingBytes() const { return buffer_.size(); }

 private:
  std::size_t max_payload_;
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace service
}  // namespace dplearn

#endif  // DPLEARN_SERVICE_PROTOCOL_H_
