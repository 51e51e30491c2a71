#include "learning/streaming_risk.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "learning/risk.h"
#include "simd/dispatch.h"
#include "util/content_hash.h"

namespace dplearn {
namespace {

/// A slot's content hash: cheap and collision-resistant; a hash match alone
/// never removes (the bitwise compare below decides).
std::uint64_t HashExample(const Example& z) {
  const std::uint64_t h =
      HashDoubles(0x2545f4914f6cdd1dULL, z.features.data(), z.features.size());
  return HashMix(h, DoubleBits(z.label));
}

/// Bitwise content equality (memcmp semantics: NaN payloads and ±0.0 are
/// distinct) — must agree with HashExample so equal content implies equal
/// hash.
bool BitwiseExampleEqual(const Example& a, const Example& b) {
  return DoubleBits(a.label) == DoubleBits(b.label) && BitwiseEqual(a.features, b.features);
}

/// The shared delta-row core: validates `z` and writes l_{θ_i}(z) into
/// out[0..|Θ|). `spec`/`uniform_dim` are the caller's precomputed kernel
/// eligibility (nullopt / mismatched dim falls back to the virtual loop).
Status FillLossRow(const LossFunction& loss, const std::optional<simd::LossSpec>& spec,
                   bool thetas_uniform, std::size_t uniform_dim,
                   const std::vector<Vector>& thetas, const Example& z,
                   simd::DatasetSoA* soa, double* out) {
  // Same NaN-poisoning policy as the batch path (DESIGN.md §14): clipped
  // losses launder NaN into 0, so poisoned INPUTS must be rejected up front.
  if (!std::isfinite(z.label)) {
    return OutOfRangeError("LossRow: non-finite label");
  }
  for (std::size_t j = 0; j < z.features.size(); ++j) {
    if (!std::isfinite(z.features[j])) {
      return OutOfRangeError("LossRow: non-finite feature " + std::to_string(j));
    }
  }

  if (spec.has_value() && simd::SimdEnabled() && thetas_uniform &&
      uniform_dim == z.features.size()) {
    // One-example SoA through the shared kernel: n=1 < kBlockedSumMinN, so
    // the kernel is sequential and the mean is sum/1.0 — the delta row is
    // bitwise the per-example loss the batch kernel would sum.
    soa->Reset(1, z.features.size());
    soa->mutable_labels()[0] = z.label;
    for (std::size_t j = 0; j < z.features.size(); ++j) {
      soa->mutable_column(j)[0] = z.features[j];
    }
    for (std::size_t i = 0; i < thetas.size(); ++i) {
      out[i] = simd::MeanLossKernel(*spec, thetas[i].data(), thetas[i].size(), *soa);
    }
    return Status::Ok();
  }

  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const double l = loss.Loss(thetas[i], z);
    // Built-in losses are bounded by construction; only a custom formula can
    // emit a non-finite value on finite inputs (same check as the batch
    // scalar path).
    if (!std::isfinite(l)) {
      return OutOfRangeError("LossRow: loss '" + loss.Name() +
                             "' produced a non-finite value on finite inputs");
    }
    out[i] = l;
  }
  return Status::Ok();
}

}  // namespace

Status LossRow(const LossFunction& loss, const std::vector<Vector>& thetas,
               const Example& z, std::vector<double>* out) {
  if (out == nullptr) return InvalidArgumentError("LossRow: out must be set");
  if (thetas.empty()) return InvalidArgumentError("LossRow: empty hypothesis list");
  const std::optional<simd::LossSpec> spec = SimdLossSpec(loss);
  bool uniform = true;
  const std::size_t dim = thetas[0].size();
  for (const Vector& theta : thetas) uniform = uniform && theta.size() == dim;
  out->resize(thetas.size());
  thread_local simd::DatasetSoA soa;
  return FillLossRow(loss, spec, uniform, dim, thetas, z, &soa, out->data());
}

StreamingRiskProfile::StreamingRiskProfile(const LossFunction* loss,
                                           std::vector<Vector> thetas, Options options)
    : loss_(loss), thetas_(std::move(thetas)), resync_every_(options.resync_every) {
  simd_spec_ = SimdLossSpec(*loss_);
  uniform_theta_dim_ = thetas_[0].size();
  thetas_uniform_ = true;
  for (const Vector& theta : thetas_) {
    thetas_uniform_ = thetas_uniform_ && theta.size() == uniform_theta_dim_;
  }
  sums_.resize(thetas_.size());
  delta_row_.resize(thetas_.size());
  resync_risks_.resize(thetas_.size());
  if (options.reserve_examples > 0) {
    examples_.reserve(options.reserve_examples);
    hashes_.reserve(options.reserve_examples);
  }
}

StatusOr<StreamingRiskProfile> StreamingRiskProfile::Create(const LossFunction* loss,
                                                            std::vector<Vector> thetas) {
  return Create(loss, std::move(thetas), Options{});
}

StatusOr<StreamingRiskProfile> StreamingRiskProfile::Create(const LossFunction* loss,
                                                            std::vector<Vector> thetas,
                                                            Options options) {
  if (loss == nullptr) {
    return InvalidArgumentError("StreamingRiskProfile: loss must be set");
  }
  if (thetas.empty()) {
    return InvalidArgumentError("StreamingRiskProfile: empty hypothesis list");
  }
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    for (std::size_t j = 0; j < thetas[i].size(); ++j) {
      if (!std::isfinite(thetas[i][j])) {
        return OutOfRangeError("StreamingRiskProfile: non-finite coordinate " +
                               std::to_string(j) + " in hypothesis " + std::to_string(i));
      }
    }
  }
  return StreamingRiskProfile(loss, std::move(thetas), options);
}

Status StreamingRiskProfile::ComputeDeltaRow(const Example& z) {
  if (feature_dim_known_ && z.features.size() != feature_dim_) {
    return InvalidArgumentError("StreamingRiskProfile: ragged example — has " +
                                std::to_string(z.features.size()) +
                                " features, stream established " +
                                std::to_string(feature_dim_));
  }
  // Member scratch (delta_soa_, delta_row_) keeps the steady state
  // allocation-free; FillLossRow validates finiteness on the way.
  return FillLossRow(*loss_, simd_spec_, thetas_uniform_, uniform_theta_dim_, thetas_, z,
                     &delta_soa_, delta_row_.data());
}

Status StreamingRiskProfile::AfterMutation() {
  synced_ = false;
  ++mutations_;
  ++mutations_since_resync_;
  if (resync_every_ > 0 && mutations_since_resync_ >= resync_every_) {
    return Resync();
  }
  return Status::Ok();
}

Status StreamingRiskProfile::AddExample(const Example& z) {
  DPLEARN_RETURN_IF_ERROR(ComputeDeltaRow(z));
  if (!feature_dim_known_) {
    feature_dim_ = z.features.size();
    feature_dim_known_ = true;
  }
  const std::uint64_t hash = HashExample(z);
  if (live_count_ < examples_.size()) {
    // Recycle a retired slot: copy-assignment reuses the slot's feature
    // capacity, keeping the steady state allocation-free.
    examples_[live_count_] = z;
    hashes_[live_count_] = hash;
  } else {
    examples_.push_back(z);
    hashes_.push_back(hash);
  }
  ++live_count_;
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i].Add(delta_row_[i]);
  return AfterMutation();
}

Status StreamingRiskProfile::RemoveExample(const Example& z) {
  if (live_count_ == 0) {
    return FailedPreconditionError("StreamingRiskProfile: remove from an empty stream");
  }
  DPLEARN_RETURN_IF_ERROR(ComputeDeltaRow(z));
  const std::uint64_t hash = HashExample(z);
  std::size_t index = live_count_;
  for (std::size_t i = 0; i < live_count_; ++i) {
    if (hashes_[i] == hash && BitwiseExampleEqual(examples_[i], z)) {
      index = i;
      break;
    }
  }
  if (index == live_count_) {
    return NotFoundError("StreamingRiskProfile: no live example matches the "
                         "removal candidate bitwise");
  }
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i].Add(-delta_row_[i]);
  // Swap-compact: the removed slot takes the last live example; retired
  // slots keep their capacity for recycling by a later Add.
  const std::size_t last = live_count_ - 1;
  if (index != last) {
    std::swap(examples_[index], examples_[last]);
    std::swap(hashes_[index], hashes_[last]);
  }
  --live_count_;
  return AfterMutation();
}

Status StreamingRiskProfile::SnapshotInto(std::vector<double>* out) const {
  if (out == nullptr) {
    return InvalidArgumentError("StreamingRiskProfile: out must be set");
  }
  if (live_count_ == 0) {
    return FailedPreconditionError("StreamingRiskProfile: snapshot of an empty stream");
  }
  out->resize(sums_.size());
  if (synced_) {
    // Serve the batch profile's exact bits pinned by the last resync.
    std::memcpy(out->data(), resync_risks_.data(), resync_risks_.size() * sizeof(double));
    return Status::Ok();
  }
  const double n = static_cast<double>(live_count_);
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    (*out)[i] = sums_[i].Value() / n;
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> StreamingRiskProfile::Snapshot() const {
  std::vector<double> out;
  DPLEARN_RETURN_IF_ERROR(SnapshotInto(&out));
  return out;
}

Dataset StreamingRiskProfile::LiveDataset() const {
  std::vector<Example> live(examples_.begin(),
                            examples_.begin() + static_cast<std::ptrdiff_t>(live_count_));
  return Dataset(std::move(live));
}

Status StreamingRiskProfile::Resync() {
  mutations_since_resync_ = 0;
  if (live_count_ == 0) {
    // An empty stream has nothing to recompute; resetting the accumulators
    // is the exact (bitwise-trivial) resync.
    for (KahanSum& sum : sums_) sum.Reset();
    synced_ = false;
    return Status::Ok();
  }
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> full,
                           EmpiricalRiskProfile(*loss_, thetas_, LiveDataset()));
  const double n = static_cast<double>(live_count_);
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    resync_risks_[i] = full[i];
    // Future deltas continue from the recomputed mean; the (mean·n) rounding
    // is one ulp of re-seeding error, covered by the drift contract.
    sums_[i].Reset(full[i] * n);
  }
  synced_ = true;
  ++resyncs_;
  return Status::Ok();
}

}  // namespace dplearn
