#include "learning/streaming_risk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "learning/risk.h"
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

}  // namespace

StreamingRiskProfile::StreamingRiskProfile(const LossFunction* loss,
                                           std::vector<Vector> thetas, Options options)
    : loss_(loss),
      thetas_(std::move(thetas)),
      kernel_spec_(loss->KernelSpec()),
      feature_dim_(thetas_[0].size()),
      resync_every_(options.resync_every) {
  if (kernel_spec_.has_value()) {
    const std::size_t m = thetas_.size();
    theta_block_.resize(m * feature_dim_);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < feature_dim_; ++j) {
        theta_block_[j * m + i] = thetas_[i][j];
      }
    }
  }
  sums_.resize(thetas_.size());
  comps_.resize(thetas_.size());
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
    if (thetas[i].size() != thetas[0].size()) {
      return InvalidArgumentError("StreamingRiskProfile: hypothesis " + std::to_string(i) +
                                  " has " + std::to_string(thetas[i].size()) +
                                  " coordinates, hypothesis 0 has " +
                                  std::to_string(thetas[0].size()));
    }
    for (std::size_t j = 0; j < thetas[i].size(); ++j) {
      if (!std::isfinite(thetas[i][j])) {
        return OutOfRangeError("StreamingRiskProfile: non-finite coordinate " +
                               std::to_string(j) + " in hypothesis " + std::to_string(i));
      }
    }
  }
  return StreamingRiskProfile(loss, std::move(thetas), options);
}

Status StreamingRiskProfile::PrepareFold(const Example& z) {
  if (z.features.size() != feature_dim_) {
    return InvalidArgumentError("StreamingRiskProfile: example has " +
                                std::to_string(z.features.size()) +
                                " features, the hypotheses " + std::to_string(feature_dim_));
  }
  // Same NaN-poisoning policy as the batch path (DESIGN.md §14): clipped
  // losses launder NaN into 0, so poisoned INPUTS must be rejected up front.
  if (!std::isfinite(z.label)) {
    return OutOfRangeError("StreamingRiskProfile: non-finite label");
  }
  for (std::size_t j = 0; j < z.features.size(); ++j) {
    if (!std::isfinite(z.features[j])) {
      return OutOfRangeError("StreamingRiskProfile: non-finite feature " +
                             std::to_string(j));
    }
  }
  if (kernel_spec_.has_value()) return Status::Ok();

  for (std::size_t i = 0; i < thetas_.size(); ++i) {
    const double l = loss_->Loss(thetas_[i], z);
    // Built-in losses are bounded by construction; only a custom formula can
    // emit a non-finite value on finite inputs (same check as the batch
    // scalar path).
    if (!std::isfinite(l)) {
      return OutOfRangeError("StreamingRiskProfile: loss '" + loss_->Name() +
                             "' produced a non-finite value on finite inputs");
    }
    delta_row_[i] = l;
  }
  return Status::Ok();
}

void StreamingRiskProfile::Fold(const Example& z, bool remove) {
  if (kernel_spec_.has_value()) {
    simd::FoldExampleLoss(*kernel_spec_, theta_block_.data(), thetas_.size(), feature_dim_,
                          z.features.data(), z.label, remove, sums_.data(), comps_.data());
    return;
  }
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    CompensatedAdd(remove ? -delta_row_[i] : delta_row_[i], &sums_[i], &comps_[i]);
  }
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
  DPLEARN_RETURN_IF_ERROR(PrepareFold(z));
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
  Fold(z, /*remove=*/false);
  return AfterMutation();
}

Status StreamingRiskProfile::RemoveExample(const Example& z) {
  if (live_count_ == 0) {
    return FailedPreconditionError("StreamingRiskProfile: remove from an empty stream");
  }
  DPLEARN_RETURN_IF_ERROR(PrepareFold(z));
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
  Fold(z, /*remove=*/true);
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
    (*out)[i] = (sums_[i] + comps_[i]) / n;  // KahanSum::Value() / n
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
    std::fill(sums_.begin(), sums_.end(), 0.0);
    std::fill(comps_.begin(), comps_.end(), 0.0);
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
    sums_[i] = full[i] * n;
    comps_[i] = 0.0;
  }
  synced_ = true;
  ++resyncs_;
  return Status::Ok();
}

}  // namespace dplearn
