#ifndef DPLEARN_LEARNING_STREAMING_RISK_H_
#define DPLEARN_LEARNING_STREAMING_RISK_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "learning/dataset.h"
#include "learning/loss.h"
#include "simd/kernels.h"
#include "util/math_util.h"
#include "util/status.h"

namespace dplearn {

/// Incrementally maintained empirical-risk profile over a finite hypothesis
/// class — the streaming form of EmpiricalRiskProfile for data that arrives
/// and expires one example at a time.
///
/// The Gibbs estimator (Theorem 4.1) tilts a SUM of per-example losses, so
/// an arriving or departing example Z changes every R̂(θ_i) by the single
/// loss value l_{θ_i}(Z)/n: AddExample/RemoveExample cost O(|Θ|) loss
/// evaluations instead of the O(|Θ|·n) full recompute. Per hypothesis the
/// running loss sum is a Kahan–Babuška–Neumaier accumulator, so a long
/// add/remove stream accrues O(u) error per mutation instead of O(n·u).
/// When the loss has a KernelSpec(), a mutation is one
/// simd::FoldExampleLoss pass that evaluates every hypothesis's loss and
/// folds it straight into its sum; each loss is bitwise what
/// simd::MeanLossKernel gives for a one-example dataset (DESIGN.md §15.1).
/// A custom loss fills a delta row through the virtual Loss() and folds
/// that.
///
/// Numerical drift contract (DESIGN.md §15): the incremental snapshot and a
/// full EmpiricalRiskProfile recompute over the same live multiset sum the
/// SAME per-example loss values in different orders (and with different
/// compensation), so after m mutations each entry of SnapshotInto() is
/// within kStreamingUlpBound(n, m) ULPs of the batch profile — in practice
/// a handful of ULPs, because the compensated sum is usually CLOSER to the
/// exact value than the batch path's blocked sum. Drift is capped by
/// periodic resync: every `Options::resync_every` mutations (default
/// kDefaultResyncEvery, 0 = never) the profile recomputes itself
/// via EmpiricalRiskProfile, after which SnapshotInto() is BITWISE equal to
/// the batch profile over LiveDataset() until the next mutation.
///
/// Error taxonomy mirrors the batch path: non-finite features/labels are
/// rejected with OutOfRange (the NaN-poisoning policy of DESIGN.md §14 —
/// clipped losses silently launder NaN), an example whose dimension is not
/// Θ's with InvalidArgument, removal of a never-added example with
/// NotFound, and snapshots of an empty stream with FailedPrecondition.
///
/// Steady state is allocation-free at constant occupancy: the per-Θ sums,
/// the Θ block and the delta row are sized at construction, example
/// slots are recycled by copy-assignment (feature-vector capacity reused),
/// and removal swaps with the last live slot. Resync() is the amortized
/// slow path and may allocate. Not thread-safe; callers serialize (the
/// service holds its per-tenant mutex across stream mutations and draws).
class StreamingRiskProfile {
 public:
  static constexpr std::size_t kDefaultResyncEvery = 4096;

  struct Options {
    /// Full-recompute resync period in mutations; 0 disables auto-resync.
    std::size_t resync_every = kDefaultResyncEvery;
    /// Pre-reserves slot storage for this many live examples, so a stream
    /// that never exceeds it is allocation-free from the first Add.
    std::size_t reserve_examples = 0;
  };

  /// `loss` must outlive the profile. Errors if loss is null, or thetas is
  /// empty, mixes dimensions or contains a non-finite coordinate. (The
  /// overload exists because a `= Options{}` default argument may not use
  /// the nested class's default member initializers inside the enclosing
  /// class.)
  static StatusOr<StreamingRiskProfile> Create(const LossFunction* loss,
                                               std::vector<Vector> thetas,
                                               Options options);
  static StatusOr<StreamingRiskProfile> Create(const LossFunction* loss,
                                               std::vector<Vector> thetas);

  /// Folds one arriving example into every per-hypothesis sum: O(|Θ|).
  /// OutOfRange on non-finite input (or a custom loss emitting a non-finite
  /// value); InvalidArgument if the example's feature dimension is not Θ's.
  Status AddExample(const Example& z);

  /// Folds one departing example out of every per-hypothesis sum: O(|Θ|)
  /// loss evaluations plus an O(n) bitwise-content lookup. The departing
  /// example is matched by BITWISE content (hash then memcmp — consistent
  /// with the risk-cache keying; ±0.0 are distinct). FailedPrecondition on
  /// an empty stream; NotFound if no live example matches bitwise.
  Status RemoveExample(const Example& z);

  /// Writes the live risk profile R̂(θ_i) into *out (resized to |Θ|; a
  /// pre-sized vector makes this allocation-free). FailedPrecondition on an
  /// empty stream. Immediately after a resync this is bitwise-equal to
  /// EmpiricalRiskProfile(loss, thetas, LiveDataset()); otherwise it is the
  /// compensated incremental mean, ULP-close per the drift contract above.
  Status SnapshotInto(std::vector<double>* out) const;

  /// Allocating convenience around SnapshotInto().
  StatusOr<std::vector<double>> Snapshot() const;

  /// Full recompute over the live multiset: recomputes every sum via
  /// EmpiricalRiskProfile (erasing accumulated drift) and pins the snapshot
  /// to the batch profile's exact bits until the next mutation. No-op reset
  /// on an empty stream. May allocate.
  Status Resync();

  /// The live examples in internal (swap-compacted) order — the dataset a
  /// resync recomputes against. Allocates; test/diagnostic convenience.
  Dataset LiveDataset() const;

  std::size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }
  std::size_t num_hypotheses() const { return thetas_.size(); }
  const std::vector<Vector>& thetas() const { return thetas_; }
  const LossFunction& loss() const { return *loss_; }
  std::size_t resync_every() const { return resync_every_; }
  /// Mutations (adds + removes) since construction / since the last resync.
  std::uint64_t mutations() const { return mutations_; }
  std::uint64_t mutations_since_resync() const { return mutations_since_resync_; }
  std::uint64_t resyncs() const { return resyncs_; }

 private:
  StreamingRiskProfile(const LossFunction* loss, std::vector<Vector> thetas,
                       Options options);

  /// Checks `z` against the stream (dimension, then non-finite). On the
  /// virtual path it fills delta_row_, which rejects a custom loss's
  /// non-finite value. Changes no sum.
  Status PrepareFold(const Example& z);
  /// Adds l_{θ_i}(z) to every sum, or subtracts it when `remove`: the
  /// kernel pass when the loss has a kernel, else delta_row_ from
  /// PrepareFold.
  void Fold(const Example& z, bool remove);
  /// Bumps the mutation counters and auto-resyncs at the configured period.
  Status AfterMutation();

  const LossFunction* loss_;  // not owned
  std::vector<Vector> thetas_;
  std::optional<simd::LossSpec> kernel_spec_;  // the loss's KernelSpec()
  std::size_t feature_dim_;  // Θ's dimension, which every example must have
  /// Θ feature-major (coordinate j of θ_i at j·|Θ| + i) for the kernel
  /// pass; filled only when the loss has a kernel.
  std::vector<double> theta_block_;

  /// Per-θ compensated loss sums, KahanSum's two terms as two arrays for
  /// the kernel pass: the running sum and its correction.
  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<double> delta_row_;       // scratch: l_{θ_i}(z) on the virtual path
  std::vector<Example> examples_;       // slots [0, live_count_) are live
  std::vector<std::uint64_t> hashes_;   // content hash per live slot
  std::size_t live_count_ = 0;

  std::size_t resync_every_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t mutations_since_resync_ = 0;
  std::uint64_t resyncs_ = 0;
  /// When true, resync_risks_ holds the batch profile's exact bits and
  /// serves snapshots; cleared by the first mutation after a resync.
  bool synced_ = false;
  std::vector<double> resync_risks_;
};

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_STREAMING_RISK_H_
