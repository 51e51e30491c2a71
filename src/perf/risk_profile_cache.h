#ifndef DPLEARN_PERF_RISK_PROFILE_CACHE_H_
#define DPLEARN_PERF_RISK_PROFILE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "learning/dataset.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {
namespace perf {

/// Memoization of the empirical-risk profile R̂_Ẑ(θ_i) over a hypothesis
/// grid — the dominant cost of every finite-Θ Gibbs / exponential-mechanism
/// evaluation (Theorem 4.1 makes them the same object, so they share the
/// same hot loop). A sweep over (ε, λ, prior) grid cells, a λ-selection
/// pipeline, or a channel construction evaluated at many temperatures all
/// recompute the SAME profile: the risk vector depends only on (loss, Θ, Ẑ),
/// never on the temperature or the prior. This cache computes it once and
/// serves every later cell.
///
/// Determinism contract (DESIGN.md §10): a hit returns the exact vector a
/// miss would have computed — the profile is a deterministic function of its
/// key and the cached value IS a previous output of EmpiricalRiskProfile on
/// bitwise-equal inputs — so enabling the cache is bit-invisible to every
/// downstream posterior, sample, and verdict. tests/perf_cache_equivalence
/// proves this differentially against the uncached path.
///
/// Correctness of keying: entries are located by a 64-bit hash of (simd
/// flavor, loss Name/UpperBound/ParameterFingerprint, Θ content hash, Ẑ
/// content hash). Both content hashes are memoized — fixed at creation in
/// FiniteHypothesisClass, per generation in Dataset — so a caller that
/// passes the class walks neither Θ nor Ẑ per call. A hash match alone
/// never serves a hit: each half of the stored key copy must be proven equal
/// to the caller's, either by identity or bitwise (memcmp on the doubles,
/// so NaN payloads and signed zeros are distinguished). Identity is a
/// FiniteHypothesisClass::id() or Dataset::generation() that this entry has
/// already verified bitwise (or was filled from): class lists are immutable
/// and equal generations mean equal examples, so the compare is skipped.
/// Anything else — a new id or generation, or a bare Θ list — is compared
/// bitwise, and a successful compare records the id or generation. A
/// collision therefore costs one compare and falls through to a recompute;
/// it cannot produce a wrong result.
///
/// The simd::ActiveSimdFlavorId() key component exists because the scalar
/// and vectorized risk paths are only ULP-equivalent, not bitwise-equal,
/// above simd::kBlockedSumMinN examples (DESIGN.md §14). Without it, a
/// mid-process DPLEARN_SIMD toggle could serve a profile computed in the
/// OTHER mode — bitwise-different from what a fresh compute would return,
/// silently breaking the determinism contract above.
class RiskProfileCache {
 public:
  /// `capacity` bounds the number of cached profiles; least-recently-used
  /// entries are evicted beyond it. Each entry owns copies of its Θ and Ẑ
  /// key material, so capacity also bounds memory.
  explicit RiskProfileCache(std::size_t capacity = kDefaultCapacity);

  /// The process-wide instance every library call site shares, at
  /// kDefaultCapacity.
  static RiskProfileCache& Global();

  /// Returns the cached profile for (loss, hclass, data), computing and
  /// inserting it on a miss. Thread-safe. The lock covers only the O(1)
  /// lookup by key hash and the LRU splice: the key verify and the copy of
  /// the risks run outside it on a shared entry that is immutable except
  /// for its verified id and generation, and stays alive even if a
  /// concurrent miss evicts it. A miss computes outside the lock, so
  /// concurrent misses on the same key may compute twice; the later insert
  /// replaces the earlier (bit-identical) entry. Errors propagate from
  /// EmpiricalRiskProfile unchanged and are never cached.
  ///
  /// Mutation guard: `data.generation()` is snapshotted before hashing and
  /// re-read before insertion — if the dataset was mutated in place (e.g. a
  /// SetLabel walk) while the profile computed, the fresh risks are still
  /// returned but the torn (hash ≠ content) entry is NOT memoized
  /// (stats().mutation_skips counts these). Sequential mutate-then-lookup
  /// through one Dataset object is always safe: the mutation takes a fresh
  /// generation, which no entry has verified, so the bitwise compare
  /// decides and a stale entry can never match.
  StatusOr<std::vector<double>> GetOrCompute(const LossFunction& loss,
                                             const FiniteHypothesisClass& hclass,
                                             const Dataset& data);

  /// The same lookup for a bare Θ list: it hashes Θ per call with
  /// ThetaContentHash, so it meets the class overload on one entry, and
  /// always verifies Θ bitwise.
  StatusOr<std::vector<double>> GetOrCompute(const LossFunction& loss,
                                             const std::vector<Vector>& thetas,
                                             const Dataset& data);

  /// Counters since construction (or the last Clear()). Every GetOrCompute
  /// call counts exactly one hit or one miss.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Fills discarded because the dataset's generation() moved mid-compute.
    std::uint64_t mutation_skips = 0;
  };
  Stats stats() const;

  /// Cached entries currently held.
  std::size_t size() const;

  /// Drops every entry and resets the counters (test isolation).
  void Clear();

  static constexpr std::size_t kDefaultCapacity = 512;

 private:
  /// Immutable once published, except for the two verified_* records:
  /// readers verify and copy it without the lock.
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t simd_flavor = 0;
    std::string loss_name;
    double loss_bound = 0.0;
    double loss_fingerprint = 0.0;
    std::vector<Vector> thetas;
    std::vector<Example> examples;
    std::vector<double> risks;
    /// The last class id and dataset generation proven to hold this entry's
    /// Θ and Ẑ (0: none). Relaxed: a stale read only costs a compare.
    mutable std::atomic<std::uint64_t> verified_class_id{0};
    mutable std::atomic<std::uint64_t> verified_generation{0};
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  using LruList = std::list<EntryPtr>;

  /// Both overloads: `class_id` is 0 for a bare Θ list.
  StatusOr<std::vector<double>> Lookup(const LossFunction& loss,
                                       const std::vector<Vector>& thetas,
                                       std::uint64_t theta_hash, std::uint64_t class_id,
                                       const Dataset& data);

  static bool Matches(const Entry& entry, std::uint64_t hash, std::uint64_t simd_flavor,
                      const std::string& loss_name, const LossFunction& loss,
                      const std::vector<Vector>& thetas, std::uint64_t class_id,
                      const Dataset& data, std::uint64_t generation);

  void InsertLocked(EntryPtr entry);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used. Guarded by mu_, as is by_hash_.
  LruList lru_;
  /// One entry per key hash; a second key with the same hash replaces it.
  std::unordered_map<std::uint64_t, LruList::iterator> by_hash_;
  /// Guarded by mu_.
  std::uint64_t evictions_ = 0;
  std::uint64_t mutation_skips_ = 0;
  /// Counted outside the lock, after the verify decides.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Whether library call sites consult the global cache. Defaults to enabled;
/// tests and benchmarks switch it off at runtime to compare the fast path
/// against the legacy path in-process.
bool RiskCacheEnabled();
void SetRiskCacheEnabled(bool enabled);

/// The shared entry point: the global cache when RiskCacheEnabled(), the
/// legacy direct EmpiricalRiskProfile computation otherwise. Call sites in
/// core (Gibbs estimator, channel builders) route through this so one flag
/// switches the whole library between paths.
StatusOr<std::vector<double>> CachedRiskProfile(const LossFunction& loss,
                                                const FiniteHypothesisClass& hclass,
                                                const Dataset& data);

/// The bare-Θ form, for callers without a FiniteHypothesisClass.
StatusOr<std::vector<double>> CachedRiskProfile(const LossFunction& loss,
                                                const std::vector<Vector>& thetas,
                                                const Dataset& data);

}  // namespace perf
}  // namespace dplearn

#endif  // DPLEARN_PERF_RISK_PROFILE_CACHE_H_
