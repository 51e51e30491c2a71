#ifndef DPLEARN_PERF_RISK_PROFILE_CACHE_H_
#define DPLEARN_PERF_RISK_PROFILE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <shared_mutex>
#include <string>
#include <type_traits>
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
/// Determinism contract (DESIGN.md §10): a hit serves the exact vector a
/// miss would have computed — the profile is a deterministic function of its
/// key and the cached value IS a previous output of EmpiricalRiskProfile on
/// bitwise-equal inputs — so enabling the cache is bit-invisible to every
/// downstream posterior, sample, and verdict. tests/perf_cache_equivalence
/// proves this differentially against the uncached path.
///
/// Correctness of keying: entries are located by a 64-bit hash of (loss Name
/// and UpperBound, Θ content hash, Ẑ content hash). Name and UpperBound
/// identify the loss's values (LossFunction's contract), and a loss takes
/// one risk path for life (its KernelSpec()), so the key fixes the profile's
/// bits. Both content hashes are memoized — fixed at creation in
/// FiniteHypothesisClass, per generation in Dataset — so a caller that
/// passes the class walks neither Θ nor Ẑ per call. A hash match alone never
/// serves a hit: each half of the stored key copy must be proven equal to
/// the caller's, either by identity or bitwise (memcmp on the doubles, so
/// NaN payloads and signed zeros are distinguished). Identity is a
/// FiniteHypothesisClass::id() or Dataset::generation() that this entry has
/// already verified bitwise (or was filled from): class lists are immutable
/// and equal generations mean equal examples, so the compare is skipped.
/// Anything else — a new id or generation, or a bare Θ list — is compared
/// bitwise, and a successful compare records the id or generation. A
/// collision therefore costs one compare and falls through to a recompute;
/// it cannot produce a wrong result.
///
/// Locking: readers take a reader lock striped per thread, so hits on
/// different threads share no lock word; an insert, an eviction and Clear
/// take every stripe exclusively. A hit therefore finds, verifies and
/// visits its entry in place, under its own stripe only. It copies
/// nothing, and it writes no line of the cache that another thread's hit
/// writes: each stripe counts its own hits, and an entry's verified
/// records and recency mark are written only when they change. (With obs
/// metrics on, a hit also bumps the process-wide perf.risk_cache.hits
/// counter.)
class RiskProfileCache {
 public:
  /// A non-owning reference to a callable `void(const std::vector<double>&
  /// risks)`: two pointers, so a lambda with any number of captures passes
  /// without allocating (std::function allocates past its small buffer).
  /// The callable must outlive the call it is passed to, which a temporary
  /// lambda at the call site does.
  class RiskVisitor {
   public:
    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, RiskVisitor>)
    RiskVisitor(F&& visit)  // NOLINT(google-explicit-constructor): call sites pass lambdas
        : callable_(static_cast<const void*>(std::addressof(visit))),
          invoke_([](const void* callable, const std::vector<double>& risks) {
            (*static_cast<std::remove_reference_t<F>*>(const_cast<void*>(callable)))(risks);
          }) {}

    void operator()(const std::vector<double>& risks) const { invoke_(callable_, risks); }

   private:
    const void* callable_;
    void (*invoke_)(const void*, const std::vector<double>&);
  };

  /// `capacity` bounds the number of cached profiles; beyond it an insert
  /// evicts by second chance (CLOCK): from the oldest end, an entry hit
  /// since the last pass is kept once more, and the first one that was not
  /// is evicted. Each entry owns copies of its Θ and Ẑ key material, so
  /// capacity also bounds memory.
  explicit RiskProfileCache(std::size_t capacity = kDefaultCapacity);

  /// The process-wide instance every library call site shares, at
  /// kDefaultCapacity.
  static RiskProfileCache& Global();

  /// Calls `visit` once with the profile of (loss, hclass, data), computing
  /// and inserting it on a miss. Thread-safe. A hit finds the entry, proves
  /// its key and calls `visit` on the entry's own risks, all under this
  /// thread's reader stripe; the risks are valid only during the call. A
  /// miss computes outside every lock and calls `visit` on the fresh
  /// risks, also outside the locks, before it inserts them; concurrent
  /// misses on the same key may compute twice, and the later insert
  /// replaces the earlier (bit-identical) entry. Errors propagate from
  /// EmpiricalRiskProfile unchanged, are never cached, and skip `visit`.
  ///
  /// A visitor must not call into any RiskProfileCache: an insert takes
  /// every stripe, including the one the visitor's thread holds, so a call
  /// back into this cache deadlocks, and visitors calling across two caches
  /// can deadlock each other.
  ///
  /// Mutation guard: `data.generation()` is snapshotted before hashing and
  /// re-read before insertion — if the dataset was mutated in place (e.g. a
  /// SetLabel walk) while the profile computed, the fresh risks are still
  /// visited but the torn (hash ≠ content) entry is NOT memoized
  /// (stats().mutation_skips counts these). Sequential mutate-then-lookup
  /// through one Dataset object is always safe: the mutation takes a fresh
  /// generation, which no entry has verified, so the bitwise compare
  /// decides and a stale entry can never match.
  Status Visit(const LossFunction& loss, const FiniteHypothesisClass& hclass,
               const Dataset& data, RiskVisitor visit);

  /// Visit() that returns a copy of the profile, for callers that keep it.
  StatusOr<std::vector<double>> GetOrCompute(const LossFunction& loss,
                                             const FiniteHypothesisClass& hclass,
                                             const Dataset& data);

  /// The same lookup for a bare Θ list: it hashes Θ per call with
  /// ThetaContentHash, so it meets the class overload on one entry, and
  /// always verifies Θ bitwise.
  StatusOr<std::vector<double>> GetOrCompute(const LossFunction& loss,
                                             const std::vector<Vector>& thetas,
                                             const Dataset& data);

  /// Counters since construction (or the last Clear()). Every Visit and
  /// GetOrCompute call counts exactly one hit or one miss.
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
  /// Written once before insertion. Readers share it under their stripe
  /// lock, so only the relaxed atomics below change while it is cached.
  struct Entry {
    std::uint64_t hash = 0;
    std::string loss_name;
    double loss_bound = 0.0;
    std::vector<Vector> thetas;
    std::vector<Example> examples;
    std::vector<double> risks;
    /// The last class id and dataset generation proven to hold this entry's
    /// Θ and Ẑ (0: none). Relaxed: a stale read only costs a compare.
    mutable std::atomic<std::uint64_t> verified_class_id{0};
    mutable std::atomic<std::uint64_t> verified_generation{0};
    /// The second-chance mark: set by a hit, cleared by an eviction pass.
    mutable std::atomic<bool> referenced{false};
  };
  /// Entries live in list nodes, so an entry never moves: a miss fills a
  /// one-node list outside the lock and splices it in.
  using EntryList = std::list<Entry>;

  /// One reader lock and one hit count per cache line. A thread always
  /// takes the same stripe (obs::ThreadIndex() modulo kStripes), so with
  /// up to kStripes threads no two readers touch the same stripe.
  struct alignas(64) Stripe {
    std::shared_mutex mu;
    std::atomic<std::uint64_t> hits{0};
  };
  static constexpr std::size_t kStripes = 16;

  /// Takes every stripe exclusively, in index order, for a writer.
  class WriterLock {
   public:
    explicit WriterLock(RiskProfileCache* cache);
    ~WriterLock();
    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

   private:
    RiskProfileCache* cache_;
  };

  /// Both overloads: `class_id` is 0 for a bare Θ list.
  Status Lookup(const LossFunction& loss, const std::vector<Vector>& thetas,
                std::uint64_t theta_hash, std::uint64_t class_id, const Dataset& data,
                RiskVisitor visit);

  static bool Matches(const Entry& entry, std::uint64_t hash, const std::string& loss_name,
                      double loss_bound, const std::vector<Vector>& thetas,
                      std::uint64_t class_id, const Dataset& data, std::uint64_t generation);

  /// Needs every stripe held exclusively. Moves the one node of `node` in.
  void InsertLocked(EntryList node);

  /// This thread's stripe.
  Stripe& OwnStripe() const;

  const std::size_t capacity_;
  mutable Stripe stripes_[kStripes];
  /// Front = newest or most recently given a second chance; evictions scan
  /// from the back. Written only under every stripe, so any one stripe
  /// guards a read, as it does for by_hash_ and the two counters below.
  EntryList entries_;
  /// One entry per key hash; a second key with the same hash replaces it.
  std::unordered_map<std::uint64_t, EntryList::iterator> by_hash_;
  std::uint64_t evictions_ = 0;
  std::uint64_t mutation_skips_ = 0;
  /// Misses compute for microseconds or more, so one shared count is cheap.
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

/// The visiting form: RiskProfileCache::Global().Visit() when
/// RiskCacheEnabled(), otherwise `visit` on a freshly computed profile.
/// For callers that consume the risks at once, such as a Gibbs draw's
/// tilt; the same rule holds that `visit` must not call into the cache.
Status VisitCachedRiskProfile(const LossFunction& loss, const FiniteHypothesisClass& hclass,
                              const Dataset& data, RiskProfileCache::RiskVisitor visit);

}  // namespace perf
}  // namespace dplearn

#endif  // DPLEARN_PERF_RISK_PROFILE_CACHE_H_
