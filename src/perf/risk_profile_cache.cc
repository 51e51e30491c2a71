#include "perf/risk_profile_cache.h"

#include <atomic>
#include <utility>

#include "learning/risk.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/dispatch.h"
#include "util/content_hash.h"

namespace dplearn {
namespace perf {
namespace {

std::uint64_t KeyHash(std::uint64_t simd_flavor, const std::string& loss_name,
                      const LossFunction& loss, std::uint64_t theta_hash,
                      std::uint64_t data_hash) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  // Scalar- and simd-computed profiles are distinct cache keys: they are
  // ULP-equivalent, not bitwise-equal, so a mid-process DPLEARN_SIMD toggle
  // must miss rather than serve the other mode's bits.
  h = HashMix(h, simd_flavor);
  for (const char c : loss_name) h = HashMix(h, static_cast<unsigned char>(c));
  h = HashMix(h, DoubleBits(loss.UpperBound()));
  h = HashMix(h, DoubleBits(loss.ParameterFingerprint()));
  h = HashMix(h, theta_hash);
  return HashMix(h, data_hash);
}

bool ThetasEqual(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitwiseEqual(a[i], b[i])) return false;
  }
  return true;
}

bool ExamplesEqual(const std::vector<Example>& a, const std::vector<Example>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitwiseEqual(a[i].features, b[i].features)) return false;
    if (DoubleBits(a[i].label) != DoubleBits(b[i].label)) return false;
  }
  return true;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

void CountHit(bool hit) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* const hits =
      obs::GlobalMetrics().GetCounter("perf.risk_cache.hits");
  static obs::Counter* const misses =
      obs::GlobalMetrics().GetCounter("perf.risk_cache.misses");
  (hit ? hits : misses)->Increment();
}

}  // namespace

RiskProfileCache::RiskProfileCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

RiskProfileCache& RiskProfileCache::Global() {
  static RiskProfileCache* const cache = new RiskProfileCache(kDefaultCapacity);
  return *cache;
}

bool RiskProfileCache::Matches(const Entry& entry, std::uint64_t hash,
                               std::uint64_t simd_flavor, const std::string& loss_name,
                               const LossFunction& loss, const std::vector<Vector>& thetas,
                               std::uint64_t class_id, const Dataset& data,
                               std::uint64_t generation) {
  if (entry.hash != hash) return false;
  if (entry.simd_flavor != simd_flavor) return false;
  if (entry.loss_name != loss_name) return false;
  if (DoubleBits(entry.loss_bound) != DoubleBits(loss.UpperBound())) return false;
  if (DoubleBits(entry.loss_fingerprint) != DoubleBits(loss.ParameterFingerprint())) {
    return false;
  }
  // A class id or generation this entry has verified proves its half of
  // the key equal; anything else is compared bitwise and, if equal,
  // recorded for the next hit.
  if (class_id == 0 || entry.verified_class_id.load(std::memory_order_relaxed) != class_id) {
    if (!ThetasEqual(entry.thetas, thetas)) return false;
    if (class_id != 0) entry.verified_class_id.store(class_id, std::memory_order_relaxed);
  }
  if (entry.verified_generation.load(std::memory_order_relaxed) != generation) {
    if (!ExamplesEqual(entry.examples, data.examples())) return false;
    entry.verified_generation.store(generation, std::memory_order_relaxed);
  }
  return true;
}

void RiskProfileCache::InsertLocked(EntryPtr entry) {
  // A racing miss on the same key, or a colliding key, may already hold
  // this hash: the newer entry replaces it.
  const auto [slot, fresh] = by_hash_.try_emplace(entry->hash);
  if (!fresh) lru_.erase(slot->second);
  lru_.push_front(std::move(entry));
  slot->second = lru_.begin();
  while (lru_.size() > capacity_) {
    by_hash_.erase(lru_.back()->hash);
    lru_.pop_back();
    ++evictions_;
  }
}

StatusOr<std::vector<double>> RiskProfileCache::GetOrCompute(
    const LossFunction& loss, const FiniteHypothesisClass& hclass, const Dataset& data) {
  return Lookup(loss, hclass.thetas(), hclass.content_hash(), hclass.id(), data);
}

StatusOr<std::vector<double>> RiskProfileCache::GetOrCompute(
    const LossFunction& loss, const std::vector<Vector>& thetas, const Dataset& data) {
  return Lookup(loss, thetas, ThetaContentHash(thetas), /*class_id=*/0, data);
}

StatusOr<std::vector<double>> RiskProfileCache::Lookup(const LossFunction& loss,
                                                       const std::vector<Vector>& thetas,
                                                       std::uint64_t theta_hash,
                                                       std::uint64_t class_id,
                                                       const Dataset& data) {
  // One flavor read per call: the hash, the match predicate, and the stored
  // entry must agree even if DPLEARN_SIMD toggles while we compute. The
  // generation snapshot brackets the hash→compute→insert window against
  // in-place SetLabel/Add mutation of `data` (the learning_channel walk).
  const std::uint64_t flavor = simd::ActiveSimdFlavorId();
  const std::uint64_t generation = data.generation();
  const std::string loss_name = loss.Name();
  const std::uint64_t hash = KeyHash(flavor, loss_name, loss, theta_hash, data.content_hash());
  EntryPtr candidate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto found = by_hash_.find(hash);
    if (found != by_hash_.end()) {
      candidate = *found->second;
      lru_.splice(lru_.begin(), lru_, found->second);  // move to MRU
    }
  }
  // `candidate` keeps the entry alive through a concurrent eviction, and
  // the verify touches only its immutable fields and relaxed atomics, so
  // the verify and the copy need no lock.
  if (candidate != nullptr && Matches(*candidate, hash, flavor, loss_name, loss, thetas,
                                      class_id, data, generation)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CountHit(true);
    return candidate->risks;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CountHit(false);

  // Compute outside the lock: the profile may fan out over the global thread
  // pool and can take arbitrarily long; holding mu_ would serialize every
  // other grid cell behind it.
  obs::TraceSpan span("perf.risk_cache.fill");
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> risks,
                           EmpiricalRiskProfile(loss, thetas, data));

  auto entry = std::make_shared<Entry>();
  entry->hash = hash;
  entry->simd_flavor = flavor;
  entry->loss_name = loss_name;
  entry->loss_bound = loss.UpperBound();
  entry->loss_fingerprint = loss.ParameterFingerprint();
  entry->thetas = thetas;
  entry->examples = data.examples();
  entry->risks = risks;
  // Filled from this class and, once the guard below passes, from the
  // examples at this generation.
  entry->verified_class_id.store(class_id, std::memory_order_relaxed);
  entry->verified_generation.store(generation, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  if (data.generation() != generation) {
    // The dataset moved under us: `hash` describes the pre-mutation content
    // but `examples`/`risks` saw some post-mutation state — a torn entry
    // that could only ever alias by hash collision, but is wrong to keep.
    // Serve the fresh risks, memoize nothing.
    ++mutation_skips_;
    return risks;
  }
  InsertLocked(std::move(entry));
  return risks;
}

RiskProfileCache::Stats RiskProfileCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.evictions = evictions_;
  stats.mutation_skips = mutation_skips_;
  return stats;
}

std::size_t RiskProfileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void RiskProfileCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_hash_.clear();
  evictions_ = 0;
  mutation_skips_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

bool RiskCacheEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetRiskCacheEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

StatusOr<std::vector<double>> CachedRiskProfile(const LossFunction& loss,
                                                const FiniteHypothesisClass& hclass,
                                                const Dataset& data) {
  if (!RiskCacheEnabled()) return EmpiricalRiskProfile(loss, hclass.thetas(), data);
  return RiskProfileCache::Global().GetOrCompute(loss, hclass, data);
}

StatusOr<std::vector<double>> CachedRiskProfile(const LossFunction& loss,
                                                const std::vector<Vector>& thetas,
                                                const Dataset& data) {
  if (!RiskCacheEnabled()) return EmpiricalRiskProfile(loss, thetas, data);
  return RiskProfileCache::Global().GetOrCompute(loss, thetas, data);
}

}  // namespace perf
}  // namespace dplearn
