#include "perf/risk_profile_cache.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "learning/risk.h"
#include "simd/dispatch.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dplearn {
namespace perf {
namespace {

/// splitmix64 finalizer — the same mixer the Rng seeding uses; good
/// avalanche for sequential combining.
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t DoubleBits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::uint64_t HashDoubles(std::uint64_t h, const double* data, std::size_t n) {
  h = Mix(h, n);
  for (std::size_t i = 0; i < n; ++i) h = Mix(h, DoubleBits(data[i]));
  return h;
}

std::uint64_t KeyHash(std::uint64_t simd_flavor, const LossFunction& loss,
                      const std::vector<Vector>& thetas, const Dataset& data) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  // Scalar- and simd-computed profiles are distinct cache keys: they are
  // ULP-equivalent, not bitwise-equal, so a mid-process DPLEARN_SIMD toggle
  // must miss rather than serve the other mode's bits.
  h = Mix(h, simd_flavor);
  for (const char c : loss.Name()) h = Mix(h, static_cast<unsigned char>(c));
  h = Mix(h, DoubleBits(loss.UpperBound()));
  h = Mix(h, DoubleBits(loss.ParameterFingerprint()));
  h = Mix(h, thetas.size());
  for (const Vector& theta : thetas) h = HashDoubles(h, theta.data(), theta.size());
  h = Mix(h, data.size());
  for (const Example& z : data.examples()) {
    h = HashDoubles(h, z.features.data(), z.features.size());
    h = Mix(h, DoubleBits(z.label));
  }
  return h;
}

/// Bitwise double-vector equality: memcmp distinguishes NaN payloads and
/// ±0.0, exactly matching the "same bits in, same bits out" cache contract.
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("DPLEARN_RISK_CACHE");
    return env == nullptr || std::strcmp(env, "0") != 0;
  }();
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
  static RiskProfileCache* const cache = [] {
    std::size_t capacity = kDefaultCapacity;
    if (const char* env = std::getenv("DPLEARN_RISK_CACHE_CAP")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) capacity = static_cast<std::size_t>(parsed);
    }
    return new RiskProfileCache(capacity);
  }();
  return *cache;
}

bool RiskProfileCache::Matches(const Entry& entry, std::uint64_t hash,
                               std::uint64_t simd_flavor, const LossFunction& loss,
                               const std::vector<Vector>& thetas, const Dataset& data) {
  if (entry.hash != hash) return false;
  if (entry.simd_flavor != simd_flavor) return false;
  if (entry.loss_name != loss.Name()) return false;
  if (DoubleBits(entry.loss_bound) != DoubleBits(loss.UpperBound())) return false;
  if (DoubleBits(entry.loss_fingerprint) != DoubleBits(loss.ParameterFingerprint())) {
    return false;
  }
  if (entry.thetas.size() != thetas.size() || entry.examples.size() != data.size()) {
    return false;
  }
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    if (!BitwiseEqual(entry.thetas[i], thetas[i])) return false;
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!BitwiseEqual(entry.examples[i].features, data.at(i).features)) return false;
    if (DoubleBits(entry.examples[i].label) != DoubleBits(data.at(i).label)) return false;
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
    const LossFunction& loss, const std::vector<Vector>& thetas, const Dataset& data) {
  // One flavor read per call: the hash, the match predicate, and the stored
  // entry must agree even if DPLEARN_SIMD toggles while we compute. The
  // generation snapshot brackets the hash→compute→insert window against
  // in-place SetLabel/Add mutation of `data` (the learning_channel walk).
  const std::uint64_t flavor = simd::ActiveSimdFlavorId();
  const std::uint64_t generation = data.generation();
  const std::uint64_t hash = KeyHash(flavor, loss, thetas, data);
  EntryPtr candidate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto found = by_hash_.find(hash);
    if (found != by_hash_.end()) {
      candidate = *found->second;
      lru_.splice(lru_.begin(), lru_, found->second);  // move to MRU
    }
  }
  // The entry is immutable and `candidate` keeps it alive through a
  // concurrent eviction, so the verify and the copy need no lock.
  if (candidate != nullptr && Matches(*candidate, hash, flavor, loss, thetas, data)) {
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
  entry->loss_name = loss.Name();
  entry->loss_bound = loss.UpperBound();
  entry->loss_fingerprint = loss.ParameterFingerprint();
  entry->thetas = thetas;
  entry->examples = data.examples();
  entry->risks = risks;

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
                                                const std::vector<Vector>& thetas,
                                                const Dataset& data) {
  if (!RiskCacheEnabled()) return EmpiricalRiskProfile(loss, thetas, data);
  return RiskProfileCache::Global().GetOrCompute(loss, thetas, data);
}

}  // namespace perf
}  // namespace dplearn
