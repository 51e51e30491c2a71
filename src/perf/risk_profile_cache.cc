#include "perf/risk_profile_cache.h"

#include <atomic>
#include <iterator>
#include <shared_mutex>
#include <utility>

#include "learning/risk.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/content_hash.h"

namespace dplearn {
namespace perf {
namespace {

std::uint64_t KeyHash(const std::string& loss_name, double loss_bound,
                      std::uint64_t theta_hash, std::uint64_t data_hash) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const char c : loss_name) h = HashMix(h, static_cast<unsigned char>(c));
  h = HashMix(h, DoubleBits(loss_bound));
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

RiskProfileCache::WriterLock::WriterLock(RiskProfileCache* cache) : cache_(cache) {
  for (Stripe& stripe : cache_->stripes_) stripe.mu.lock();
}

RiskProfileCache::WriterLock::~WriterLock() {
  for (std::size_t i = kStripes; i-- > 0;) cache_->stripes_[i].mu.unlock();
}

RiskProfileCache::RiskProfileCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

RiskProfileCache& RiskProfileCache::Global() {
  static RiskProfileCache* const cache = new RiskProfileCache(kDefaultCapacity);
  return *cache;
}

RiskProfileCache::Stripe& RiskProfileCache::OwnStripe() const {
  // A thread keeps its index, and so its stripe, for life, in every cache.
  return stripes_[obs::ThreadIndex() % kStripes];
}

bool RiskProfileCache::Matches(const Entry& entry, std::uint64_t hash,
                               const std::string& loss_name, double loss_bound,
                               const std::vector<Vector>& thetas, std::uint64_t class_id,
                               const Dataset& data, std::uint64_t generation) {
  if (entry.hash != hash) return false;
  if (entry.loss_name != loss_name) return false;
  if (DoubleBits(entry.loss_bound) != DoubleBits(loss_bound)) return false;
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

void RiskProfileCache::InsertLocked(EntryList node) {
  const std::uint64_t hash = node.front().hash;
  // A racing miss on the same key, or a colliding key, may already hold
  // this hash: the newer entry replaces it.
  if (const auto old = by_hash_.find(hash); old != by_hash_.end()) {
    entries_.erase(old->second);
    by_hash_.erase(old);
  }
  // Second chance from the oldest end: a marked entry loses its mark and
  // moves to the front, and the first unmarked one is evicted. No hit runs
  // while every stripe is held, so each pass clears a mark or evicts, and
  // the loop ends within two laps.
  while (entries_.size() >= capacity_) {
    const auto oldest = std::prev(entries_.end());
    if (oldest->referenced.exchange(false, std::memory_order_relaxed)) {
      entries_.splice(entries_.begin(), entries_, oldest);
      continue;
    }
    by_hash_.erase(oldest->hash);
    entries_.pop_back();
    ++evictions_;
  }
  entries_.splice(entries_.begin(), node);
  by_hash_.emplace(hash, entries_.begin());
}

Status RiskProfileCache::Visit(const LossFunction& loss, const FiniteHypothesisClass& hclass,
                               const Dataset& data, RiskVisitor visit) {
  return Lookup(loss, hclass.thetas(), hclass.content_hash(), hclass.id(), data, visit);
}

StatusOr<std::vector<double>> RiskProfileCache::GetOrCompute(
    const LossFunction& loss, const FiniteHypothesisClass& hclass, const Dataset& data) {
  std::vector<double> risks;
  DPLEARN_RETURN_IF_ERROR(Visit(loss, hclass, data,
                                [&risks](const std::vector<double>& found) { risks = found; }));
  return risks;
}

StatusOr<std::vector<double>> RiskProfileCache::GetOrCompute(
    const LossFunction& loss, const std::vector<Vector>& thetas, const Dataset& data) {
  std::vector<double> risks;
  DPLEARN_RETURN_IF_ERROR(Lookup(loss, thetas, ThetaContentHash(thetas), /*class_id=*/0, data,
                                 [&risks](const std::vector<double>& found) { risks = found; }));
  return risks;
}

Status RiskProfileCache::Lookup(const LossFunction& loss, const std::vector<Vector>& thetas,
                                std::uint64_t theta_hash, std::uint64_t class_id,
                                const Dataset& data, RiskVisitor visit) {
  // The generation snapshot brackets the hash→compute→insert window against
  // in-place SetLabel/Add mutation of `data` (the learning_channel walk).
  const std::uint64_t generation = data.generation();
  const std::string loss_name = loss.Name();
  const double loss_bound = loss.UpperBound();
  const std::uint64_t hash = KeyHash(loss_name, loss_bound, theta_hash, data.content_hash());
  {
    // This thread's stripe keeps every writer out, so the entry stays put
    // and only its relaxed atomics can change while we verify and visit it.
    Stripe& stripe = OwnStripe();
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    const auto found = by_hash_.find(hash);
    if (found != by_hash_.end() && Matches(*found->second, hash, loss_name, loss_bound, thetas,
                                           class_id, data, generation)) {
      const Entry& entry = *found->second;
      // Written only when clear, so hits on a hot entry leave its line shared.
      if (!entry.referenced.load(std::memory_order_relaxed)) {
        entry.referenced.store(true, std::memory_order_relaxed);
      }
      stripe.hits.fetch_add(1, std::memory_order_relaxed);
      CountHit(true);
      visit(entry.risks);
      return Status::Ok();
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CountHit(false);

  // Compute outside the lock: the profile may fan out over the global thread
  // pool and can take arbitrarily long; holding the stripes would serialize
  // every other grid cell behind it.
  obs::TraceSpan span("perf.risk_cache.fill");
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> risks,
                           EmpiricalRiskProfile(loss, thetas, data));
  visit(risks);

  EntryList node(1);
  Entry& entry = node.front();
  entry.hash = hash;
  entry.loss_name = loss_name;
  entry.loss_bound = loss_bound;
  entry.thetas = thetas;
  entry.examples = data.examples();
  entry.risks = std::move(risks);
  // Filled from this class and, once the guard below passes, from the
  // examples at this generation.
  entry.verified_class_id.store(class_id, std::memory_order_relaxed);
  entry.verified_generation.store(generation, std::memory_order_relaxed);

  WriterLock lock(this);
  if (data.generation() != generation) {
    // The dataset moved under us: `hash` describes the pre-mutation content
    // but `examples`/`risks` saw some post-mutation state — a torn entry
    // that could only ever alias by hash collision, but is wrong to keep.
    // The fresh risks were visited; memoize nothing.
    ++mutation_skips_;
    return Status::Ok();
  }
  InsertLocked(std::move(node));
  return Status::Ok();
}

RiskProfileCache::Stats RiskProfileCache::stats() const {
  // Any one stripe keeps Clear() and the writers' counters still.
  std::shared_lock<std::shared_mutex> lock(OwnStripe().mu);
  Stats stats;
  for (const Stripe& stripe : stripes_) stats.hits += stripe.hits.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_;
  stats.mutation_skips = mutation_skips_;
  return stats;
}

std::size_t RiskProfileCache::size() const {
  std::shared_lock<std::shared_mutex> lock(OwnStripe().mu);
  return entries_.size();
}

void RiskProfileCache::Clear() {
  WriterLock lock(this);
  entries_.clear();
  by_hash_.clear();
  evictions_ = 0;
  mutation_skips_ = 0;
  for (Stripe& stripe : stripes_) stripe.hits.store(0, std::memory_order_relaxed);
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

Status VisitCachedRiskProfile(const LossFunction& loss, const FiniteHypothesisClass& hclass,
                              const Dataset& data, RiskProfileCache::RiskVisitor visit) {
  if (RiskCacheEnabled()) return RiskProfileCache::Global().Visit(loss, hclass, data, visit);
  DPLEARN_ASSIGN_OR_RETURN(const std::vector<double> risks,
                           EmpiricalRiskProfile(loss, hclass.thetas(), data));
  visit(risks);
  return Status::Ok();
}

}  // namespace perf
}  // namespace dplearn
