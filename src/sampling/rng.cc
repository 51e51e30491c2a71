#include "sampling/rng.h"

#include "util/logging.h"

namespace dplearn {
namespace {

/// splitmix64 step: used to expand a single seed into xoshiro state and to
/// derive child seeds. Reference: Steele, Lea & Flood, "Fast Splittable
/// Pseudorandom Number Generators" (OOPSLA 2014).
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // xoshiro state must not be all-zero; splitmix64 of any seed cannot produce
  // four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

template <bool kOpen>
void Rng::FillDoubles(double* out, std::size_t n) {
  // An armed fail point may zero any draw, so take one draw at a time and
  // let the hook see every index, exactly as n single draws would.
  if (robustness::FailPointsEnabled()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = kOpen ? NextDoubleOpen() : NextDouble();
    return;
  }
  // Disarmed, the xoshiro256++ steps of NextUint64 run on local state, which
  // the compiler keeps in registers for the whole block.
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t result = std::rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    out[i] = kOpen ? OpenUnitFromBits(result)
                   : static_cast<double>(result >> 11) * 0x1.0p-53;
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Rng::NextDoubleBatch(double* out, std::size_t n) { FillDoubles<false>(out, n); }

void Rng::NextDoubleOpenBatch(double* out, std::size_t n) { FillDoubles<true>(out, n); }

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  DPLEARN_CHECK_GT(bound, 0u);
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace dplearn
