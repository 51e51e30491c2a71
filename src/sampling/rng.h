#ifndef DPLEARN_SAMPLING_RNG_H_
#define DPLEARN_SAMPLING_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "robustness/failpoint.h"

namespace dplearn {

/// Deterministic 64-bit pseudo-random generator (xoshiro256++, seeded via
/// splitmix64). Every randomized component in the library takes an Rng (or a
/// seed) explicitly, so that experiments are reproducible bit-for-bit.
///
/// Not cryptographically secure — adequate for simulation and for the
/// *empirical verification* of DP properties, but a deployment that needs
/// DP against a real adversary must swap in a secure source of randomness.
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Returns the next 64 uniform random bits. Inline, like the two uniform
  /// draws below, so per-draw loops pay no call.
  std::uint64_t NextUint64() {
    // Chaos hook: `rng.degenerate` forces all-zero output bits so downstream
    // samplers prove they cannot emit NaN/inf on degenerate uniforms. The
    // state still advances, so rejection samplers (e.g. NextBounded) make
    // progress under every:N / prob:p triggers; `always` starves them by
    // design. Disarmed, the hook is one relaxed load.
    const bool degenerate = robustness::ShouldFail("rng.degenerate");
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return degenerate ? 0 : result;
  }

  /// Returns a uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    // Top 53 bits -> [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform double in the open interval (0, 1); never 0 or 1, so
  /// it is safe as an argument to log() and log1p(-u) in inverse-CDF
  /// samplers.
  double NextDoubleOpen() { return OpenUnitFromBits(NextUint64()); }

  /// The NextDoubleOpen() value of 64 raw bits: (k + 0.5)·2⁻⁵³ for their
  /// top 53 bits k. For k = 2⁵³ − 1 that sum rounds to 2⁵³, so the all-ones
  /// draw maps to 1 − 2⁻⁵³, the largest double below 1; every other k keeps
  /// its value. Range: [2⁻⁵⁴, 1 − 2⁻⁵³].
  static double OpenUnitFromBits(std::uint64_t bits) {
    const double u = (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Fills out[0..n) with the next n uniform doubles in [0, 1) — bit- and
  /// stream-identical to n NextDouble() calls, and the fail-point hook fires
  /// on the same draw indices. Batched consumers (alias tables, Gumbel-max
  /// draws) use it to keep the generator state in registers across a block:
  /// with no fail point armed it checks the hook once per batch, not once
  /// per draw.
  void NextDoubleBatch(double* out, std::size_t n);

  /// Blocked NextDoubleOpen(): fills out[0..n) with doubles in (0, 1),
  /// bit- and stream-identical to n NextDoubleOpen() calls.
  void NextDoubleOpenBatch(double* out, std::size_t n);

  /// Returns a uniform integer in [0, bound) without modulo bias.
  /// `bound` must be positive.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Returns an independently-seeded child generator. Splitting is how
  /// experiments give each trial / each mechanism invocation its own stream
  /// without correlation.
  Rng Split();

 private:
  /// The two batch fills: NextDoubleOpen() values when kOpen, else
  /// NextDouble() values.
  template <bool kOpen>
  void FillDoubles(double* out, std::size_t n);

  std::uint64_t s_[4];
};

}  // namespace dplearn

#endif  // DPLEARN_SAMPLING_RNG_H_
