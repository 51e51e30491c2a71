#ifndef DPLEARN_UTIL_CONTENT_HASH_H_
#define DPLEARN_UTIL_CONTENT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dplearn {

/// Bitwise content hashing and equality of double data: the locators of the
/// risk-profile cache (Dataset::content_hash, ThetaContentHash) and of the
/// streaming profile's example slots. A hash match never decides equality
/// on its own; BitwiseEqual does.

/// Combines `v` into `h` with the splitmix64 finalizer — the same mixer the
/// Rng seeding uses; good avalanche for sequential combining.
inline std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t DoubleBits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Mixes the length, then the bits of every element.
inline std::uint64_t HashDoubles(std::uint64_t h, const double* data, std::size_t n) {
  h = HashMix(h, n);
  for (std::size_t i = 0; i < n; ++i) h = HashMix(h, DoubleBits(data[i]));
  return h;
}

/// memcmp equality: NaN payloads and ±0.0 are distinct, matching the "same
/// bits in, same bits out" contract of every consumer.
inline bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace dplearn

#endif  // DPLEARN_UTIL_CONTENT_HASH_H_
