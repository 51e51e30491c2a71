#ifndef DPLEARN_SIMD_DISPATCH_H_
#define DPLEARN_SIMD_DISPATCH_H_

#include <cstdint>

namespace dplearn {
namespace simd {

/// Compile-time SIMD tier selection (DESIGN.md §14). The library ships one
/// set of kernel entry points (kernels.h); which body they run is decided
/// when the translation unit is compiled:
///
///   kAvx2      x86-64 with AVX2 available (-march=x86-64-v3 or better):
///              256-bit double lanes for the arithmetic risk kernels and
///              the max/argmax scans.
///   kNeon      AArch64 with Advanced SIMD: 128-bit double lanes for the
///              same kernels.
///   kPortable  everything else: structure-of-arrays kernels written as
///              fixed-width blocked loops (kReductionLanes independent
///              accumulators) that the optimizer can auto-vectorize, plus
///              devirtualized loss evaluation. This is the fallback tier —
///              it carries most of the win (no virtual call per example, no
///              array-of-structs pointer chasing) even on a machine with no
///              vector units at all.
///
/// Orthogonally, the runtime knob DPLEARN_SIMD (default on; "0" disables)
/// switches the library call sites between the kernel path and the legacy
/// scalar path, so one process can run both for differential testing — the
/// same shape as SetRiskCacheEnabled. The flavor of the *enabled* path is a
/// property of the build; the disabled path is always the legacy scalar
/// code.
#if defined(__AVX2__)
#define DPLEARN_SIMD_AVX2 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define DPLEARN_SIMD_NEON 1
#else
#define DPLEARN_SIMD_PORTABLE 1
#endif

enum class SimdFlavor : std::uint8_t {
  /// Legacy scalar path (kernels bypassed; DPLEARN_SIMD=0).
  kScalar = 0,
  kPortable = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// The tier this binary's kernels were compiled for (never kScalar).
constexpr SimdFlavor CompiledSimdFlavor() {
#if defined(DPLEARN_SIMD_AVX2)
  return SimdFlavor::kAvx2;
#elif defined(DPLEARN_SIMD_NEON)
  return SimdFlavor::kNeon;
#else
  return SimdFlavor::kPortable;
#endif
}

/// Stable lowercase name for reports/metrics ("scalar", "portable", "avx2",
/// "neon").
const char* SimdFlavorName(SimdFlavor flavor);

/// Whether library call sites (risk profiles, log-weight tilts, softmax
/// rows, Gumbel-max) use the vectorized kernels. Defaults to enabled;
/// DPLEARN_SIMD=0 disables it at startup, and tests/benchmarks flip it at
/// runtime to compare the kernel path against the legacy path in-process.
bool SimdEnabled();
void SetSimdEnabled(bool enabled);

/// The flavor of the path a call made right now would take: kScalar when
/// SimdEnabled() is false, else CompiledSimdFlavor().
inline SimdFlavor ActiveSimdFlavor() {
  return SimdEnabled() ? CompiledSimdFlavor() : SimdFlavor::kScalar;
}

/// Numeric id of ActiveSimdFlavor() for content-hash keys: results computed
/// by different tiers are ULP-close but not bitwise equal, so any cache
/// that promises "same bits in, same bits out" must incorporate this id in
/// its key (see perf::RiskProfileCache).
inline std::uint64_t ActiveSimdFlavorId() {
  return static_cast<std::uint64_t>(ActiveSimdFlavor());
}

}  // namespace simd
}  // namespace dplearn

#endif  // DPLEARN_SIMD_DISPATCH_H_
