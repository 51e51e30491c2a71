#ifndef DPLEARN_SRC_SIMD_DISPATCH_H_
#define DPLEARN_SRC_SIMD_DISPATCH_H_

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
/// There is no run-time switch: a loss with a LossSpec (its KernelSpec())
/// always runs the kernels, and a custom loss always runs the virtual loop.
#if defined(__AVX2__)
#define DPLEARN_KERNELS_AVX2 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define DPLEARN_KERNELS_NEON 1
#else
#define DPLEARN_KERNELS_PORTABLE 1
#endif

enum class SimdFlavor { kPortable, kAvx2, kNeon };

/// The tier this binary's kernels were compiled for.
constexpr SimdFlavor ActiveSimdFlavor() {
#if defined(DPLEARN_KERNELS_AVX2)
  return SimdFlavor::kAvx2;
#elif defined(DPLEARN_KERNELS_NEON)
  return SimdFlavor::kNeon;
#else
  return SimdFlavor::kPortable;
#endif
}

/// Stable lowercase name for reports/metrics ("portable", "avx2", "neon").
constexpr const char* SimdFlavorName(SimdFlavor flavor) {
  switch (flavor) {
    case SimdFlavor::kPortable:
      return "portable";
    case SimdFlavor::kAvx2:
      return "avx2";
    case SimdFlavor::kNeon:
      return "neon";
  }
  return "unknown";
}

}  // namespace simd
}  // namespace dplearn

#endif  // DPLEARN_SRC_SIMD_DISPATCH_H_
