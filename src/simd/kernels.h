#ifndef DPLEARN_SRC_SIMD_KERNELS_H_
#define DPLEARN_SRC_SIMD_KERNELS_H_

#include <cstddef>

#include "simd/dataset_soa.h"

namespace dplearn {
namespace simd {

/// Vectorized hot-loop kernels (DESIGN.md §14). Every kernel is a pure
/// function of its raw-span inputs and is deterministic within one build:
/// no thread-count, call-order, or cache-state dependence. The numerical
/// contract relative to the virtual loop a custom loss runs is two-tiered:
///
///   * ELEMENT-WISE kernels (TiltLogWeights, GumbelMaxIndex) perform the same per-element arithmetic as the
///     scalar formulas and no reduction, so they are reorder-free.
///     GumbelMaxIndex has no vector variant: it is the one Gumbel-max loop
///     every sampler calls, so the kernels never change which hypothesis a
///     sampler draws.
///   * FoldExampleLoss evaluates one example under every hypothesis with
///     MeanLossKernel's per-element formula and folds each loss into that
///     hypothesis's compensated sum; per hypothesis it is reorder-free.
///   * REDUCTION kernels (MeanLossKernel, LogSumExp) accumulate in
///     kReductionLanes independent lanes below a fixed pairwise combine —
///     a reordered but deterministic sum. For n < kBlockedSumMinN the sum
///     is sequential and bitwise-identical to scalar; above it the result
///     is ULP-close (the difference of two summation orders of the same
///     values), bounded by tests/simd_equivalence_test.
///
/// Cross-build bitwise identity is NOT promised: different -march levels
/// legalize different contractions. Within one build a loss takes one path
/// for life (its KernelSpec()), so same bits in give same bits out.

/// Lanes of the blocked reduction. Element i lands in lane i % 8; lanes
/// combine as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline constexpr std::size_t kReductionLanes = 8;

/// Below this length reductions stay sequential (bitwise-identical to the
/// scalar code); blocking a handful of elements buys nothing and would cost
/// hand-written tests their exact expectations.
inline constexpr std::size_t kBlockedSumMinN = 32;

/// The loss kinds with devirtualized kernels: the built-in
/// learning/LossFunction subclasses whose Loss() is a pure formula of
/// (theta·x, label, clip). A loss names its kind through
/// LossFunction::KernelSpec(); a custom loss names none and keeps the
/// virtual-dispatch loop.
enum class LossKind {
  kZeroOne,
  kClippedSquared,
  kLogistic,
};

/// Parameters a kernel needs to evaluate one loss kind: the clip is the
/// declared upper bound B of every clipped loss (unused by kZeroOne).
struct LossSpec {
  LossKind kind = LossKind::kZeroOne;
  double clip = 1.0;
};

/// Mean loss (the empirical risk) of `theta` over `data`:
/// (1/n) Σ_i l_theta(x_i, y_i), evaluated devirtualized over the SoA
/// layout with the blocked reduction. Preconditions (the caller —
/// learning/risk — validates them): data non-empty, dim == data.dim(),
/// all inputs finite. Finite inputs yield a finite result in [0, B] for
/// every kind.
double MeanLossKernel(const LossSpec& spec, const double* theta, std::size_t dim,
                      const DatasetSoA& data);

/// The streaming risk profile's per-example pass (DESIGN.md §15.1): for
/// each of m hypotheses, adds the loss l_i = l_{θ_i}(x, y) to the
/// compensated sum (sums[i], comps[i]) with CompensatedAdd, the step of
/// KahanSum::Add, or subtracts it when `remove`. `thetas` is feature-major:
/// thetas[j·m + i] is coordinate j of θ_i. l_i is MeanLossKernel's
/// per-element formula on θ_i·x, the dot product summed in feature order
/// from 0.0 (dim 1: θ_i0·x_0), so it is bitwise what MeanLossKernel returns
/// for the one-example dataset {(x, y)}. Preconditions as MeanLossKernel:
/// all inputs finite.
void FoldExampleLoss(const LossSpec& spec, const double* thetas, std::size_t m,
                     std::size_t dim, const double* x, double y, bool remove,
                     double* sums, double* comps);

/// log Σ exp(x_i) with the blocked reduction. Edge cases match
/// util::LogSumExp exactly: n==0 → -inf, any NaN → that NaN (first one),
/// all -inf → -inf, any +inf → +inf, and n < kBlockedSumMinN is bitwise
/// the scalar result.
double LogSumExp(const double* x, std::size_t n);

/// out[i] = scale * values[i] + log_addend[i] — the Gibbs/exponential
/// tilt. Gibbs passes (risks, log-prior, -λ); the exponential mechanism
/// passes (quality, log-prior, ε). One shared instruction sequence keeps
/// the two views of Theorem 4.1 numerically interchangeable. In-place
/// (out == values) is allowed.
void TiltLogWeights(const double* values, const double* log_addend, std::size_t n,
                    double scale, double* out);

/// Gumbel-max argmax: first index maximizing log_w[i] - log(-log(u_i))
/// over the pre-drawn uniforms u in (0,1). A plain scalar loop with the
/// first-wins scan, and the only one: every SampleFromLogWeights overload
/// and the batch sampler call it. Returns -1 when the running max never
/// leaves -inf (all weights zero). Precondition: log_w free of NaN/+inf
/// (the sampling layer rejects those with a typed Status first).
std::ptrdiff_t GumbelMaxIndex(const double* log_w, const double* uniforms,
                              std::size_t n);

}  // namespace simd
}  // namespace dplearn

#endif  // DPLEARN_SRC_SIMD_KERNELS_H_
