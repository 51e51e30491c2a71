#include "simd/kernels.h"

#include <cmath>
#include <limits>
#include <vector>

#include "simd/dispatch.h"
#include "util/math_util.h"

#if defined(DPLEARN_KERNELS_AVX2)
#include <immintrin.h>
#elif defined(DPLEARN_KERNELS_NEON)
#include <arm_neon.h>
#endif

namespace dplearn {
namespace simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Fixed pairwise combine of the kReductionLanes accumulators — part of the
/// reduction's determinism contract, never reassociated.
inline double CombineLanes(const double (&acc)[kReductionLanes]) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Per-element loss formulas — textually the same arithmetic as the
/// LossFunction::Loss overrides in learning/loss.cc, with the virtual call
/// and the per-example feature-vector pointer chase removed. `dot` is
/// theta·x already reduced over the feature dimension.
template <LossKind K>
struct LossElem;

template <>
struct LossElem<LossKind::kZeroOne> {
  static inline double Eval(double dot, double y, double) {
    const double margin = y * dot;
    return margin > 0.0 ? 0.0 : 1.0;
  }
};

template <>
struct LossElem<LossKind::kClippedSquared> {
  static inline double Eval(double dot, double y, double clip) {
    const double r = dot - y;
    return Clamp(r * r, 0.0, clip);
  }
};

template <>
struct LossElem<LossKind::kLogistic> {
  static inline double Eval(double dot, double y, double clip) {
    const double margin = y * dot;
    const double raw = margin > 0.0 ? std::log1p(std::exp(-margin))
                                    : -margin + std::log1p(std::exp(margin));
    return Clamp(raw, 0.0, clip);
  }
};

/// Σ_i loss(theta0 * x_i, y_i) for the dim-1 case — the layout every
/// scalar-grid benchmark and the Bernoulli channel hit. The dot product
/// degenerates to one multiply, so the whole evaluation fuses into a
/// single streaming pass the optimizer can vectorize.
template <LossKind K>
double SumLossDim1(double theta0, const double* x, const double* y, std::size_t n,
                   double clip) {
  if (n < kBlockedSumMinN) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += LossElem<K>::Eval(theta0 * x[i], y[i], clip);
    }
    return sum;
  }
  double acc[kReductionLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kReductionLanes <= n; i += kReductionLanes) {
    for (std::size_t l = 0; l < kReductionLanes; ++l) {
      acc[l] += LossElem<K>::Eval(theta0 * x[i + l], y[i + l], clip);
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    acc[l] += LossElem<K>::Eval(theta0 * x[i], y[i], clip);
  }
  return CombineLanes(acc);
}

/// Σ_i loss(dots_i, y_i) over precomputed dot products (dim > 1).
template <LossKind K>
double SumLossDots(const double* dots, const double* y, std::size_t n, double clip) {
  if (n < kBlockedSumMinN) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += LossElem<K>::Eval(dots[i], y[i], clip);
    }
    return sum;
  }
  double acc[kReductionLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kReductionLanes <= n; i += kReductionLanes) {
    for (std::size_t l = 0; l < kReductionLanes; ++l) {
      acc[l] += LossElem<K>::Eval(dots[i + l], y[i + l], clip);
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    acc[l] += LossElem<K>::Eval(dots[i], y[i], clip);
  }
  return CombineLanes(acc);
}

#if defined(DPLEARN_KERNELS_AVX2)
/// AVX2 specialization of the headline kernel (clipped squared loss,
/// dim 1): explicit 2×4-lane accumulators whose lane assignment (element
/// i → logical lane i % 8) and final pairwise combine mirror the portable
/// blocked loop exactly, so the AVX2 tier keeps the same determinism
/// contract. mul/sub/min/max are IEEE-exact per element; no FMA is used,
/// so the per-element values match the written formula at any -march.
double SumClippedSquaredDim1Avx2(double theta0, const double* x, const double* y,
                                 std::size_t n, double clip) {
  if (n < kBlockedSumMinN) {
    return SumLossDim1<LossKind::kClippedSquared>(theta0, x, y, n, clip);
  }
  const __m256d vtheta = _mm256_set1_pd(theta0);
  const __m256d vclip = _mm256_set1_pd(clip);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d acc_lo = _mm256_setzero_pd();  // logical lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // logical lanes 4..7
  std::size_t i = 0;
  for (; i + kReductionLanes <= n; i += kReductionLanes) {
    const __m256d r_lo = _mm256_sub_pd(_mm256_mul_pd(vtheta, _mm256_loadu_pd(x + i)),
                                       _mm256_loadu_pd(y + i));
    const __m256d r_hi =
        _mm256_sub_pd(_mm256_mul_pd(vtheta, _mm256_loadu_pd(x + i + 4)),
                      _mm256_loadu_pd(y + i + 4));
    // Clamp(r*r, 0, clip) = min(clip, max(0, r*r)) with the same operand
    // order as util::Clamp.
    const __m256d l_lo =
        _mm256_min_pd(vclip, _mm256_max_pd(vzero, _mm256_mul_pd(r_lo, r_lo)));
    const __m256d l_hi =
        _mm256_min_pd(vclip, _mm256_max_pd(vzero, _mm256_mul_pd(r_hi, r_hi)));
    acc_lo = _mm256_add_pd(acc_lo, l_lo);
    acc_hi = _mm256_add_pd(acc_hi, l_hi);
  }
  alignas(32) double acc[kReductionLanes];
  _mm256_store_pd(acc, acc_lo);
  _mm256_store_pd(acc + 4, acc_hi);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    acc[l] += LossElem<LossKind::kClippedSquared>::Eval(theta0 * x[i], y[i], clip);
  }
  return CombineLanes(acc);
}
#endif  // DPLEARN_KERNELS_AVX2

template <LossKind K>
double SumLossDispatchDim1(double theta0, const double* x, const double* y,
                           std::size_t n, double clip) {
#if defined(DPLEARN_KERNELS_AVX2)
  if constexpr (K == LossKind::kClippedSquared) {
    return SumClippedSquaredDim1Avx2(theta0, x, y, n, clip);
  }
#endif
  return SumLossDim1<K>(theta0, x, y, n, clip);
}

template <typename F>
decltype(auto) DispatchKind(LossKind kind, F&& f) {
  switch (kind) {
    case LossKind::kZeroOne:
      return f.template operator()<LossKind::kZeroOne>();
    case LossKind::kClippedSquared:
      return f.template operator()<LossKind::kClippedSquared>();
    case LossKind::kLogistic:
      break;
  }
  return f.template operator()<LossKind::kLogistic>();
}

/// d[i] += t·v[i] for i < n: the dot-product step both loss kernels sweep
/// feature by feature, MeanLossKernel over examples and FoldExampleLoss
/// over hypotheses. One loop for both keeps each dot's products and sums
/// the same, including any multiply-add the target contracts.
inline void AddScaled(double t, const double* v, std::size_t n, double* d) {
  for (std::size_t i = 0; i < n; ++i) d[i] += t * v[i];
}

/// The fold of FoldExampleLoss for one kind and direction: the sum i gets
/// ±LossElem(a[i]·scale, y). Dim 1 passes (Θ, x₀), so a[i]·scale is the
/// single multiply θ_i0·x₀ that MeanLossKernel forms; dim > 1 passes (the
/// dots, 1.0), and multiplying by 1.0 is exact.
/// n = 1 keeps MeanLossKernel's sum sequential: 0.0 + l and l / 1.0 are l
/// itself, because no loss formula returns -0.0.
template <LossKind K, bool kRemove>
void FoldLosses(const double* a, double scale, std::size_t m, double y, double clip,
                double* sums, double* comps) {
  for (std::size_t i = 0; i < m; ++i) {
    const double l = LossElem<K>::Eval(a[i] * scale, y, clip);
    CompensatedAdd(kRemove ? -l : l, &sums[i], &comps[i]);
  }
}

/// Max scan that propagates the FIRST NaN (matching util::LogSumExp's
/// explicit scan). Returns the running max otherwise.
double MaxPropagatingNan(const double* x, std::size_t n, bool* has_nan,
                         double* first_nan) {
  *has_nan = false;
#if defined(DPLEARN_KERNELS_AVX2)
  if (n >= kBlockedSumMinN) {
    __m256d vmax = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      // Unordered compare flags NaN lanes; fall back to the scalar scan so
      // the FIRST NaN (not an arbitrary lane) is the one reported.
      if (_mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q)) != 0) break;
      vmax = _mm256_max_pd(vmax, v);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vmax);
    double m = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; i < n; ++i) {
      if (std::isnan(x[i])) {
        *has_nan = true;
        *first_nan = x[i];
        return m;
      }
      if (x[i] > m) m = x[i];
    }
    return m;
  }
#elif defined(DPLEARN_KERNELS_NEON)
  if (n >= kBlockedSumMinN) {
    float64x2_t vmax = vdupq_n_f64(kNegInf);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const float64x2_t v = vld1q_f64(x + i);
      // v == v is false exactly on NaN lanes.
      const uint64x2_t ord = vceqq_f64(v, v);
      if ((vgetq_lane_u64(ord, 0) & vgetq_lane_u64(ord, 1)) == 0) break;
      vmax = vmaxq_f64(vmax, v);
    }
    double m = std::max(vgetq_lane_f64(vmax, 0), vgetq_lane_f64(vmax, 1));
    for (; i < n; ++i) {
      if (std::isnan(x[i])) {
        *has_nan = true;
        *first_nan = x[i];
        return m;
      }
      if (x[i] > m) m = x[i];
    }
    return m;
  }
#endif
  double m = kNegInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i])) {
      *has_nan = true;
      *first_nan = x[i];
      return m;
    }
    if (x[i] > m) m = x[i];
  }
  return m;
}

}  // namespace

double MeanLossKernel(const LossSpec& spec, const double* theta, std::size_t dim,
                      const DatasetSoA& data) {
  const std::size_t n = data.size();
  const double* y = data.labels();
  const double clip = spec.clip;
  double sum;
  if (dim == 1) {
    const double theta0 = theta[0];
    const double* x = data.column(0);
    sum = DispatchKind(spec.kind, [&]<LossKind K>() {
      return SumLossDispatchDim1<K>(theta0, x, y, n, clip);
    });
  } else {
    // General dim: reduce theta·x_i into a scratch row first (feature-major
    // sweep over the SoA columns keeps every inner loop contiguous), then
    // stream the loss over the dots. Accumulation order over j matches the
    // scalar Dot(), so each dot is the sequential dot product's value.
    thread_local std::vector<double> dots;
    dots.assign(n, 0.0);
    double* d = dots.data();
    for (std::size_t j = 0; j < dim; ++j) AddScaled(theta[j], data.column(j), n, d);
    sum = DispatchKind(spec.kind, [&]<LossKind K>() {
      return SumLossDots<K>(d, y, n, clip);
    });
  }
  return sum / static_cast<double>(n);
}

void FoldExampleLoss(const LossSpec& spec, const double* thetas, std::size_t m,
                     std::size_t dim, const double* x, double y, bool remove,
                     double* sums, double* comps) {
  const double* a = thetas;
  const double scale = dim == 1 ? x[0] : 1.0;
  if (dim != 1) {
    // The dots θ_i·x, feature-major as MeanLossKernel sums them.
    thread_local std::vector<double> dots;
    dots.assign(m, 0.0);
    for (std::size_t j = 0; j < dim; ++j) AddScaled(x[j], thetas + j * m, m, dots.data());
    a = dots.data();
  }
  DispatchKind(spec.kind, [&]<LossKind K>() {
    if (remove) {
      FoldLosses<K, true>(a, scale, m, y, spec.clip, sums, comps);
    } else {
      FoldLosses<K, false>(a, scale, m, y, spec.clip, sums, comps);
    }
  });
}

double LogSumExp(const double* x, std::size_t n) {
  if (n == 0) return kNegInf;
  bool has_nan = false;
  double first_nan = 0.0;
  const double m = MaxPropagatingNan(x, n, &has_nan, &first_nan);
  if (has_nan) return first_nan;
  if (!std::isfinite(m)) return m;
  if (n < kBlockedSumMinN) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += std::exp(x[i] - m);
    return m + std::log(sum);
  }
  double acc[kReductionLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kReductionLanes <= n; i += kReductionLanes) {
    for (std::size_t l = 0; l < kReductionLanes; ++l) {
      acc[l] += std::exp(x[i + l] - m);
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) acc[l] += std::exp(x[i] - m);
  return m + std::log(CombineLanes(acc));
}

void TiltLogWeights(const double* values, const double* log_addend, std::size_t n,
                    double scale, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = scale * values[i] + log_addend[i];
}

std::ptrdiff_t GumbelMaxIndex(const double* log_w, const double* uniforms,
                              std::size_t n) {
  std::size_t best = 0;
  double best_val = kNegInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double gumbel = -std::log(-std::log(uniforms[i]));
    const double val = log_w[i] + gumbel;
    if (val > best_val) {  // strict: the first index wins a tie
      best_val = val;
      best = i;
    }
  }
  if (best_val == kNegInf) return -1;
  return static_cast<std::ptrdiff_t>(best);
}

}  // namespace simd
}  // namespace dplearn
