#ifndef DPLEARN_UTIL_MATH_UTIL_H_
#define DPLEARN_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/status.h"

namespace dplearn {

/// Numerically-stable scalar and vector helpers shared by the sampling,
/// information-theory, and PAC-Bayes modules. All log arguments are natural
/// logs unless a function name says otherwise.

/// Natural log of 2; entropy functions convert nats->bits with this.
inline constexpr double kLn2 = 0.6931471805599453;

/// Returns log(sum_i exp(x[i])) computed stably (shift by max).
///
/// Edge cases are defined — the Gibbs-posterior and PAC-Bayes paths call
/// this on filtered log-term vectors that can legitimately be empty or
/// entirely -inf (zero-mass priors), so each corner returns the
/// mathematically consistent limit rather than NaN:
///   empty input        -> -inf   (log of an empty sum)
///   all entries -inf   -> -inf   (log of a zero sum)
///   single element x0  -> exactly x0 (exp/log round-trip is exact at 0)
///   any entry +inf     -> +inf
///   any entry NaN      -> NaN    (propagated, never silently dropped)
///
/// The span overload is the primary implementation; the vector overload
/// forwards to it. Hot paths that already hold contiguous log-weights call
/// the span form directly instead of materializing a temporary vector.
double LogSumExp(const double* x, std::size_t n);
double LogSumExp(const std::vector<double>& x);

/// Returns log(exp(a) + exp(b)) computed stably.
double LogAddExp(double a, double b);

/// Exponentiates and normalizes `log_weights` into a probability vector.
/// Stable for widely-spread magnitudes. Error if empty or all -inf.
StatusOr<std::vector<double>> SoftmaxFromLog(const std::vector<double>& log_weights);

/// In-place SoftmaxFromLog: writes the probabilities into `out` (length n;
/// out == log_weights allowed). Same edge-case Status as SoftmaxFromLog,
/// without allocating the result vector — channel-row construction calls
/// this once per row of an |X|×|Θ| channel.
Status SoftmaxFromLogInto(const double* log_weights, std::size_t n, double* out);

/// Returns x*log(x) with the continuity convention 0*log(0) = 0.
/// Error semantics: callers must pass x >= 0.
double XLogX(double x);

/// Returns x*log(x/y) with conventions 0*log(0/y)=0; +inf when x>0 and y==0.
double XLogXOverY(double x, double y);

/// Clamps `x` to [lo, hi]. Inline: every loss formula ends in it, and the
/// kernels evaluate those formulas once per hypothesis and example.
inline double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

/// The library-wide non-negativity clamp policy for information measures
/// (entropy, KL / Rényi divergence, mutual information, RDP curves). These
/// quantities are >= 0 mathematically, but floating-point evaluation can
/// land a few ulps below zero when the true value is 0 — D(p ‖ p), the
/// entropy of a near-point-mass, MI of an almost-independent joint. The
/// policy: a negative within kNonNegativeClampTol of zero is a rounding
/// artifact and clamps to exactly 0; anything more negative is a genuine
/// sign bug in the caller and passes through UNCHANGED, so tests and the
/// proptest invariant suites can see it. Do not use a bare max(0, x) in new
/// information-measure code — it would mask real bugs.
inline constexpr double kNonNegativeClampTol = 1e-9;
inline double ClampRoundingNegative(double x) {
  return (x < 0.0 && x >= -kNonNegativeClampTol) ? 0.0 : x;
}

/// Returns true iff |a-b| <= abs_tol + rel_tol*max(|a|,|b|).
bool ApproxEqual(double a, double b, double abs_tol = 1e-9, double rel_tol = 1e-9);

/// One compensated (Kahan–Babuška–Neumaier) step: *sum += x, and the
/// rounding error of that addition goes into the correction *c. The error
/// is Knuth's TwoSum, which is exact for any two finite operands whose sum
/// does not overflow, whichever is larger. Neumaier's rule, branching on
/// |*sum| >= |x|, computes the same exact error (and +0 when there is none),
/// so the two agree bitwise on such operands; without the branch a loop of
/// steps vectorizes. KahanSum::Add is this step, and the streaming risk
/// profile runs it over its arrays of sums.
inline void CompensatedAdd(double x, double* sum, double* c) {
  const double t = *sum + x;
  const double x_part = t - *sum;
  *c += (*sum - (t - x_part)) + (x - x_part);
  *sum = t;
}

/// Compensated (Kahan–Babuška–Neumaier) accumulator: the running error of
/// each addition is carried in a correction term, so summing n values costs
/// O(u) error instead of O(n·u). Used wherever many small increments must
/// not drift — the privacy accountant's spent-budget ledger, the audit
/// log's cumulative totals, sequential composition over long spend lists.
class KahanSum {
 public:
  KahanSum() = default;
  explicit KahanSum(double initial) : sum_(initial) {}

  void Add(double x) { CompensatedAdd(x, &sum_, &c_); }

  /// The compensated total.
  double Value() const { return sum_ + c_; }

  void Reset(double value = 0.0) {
    sum_ = value;
    c_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double c_ = 0.0;
};

/// Validates that `p` is a probability vector: non-negative entries summing
/// to 1 within `tol`. Returns OK or InvalidArgument with a description.
Status ValidateDistribution(const std::vector<double>& p, double tol = 1e-9);

/// Normalizes `w` (non-negative weights, not all zero) into a distribution.
StatusOr<std::vector<double>> Normalize(const std::vector<double>& w);

/// Returns an evenly spaced grid of `count` points from `lo` to `hi`
/// inclusive. Error if count < 2 or lo >= hi.
StatusOr<std::vector<double>> Linspace(double lo, double hi, std::size_t count);

}  // namespace dplearn

#endif  // DPLEARN_UTIL_MATH_UTIL_H_
