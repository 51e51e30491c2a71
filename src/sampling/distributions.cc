#include "sampling/distributions.h"

#include <cmath>
#include <limits>

#include "simd/kernels.h"
#include "util/math_util.h"
#include "util/status.h"

namespace dplearn {

namespace {
/// Gumbel-max poisoning guard: a NaN log-weight silently LOSES every
/// comparison (NaN + G is NaN; NaN > best is false), so a poisoned score
/// never wins and never errors — the sampler would quietly draw from the
/// wrong distribution. A +inf log-weight is the dual failure: it wins every
/// draw regardless of the Gumbel noise. Both are input bugs, rejected up
/// front with OutOfRange (matching the risk layer's non-finite-input
/// policy). -inf stays legal — it is an honest zero-mass entry.
Status ValidateLogWeights(const char* fn, const std::vector<double>& log_weights) {
  for (std::size_t i = 0; i < log_weights.size(); ++i) {
    const double w = log_weights[i];
    if (std::isnan(w) || w == std::numeric_limits<double>::infinity()) {
      return OutOfRangeError(std::string(fn) + ": non-finite log-weight (NaN or +inf) at index " +
                             std::to_string(i));
    }
  }
  return Status::Ok();
}

/// The validated Gumbel-max core every overload shares: fills `scratch`
/// with one blocked uniform draw, then takes the argmax in
/// simd::GumbelMaxIndex, which is the scalar loop itself.
StatusOr<std::size_t> GumbelMaxDraw(Rng* rng, const std::vector<double>& log_weights,
                                    std::vector<double>* scratch) {
  scratch->resize(log_weights.size());
  rng->NextDoubleOpenBatch(scratch->data(), scratch->size());
  const std::ptrdiff_t idx =
      simd::GumbelMaxIndex(log_weights.data(), scratch->data(), log_weights.size());
  if (idx < 0) return InvalidArgumentError("SampleFromLogWeights: all weights are zero");
  return static_cast<std::size_t>(idx);
}
}  // namespace

StatusOr<double> SampleUniform(Rng* rng, double lo, double hi) {
  if (!(lo < hi)) return InvalidArgumentError("SampleUniform: lo must be < hi");
  return lo + (hi - lo) * rng->NextDouble();
}

double SampleStandardNormal(Rng* rng) {
  // Marsaglia polar method; rejection loop accepts ~78.5% of candidates.
  for (;;) {
    const double u = 2.0 * rng->NextDouble() - 1.0;
    const double v = 2.0 * rng->NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

StatusOr<double> SampleNormal(Rng* rng, double mean, double stddev) {
  if (stddev <= 0.0) return InvalidArgumentError("SampleNormal: stddev must be positive");
  return mean + stddev * SampleStandardNormal(rng);
}

double NormalCdf(double x, double mean, double stddev) {
  return 0.5 * std::erfc(-(x - mean) / (stddev * 1.4142135623730951));
}

StatusOr<double> SampleLaplace(Rng* rng, double mean, double scale) {
  if (scale <= 0.0) return InvalidArgumentError("SampleLaplace: scale must be positive");
  // Inverse CDF on u ~ Uniform(-1/2, 1/2): x = mean - scale*sgn(u)*log(1-2|u|).
  const double u = rng->NextDoubleOpen() - 0.5;
  const double sgn = (u < 0.0) ? -1.0 : 1.0;
  return mean - scale * sgn * std::log1p(-2.0 * std::fabs(u));
}

double LaplacePdf(double x, double mean, double scale) {
  return std::exp(-std::fabs(x - mean) / scale) / (2.0 * scale);
}

StatusOr<double> SampleGamma(Rng* rng, double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    return InvalidArgumentError("SampleGamma: shape and scale must be positive");
  }
  // Marsaglia–Tsang squeeze method; for shape < 1 boost with U^{1/shape}.
  if (shape < 1.0) {
    DPLEARN_ASSIGN_OR_RETURN(double g, SampleGamma(rng, shape + 1.0, scale));
    const double u = rng->NextDoubleOpen();
    return g * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = SampleStandardNormal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng->NextDoubleOpen();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
  }
}

StatusOr<std::size_t> SampleDiscrete(Rng* rng, const std::vector<double>& p) {
  DPLEARN_RETURN_IF_ERROR(ValidateDistribution(p, 1e-6));
  const double u = rng->NextDouble();
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += p[i];
    if (u < acc) return i;
  }
  // u landed in the rounding slack at the top: the last atom with mass.
  std::size_t last = p.size() - 1;
  while (last > 0 && p[last] <= 0.0) --last;
  return last;
}

StatusOr<std::size_t> SampleFromLogWeights(Rng* rng, const std::vector<double>& log_weights) {
  if (log_weights.empty()) {
    return InvalidArgumentError("SampleFromLogWeights: empty input");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateLogWeights("SampleFromLogWeights", log_weights));
  // Gumbel-max: argmax_i (log w_i + G_i), G_i ~ Gumbel(0,1). The blocked
  // fill consumes the same n uniforms as n NextDoubleOpen() calls.
  std::vector<double> scratch;
  return GumbelMaxDraw(rng, log_weights, &scratch);
}

StatusOr<std::size_t> SampleFromLogWeights(Rng* rng, const std::vector<double>& log_weights,
                                           std::vector<double>* scratch) {
  if (log_weights.empty()) {
    return InvalidArgumentError("SampleFromLogWeights: empty input");
  }
  if (scratch == nullptr) {
    return InvalidArgumentError("SampleFromLogWeights: scratch must be set");
  }
  DPLEARN_RETURN_IF_ERROR(ValidateLogWeights("SampleFromLogWeights", log_weights));
  return GumbelMaxDraw(rng, log_weights, scratch);
}

Status SampleFromLogWeightsBatch(Rng* rng, const std::vector<double>& log_weights,
                                 std::size_t k, std::vector<std::size_t>* out) {
  if (log_weights.empty()) {
    return InvalidArgumentError("SampleFromLogWeightsBatch: empty input");
  }
  if (out == nullptr) {
    return InvalidArgumentError("SampleFromLogWeightsBatch: out must be set");
  }
  // Validate once for all k draws; GumbelMaxDraw assumes clean input.
  DPLEARN_RETURN_IF_ERROR(ValidateLogWeights("SampleFromLogWeightsBatch", log_weights));
  out->resize(k);
  std::vector<double> scratch;
  scratch.reserve(log_weights.size());
  for (std::size_t j = 0; j < k; ++j) {
    DPLEARN_ASSIGN_OR_RETURN((*out)[j], GumbelMaxDraw(rng, log_weights, &scratch));
  }
  return Status::Ok();
}

Status SampleUnitSphere(Rng* rng, std::size_t d, std::vector<double>* out) {
  if (d == 0) return InvalidArgumentError("SampleUnitSphere: dimension must be positive");
  if (out == nullptr) return InvalidArgumentError("SampleUnitSphere: out must be set");
  out->resize(d);
  std::vector<double>& v = *out;
  double norm_sq = 0.0;
  do {
    norm_sq = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      v[i] = SampleStandardNormal(rng);
      norm_sq += v[i] * v[i];
    }
  } while (norm_sq == 0.0);
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (double& x : v) x *= inv;
  return Status::Ok();
}

StatusOr<std::vector<double>> SampleUnitSphere(Rng* rng, std::size_t d) {
  std::vector<double> v;
  DPLEARN_RETURN_IF_ERROR(SampleUnitSphere(rng, d, &v));
  return v;
}

Status SampleGammaNormVector(Rng* rng, std::size_t d, double rate,
                             std::vector<double>* out) {
  if (rate <= 0.0) {
    return InvalidArgumentError("SampleGammaNormVector: rate must be positive");
  }
  if (out == nullptr) {
    return InvalidArgumentError("SampleGammaNormVector: out must be set");
  }
  DPLEARN_RETURN_IF_ERROR(SampleUnitSphere(rng, d, out));
  // ||b|| has density prop. to r^{d-1} exp(-rate*r), i.e. Gamma(d, 1/rate).
  DPLEARN_ASSIGN_OR_RETURN(double norm, SampleGamma(rng, static_cast<double>(d), 1.0 / rate));
  for (double& x : *out) x *= norm;
  return Status::Ok();
}

StatusOr<std::vector<double>> SampleGammaNormVector(Rng* rng, std::size_t d, double rate) {
  std::vector<double> dir;
  DPLEARN_RETURN_IF_ERROR(SampleGammaNormVector(rng, d, rate, &dir));
  return dir;
}

}  // namespace dplearn
