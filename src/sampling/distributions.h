#ifndef DPLEARN_SAMPLING_DISTRIBUTIONS_H_
#define DPLEARN_SAMPLING_DISTRIBUTIONS_H_

#include <cstddef>
#include <vector>

#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// Samplers and densities for the distributions the library needs. All
/// samplers are pure functions of the Rng stream (no hidden state), and each
/// sampler has a matching density/log-density so that the empirical DP
/// verifier can compare measured frequencies against exact densities.

/// Draws Uniform(lo, hi). Error if lo >= hi.
StatusOr<double> SampleUniform(Rng* rng, double lo, double hi);

/// Draws a standard normal via the Marsaglia polar method.
double SampleStandardNormal(Rng* rng);

/// Draws Normal(mean, stddev). Error if stddev <= 0.
StatusOr<double> SampleNormal(Rng* rng, double mean, double stddev);

/// CDF of Normal(mean, stddev) at x.
double NormalCdf(double x, double mean, double stddev);

/// Draws Laplace(mean, scale) by inverse CDF. Error if scale <= 0.
/// This is the noise distribution of the Laplace mechanism (Theorem 2.1).
StatusOr<double> SampleLaplace(Rng* rng, double mean, double scale);

/// Density of Laplace(mean, scale) at x: exp(-|x-mean|/scale) / (2*scale).
double LaplacePdf(double x, double mean, double scale);

/// Draws Gamma(shape, scale) via Marsaglia–Tsang. Error if shape <= 0 or
/// scale <= 0. Used to sample the norm of the noise vector in
/// Chaudhuri-style output/objective perturbation (the noise direction is
/// uniform on the sphere and the norm is Gamma(d, 2/(n*lambda*eps))-like).
StatusOr<double> SampleGamma(Rng* rng, double shape, double scale);

/// Draws Bernoulli(p) in {0,1}. Error if p outside [0,1]. Inline: Monte-Carlo
/// trials draw it in long per-bit loops.
inline StatusOr<int> SampleBernoulli(Rng* rng, double p) {
  if (p < 0.0 || p > 1.0) return InvalidArgumentError("SampleBernoulli: p must be in [0,1]");
  return rng->NextDouble() < p ? 1 : 0;
}

/// Draws an index from the distribution `p` by inverse CDF; `p` must be a
/// valid probability vector. Never returns a zero-mass index, even when the
/// uniform lands in the rounding slack above the last partial sum. For
/// repeated draws from a fixed distribution prefer AliasSampler.
StatusOr<std::size_t> SampleDiscrete(Rng* rng, const std::vector<double>& p);

/// Draws an index proportionally to exp(log_weights[i]) without forming the
/// normalized distribution (Gumbel-max trick): stable when weights span many
/// orders of magnitude, which they do for exponential-mechanism scores at
/// large epsilon. Error if empty; OutOfRangeError if any log-weight is NaN
/// or +inf (a NaN silently loses every Gumbel comparison and a +inf wins
/// every draw — both poison the sample, so they are rejected up front).
/// -inf entries are legal zero-mass atoms.
StatusOr<std::size_t> SampleFromLogWeights(Rng* rng, const std::vector<double>& log_weights);

/// Scratch-buffer overload for hot loops: identical draw, but the block of
/// uniforms feeding the Gumbel perturbations is filled through `scratch`
/// (resized to log_weights.size() once, then reused across calls) instead
/// of being drawn one library call at a time. Bit- and stream-identical to
/// the overload above; MCMC/Gibbs inner loops and the batch samplers pass a
/// long-lived buffer so repeated draws from the same posterior allocate
/// nothing. Error if empty or scratch == nullptr.
StatusOr<std::size_t> SampleFromLogWeights(Rng* rng, const std::vector<double>& log_weights,
                                           std::vector<double>* scratch);

/// Draws `k` i.i.d. indices from the log-weights distribution into *out —
/// bit- and stream-identical to k sequential SampleFromLogWeights calls on
/// the same Rng, but the log-weight vector is walked k times without
/// re-deriving it and with one shared scratch buffer, which is what makes
/// repeated draws from a fixed Gibbs posterior / exponential mechanism
/// cheap. *out is resized to k (its prior contents are discarded). Error if
/// log_weights is empty, out == nullptr, or all weights are zero.
Status SampleFromLogWeightsBatch(Rng* rng, const std::vector<double>& log_weights,
                                 std::size_t k, std::vector<std::size_t>* out);

/// Draws a point uniformly from the surface of the unit sphere in d
/// dimensions. Error if d == 0.
StatusOr<std::vector<double>> SampleUnitSphere(Rng* rng, std::size_t d);

/// Scratch-buffer overload: writes the point into *out (resized to d),
/// drawing the same values as the allocating overload. For per-trial noise
/// loops (private ERM sweeps) that would otherwise allocate a vector per
/// draw. Error if d == 0 or out == nullptr.
Status SampleUnitSphere(Rng* rng, std::size_t d, std::vector<double>* out);

/// Draws a noise vector with density proportional to exp(-rate * ||b||_2)
/// in d dimensions (the "Gamma-norm + uniform direction" construction used
/// by Chaudhuri–Monteleoni–Sarwate for private ERM). Error if rate <= 0 or
/// d == 0.
StatusOr<std::vector<double>> SampleGammaNormVector(Rng* rng, std::size_t d, double rate);

/// Scratch-buffer overload of SampleGammaNormVector: writes into *out
/// (resized to d), bit-identical to the allocating overload. Error if
/// rate <= 0, d == 0, or out == nullptr.
Status SampleGammaNormVector(Rng* rng, std::size_t d, double rate,
                             std::vector<double>* out);

}  // namespace dplearn

#endif  // DPLEARN_SAMPLING_DISTRIBUTIONS_H_
