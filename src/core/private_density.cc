#include "core/private_density.h"

#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "core/gibbs_estimator.h"
#include "mechanisms/geometric.h"
#include "mechanisms/sensitivity.h"
#include "sampling/distributions.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

/// Extracts integer category labels in [0, bins) from `data`.
StatusOr<std::vector<std::size_t>> CategoriesOf(const Dataset& data, std::size_t bins) {
  if (data.empty()) return InvalidArgumentError("private density: empty dataset");
  if (bins == 0) return InvalidArgumentError("private density: bins must be positive");
  std::vector<std::size_t> categories;
  categories.reserve(data.size());
  for (const Example& z : data.examples()) {
    if (z.label < 0.0 || z.label >= static_cast<double>(bins) ||
        std::floor(z.label) != z.label) {
      return InvalidArgumentError("private density: labels must be integers in [0, bins)");
    }
    categories.push_back(static_cast<std::size_t>(z.label));
  }
  return categories;
}

StatusOr<std::vector<double>> NoisyCountsToDensity(std::vector<double> counts) {
  double total = 0.0;
  for (double& c : counts) {
    c = std::max(0.0, c);
    total += c;
  }
  if (total <= 0.0) {
    // All mass destroyed by noise: fall back to uniform (data-independent).
    return std::vector<double>(counts.size(), 1.0 / static_cast<double>(counts.size()));
  }
  for (double& c : counts) c /= total;
  return counts;
}

}  // namespace

StatusOr<std::vector<std::vector<double>>> QuantizedSimplex(std::size_t bins,
                                                            std::size_t resolution) {
  if (bins == 0) return InvalidArgumentError("QuantizedSimplex: bins must be positive");
  if (resolution == 0) {
    return InvalidArgumentError("QuantizedSimplex: resolution must be positive");
  }
  std::vector<std::vector<double>> candidates;
  std::vector<std::size_t> composition(bins, 0);
  // Depth-first enumeration of compositions of `resolution` into `bins`.
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (position, remaining)
  std::function<void(std::size_t, std::size_t)> recurse =
      [&](std::size_t position, std::size_t remaining) {
        if (position == bins - 1) {
          composition[position] = remaining;
          std::vector<double> density(bins);
          for (std::size_t i = 0; i < bins; ++i) {
            density[i] =
                static_cast<double>(composition[i]) / static_cast<double>(resolution);
          }
          candidates.push_back(std::move(density));
          return;
        }
        for (std::size_t take = 0; take <= remaining; ++take) {
          composition[position] = take;
          recurse(position + 1, remaining - take);
        }
      };
  recurse(0, resolution);
  return candidates;
}

StatusOr<double> ClippedLogLoss(const std::vector<double>& density, std::size_t bin,
                                double clip, double floor) {
  if (bin >= density.size()) return InvalidArgumentError("ClippedLogLoss: bin out of range");
  if (!(clip > 0.0)) return InvalidArgumentError("ClippedLogLoss: clip must be positive");
  if (!(floor > 0.0) || floor >= 1.0) {
    return InvalidArgumentError("ClippedLogLoss: floor must be in (0,1)");
  }
  const double raw = -std::log(std::max(density[bin], floor));
  return Clamp(raw, 0.0, clip) / clip;
}

StatusOr<PrivateDensityResult> GibbsDensityEstimate(const Dataset& data, std::size_t bins,
                                                    const GibbsDensityOptions& options,
                                                    Rng* rng) {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<std::size_t> categories, CategoriesOf(data, bins));
  if (!(options.epsilon > 0.0)) {
    return InvalidArgumentError("GibbsDensityEstimate: epsilon must be positive");
  }
  DPLEARN_ASSIGN_OR_RETURN(std::vector<std::vector<double>> candidates,
                           QuantizedSimplex(bins, options.resolution));

  // Empirical risk of each candidate: mean clipped log-loss (in [0,1]).
  // Per-candidate risk depends only on the bin counts — compute them once.
  std::vector<double> counts(bins, 0.0);
  for (std::size_t c : categories) counts[c] += 1.0;
  const double n = static_cast<double>(categories.size());

  std::vector<double> risks(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double risk = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
      if (counts[b] == 0.0) continue;
      DPLEARN_ASSIGN_OR_RETURN(
          double loss, ClippedLogLoss(candidates[i], b, options.clip, options.floor));
      risk += counts[b] * loss;
    }
    risks[i] = risk / n;
  }

  // Loss is bounded in [0,1] => D(R) <= 1/n => lambda = eps*n/2 hits eps.
  const double lambda = options.epsilon * n / 2.0;
  std::vector<double> prior(candidates.size(),
                            1.0 / static_cast<double>(candidates.size()));
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> posterior,
                           GibbsPosteriorFromRisks(risks, prior, lambda));
  std::vector<double> log_weights(posterior.size());
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    log_weights[i] = posterior[i] > 0.0 ? std::log(posterior[i])
                                        : -std::numeric_limits<double>::infinity();
  }
  DPLEARN_ASSIGN_OR_RETURN(std::size_t chosen, SampleFromLogWeights(rng, log_weights));

  PrivateDensityResult result;
  result.density = candidates[chosen];
  result.epsilon = options.epsilon;
  return result;
}

StatusOr<PrivateDensityResult> LaplaceHistogramEstimate(const Dataset& data,
                                                        std::size_t bins, double epsilon,
                                                        Rng* rng) {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<std::size_t> categories, CategoriesOf(data, bins));
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("LaplaceHistogramEstimate: epsilon must be positive");
  }
  std::vector<double> counts(bins, 0.0);
  for (std::size_t c : categories) counts[c] += 1.0;
  // Replace-one moves one record between two bins: L1 sensitivity 2.
  for (double& c : counts) {
    DPLEARN_ASSIGN_OR_RETURN(double noise, SampleLaplace(rng, 0.0, 2.0 / epsilon));
    c += noise;
  }
  PrivateDensityResult result;
  DPLEARN_ASSIGN_OR_RETURN(result.density, NoisyCountsToDensity(std::move(counts)));
  result.epsilon = epsilon;
  return result;
}

StatusOr<PrivateDensityResult> GeometricHistogramEstimate(const Dataset& data,
                                                          std::size_t bins, double epsilon,
                                                          Rng* rng) {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<std::size_t> categories, CategoriesOf(data, bins));
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError("GeometricHistogramEstimate: epsilon must be positive");
  }
  std::vector<double> counts(bins, 0.0);
  for (std::size_t c : categories) counts[c] += 1.0;
  // Same L1 sensitivity 2 => per-bin two-sided geometric with alpha = e^{-eps/2}.
  const double alpha = std::exp(-epsilon / 2.0);
  for (double& c : counts) {
    DPLEARN_ASSIGN_OR_RETURN(std::int64_t noise, SampleTwoSidedGeometric(rng, alpha));
    c += static_cast<double>(noise);
  }
  PrivateDensityResult result;
  DPLEARN_ASSIGN_OR_RETURN(result.density, NoisyCountsToDensity(std::move(counts)));
  result.epsilon = epsilon;
  return result;
}

StatusOr<std::vector<double>> EmpiricalHistogram(const Dataset& data, std::size_t bins) {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<std::size_t> categories, CategoriesOf(data, bins));
  std::vector<double> density(bins, 0.0);
  for (std::size_t c : categories) density[c] += 1.0;
  for (double& d : density) d /= static_cast<double>(categories.size());
  return density;
}

}  // namespace dplearn
