#include "core/dp_verifier.h"

#include <cmath>
#include <limits>

namespace dplearn {
namespace {

/// Updates `result` with the pointwise log-ratio comparison of two
/// distributions (both directions), tagging provenance.
void CompareDistributions(const std::vector<double>& pa, const std::vector<double>& pb,
                          std::size_t base_index, std::size_t neighbor_index,
                          DpAuditResult* result) {
  for (std::size_t u = 0; u < pa.size(); ++u) {
    const double a = pa[u];
    const double b = pb[u];
    if (a == 0.0 && b == 0.0) continue;
    if (a == 0.0 || b == 0.0) {
      result->unbounded = true;
      result->worst_base = base_index;
      result->worst_neighbor = neighbor_index;
      result->worst_output = u;
      continue;
    }
    const double ratio = std::fabs(std::log(a / b));
    if (ratio > result->max_log_ratio) {
      result->max_log_ratio = ratio;
      result->worst_base = base_index;
      result->worst_neighbor = neighbor_index;
      result->worst_output = u;
    }
  }
}

}  // namespace

StatusOr<DpAuditResult> AuditFiniteMechanism(const FiniteOutputMechanism& mechanism,
                                             const std::vector<Dataset>& bases,
                                             const std::vector<Example>& domain) {
  if (!mechanism) return InvalidArgumentError("AuditFiniteMechanism: mechanism must be set");
  if (bases.empty()) return InvalidArgumentError("AuditFiniteMechanism: no base datasets");
  if (domain.empty()) return InvalidArgumentError("AuditFiniteMechanism: empty domain");

  DpAuditResult result;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p_base, mechanism(bases[b]));
    const std::vector<Dataset> neighbors = EnumerateNeighbors(bases[b], domain);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      DPLEARN_ASSIGN_OR_RETURN(std::vector<double> p_neighbor, mechanism(neighbors[k]));
      if (p_neighbor.size() != p_base.size()) {
        return InternalError("AuditFiniteMechanism: mechanism changed output arity");
      }
      CompareDistributions(p_base, p_neighbor, b, k, &result);
    }
  }
  return result;
}

StatusOr<DpAuditResult> AuditScalarDensityMechanism(const ScalarDensityFn& density,
                                                    const std::vector<Dataset>& bases,
                                                    const std::vector<Example>& domain,
                                                    const std::vector<double>& probe_outputs) {
  if (!density) {
    return InvalidArgumentError("AuditScalarDensityMechanism: density must be set");
  }
  if (bases.empty() || domain.empty() || probe_outputs.empty()) {
    return InvalidArgumentError("AuditScalarDensityMechanism: empty input");
  }

  // The densities at the probe points are the exact audit's finite "output
  // distribution": the same neighbor sweep and the same comparisons.
  const FiniteOutputMechanism at_probes =
      [&density, &probe_outputs](const Dataset& data) -> StatusOr<std::vector<double>> {
    std::vector<double> densities(probe_outputs.size());
    for (std::size_t o = 0; o < probe_outputs.size(); ++o) {
      densities[o] = density(data, probe_outputs[o]);
    }
    return densities;
  };
  return AuditFiniteMechanism(at_probes, bases, domain);
}

StatusOr<DpAuditResult> SampledAuditPair(const SamplingMechanism& mechanism,
                                         const Dataset& data_a, const Dataset& data_b,
                                         std::size_t num_outputs, std::size_t num_samples,
                                         std::size_t min_count, Rng* rng) {
  if (!mechanism) return InvalidArgumentError("SampledAuditPair: mechanism must be set");
  if (num_outputs == 0) {
    return InvalidArgumentError("SampledAuditPair: num_outputs must be positive");
  }
  if (num_samples == 0) {
    return InvalidArgumentError("SampledAuditPair: num_samples must be positive");
  }
  if (!data_a.IsNeighborOf(data_b)) {
    return InvalidArgumentError("SampledAuditPair: datasets are not neighbors");
  }

  std::vector<std::size_t> count_a(num_outputs, 0);
  std::vector<std::size_t> count_b(num_outputs, 0);
  for (std::size_t i = 0; i < num_samples; ++i) {
    DPLEARN_ASSIGN_OR_RETURN(std::size_t ua, mechanism(data_a, rng));
    DPLEARN_ASSIGN_OR_RETURN(std::size_t ub, mechanism(data_b, rng));
    if (ua >= num_outputs || ub >= num_outputs) {
      return InternalError("SampledAuditPair: mechanism produced out-of-range output");
    }
    ++count_a[ua];
    ++count_b[ub];
  }

  DpAuditResult result;
  for (std::size_t u = 0; u < num_outputs; ++u) {
    const std::size_t ca = count_a[u];
    const std::size_t cb = count_b[u];
    if (ca == 0 && cb == 0) continue;
    if (ca == 0 || cb == 0) {
      if (std::max(ca, cb) >= min_count) {
        result.unbounded = true;
        result.worst_output = u;
      }
      continue;
    }
    const double ratio =
        std::fabs(std::log(static_cast<double>(ca) / static_cast<double>(cb)));
    if (ratio > result.max_log_ratio) {
      result.max_log_ratio = ratio;
      result.worst_output = u;
    }
  }
  return result;
}

}  // namespace dplearn
