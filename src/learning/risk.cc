#include "learning/risk.h"

#include <cmath>
#include <optional>
#include <string>

#include "parallel/trial_runner.h"
#include "simd/kernels.h"

namespace dplearn {
namespace {

/// Below this many loss evaluations (|Θ| × n) a risk profile is cheaper to
/// compute inline than to fan out. Parallelism is per-hypothesis: each
/// risks[i] is produced by the same serial inner loop as before, so the
/// profile is bit-identical to the sequential result at any thread count.
constexpr std::size_t kParallelProfileMinWork = 1 << 14;

/// The checks a hypothesis must pass before any loss reads it. It must
/// have the data's FeatureDim() coordinates, because every loss reads θ·x.
/// It must be finite, because of the NaN-poisoning guard (DESIGN.md §14):
/// clipped losses cannot signal a poisoned input — Clamp(NaN, 0, B) ==
/// min(B, max(0, NaN)) == 0 in IEEE semantics, because max(0, NaN) returns
/// 0 — so a NaN silently becomes a zero loss and a post-sum isfinite()
/// check never fires. The only sound policy is to reject non-finite INPUTS
/// up front, with OutOfRange so callers can distinguish poisoned data from
/// structural errors. BuildDatasetSoA applies the same checks to the data.
Status ValidateTheta(const char* fn, const Vector& theta, std::size_t dim) {
  if (theta.size() != dim) {
    return InvalidArgumentError(std::string(fn) + ": hypothesis has " +
                                std::to_string(theta.size()) + " coordinates, the data " +
                                std::to_string(dim) + " features");
  }
  for (std::size_t j = 0; j < theta.size(); ++j) {
    if (!std::isfinite(theta[j])) {
      return OutOfRangeError(std::string(fn) + ": non-finite hypothesis coordinate " +
                             std::to_string(j));
    }
  }
  return Status::Ok();
}

/// The virtual-dispatch mean loss a custom loss runs. Inputs are already
/// validated; the post-sum check is for custom losses, whose formulas we
/// cannot inspect — a custom Loss() returning NaN/inf on finite inputs is
/// still a contract violation worth a typed error rather than a poisoned
/// profile.
StatusOr<double> VirtualMeanLoss(const LossFunction& loss, const Vector& theta,
                                 const Dataset& data) {
  double sum = 0.0;
  for (const Example& z : data.examples()) sum += loss.Loss(theta, z);
  const double risk = sum / static_cast<double>(data.size());
  if (!std::isfinite(risk)) {
    return OutOfRangeError("EmpiricalRisk: loss '" + loss.Name() +
                           "' produced a non-finite risk on finite inputs");
  }
  return risk;
}

}  // namespace

Status BuildDatasetSoA(const Dataset& data, simd::DatasetSoA* out) {
  const std::size_t n = data.size();
  const std::size_t dim = data.FeatureDim();
  out->Reset(n, dim);
  double* labels = out->mutable_labels();
  for (std::size_t i = 0; i < n; ++i) {
    const Example& z = data.at(i);
    if (z.features.size() != dim) {
      return InvalidArgumentError("BuildDatasetSoA: ragged dataset — example " +
                                  std::to_string(i) + " has " +
                                  std::to_string(z.features.size()) + " features, expected " +
                                  std::to_string(dim));
    }
    if (!std::isfinite(z.label)) {
      return OutOfRangeError("BuildDatasetSoA: non-finite label in example " +
                             std::to_string(i));
    }
    labels[i] = z.label;
  }
  for (std::size_t j = 0; j < dim; ++j) {
    double* col = out->mutable_column(j);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = data.at(i).features[j];
      if (!std::isfinite(v)) {
        return OutOfRangeError("BuildDatasetSoA: non-finite feature " + std::to_string(j) +
                               " in example " + std::to_string(i));
      }
      col[i] = v;
    }
  }
  return Status::Ok();
}

StatusOr<double> EmpiricalRisk(const LossFunction& loss, const Vector& theta,
                               const Dataset& data) {
  if (data.empty()) return InvalidArgumentError("EmpiricalRisk: empty dataset");
  DPLEARN_RETURN_IF_ERROR(ValidateTheta("EmpiricalRisk", theta, data.FeatureDim()));
  // BuildDatasetSoA is the data's one validation on both paths; only the
  // kernel reads the SoA.
  thread_local simd::DatasetSoA soa;
  DPLEARN_RETURN_IF_ERROR(BuildDatasetSoA(data, &soa));
  if (const std::optional<simd::LossSpec> spec = loss.KernelSpec()) {
    return simd::MeanLossKernel(*spec, theta.data(), theta.size(), soa);
  }
  return VirtualMeanLoss(loss, theta, data);
}

StatusOr<std::vector<double>> EmpiricalRiskProfile(const LossFunction& loss,
                                                   const std::vector<Vector>& thetas,
                                                   const Dataset& data) {
  if (thetas.empty()) return InvalidArgumentError("EmpiricalRiskProfile: empty hypothesis list");
  if (data.empty()) return InvalidArgumentError("EmpiricalRiskProfile: empty dataset");
  for (const Vector& theta : thetas) {
    DPLEARN_RETURN_IF_ERROR(ValidateTheta("EmpiricalRiskProfile", theta, data.FeatureDim()));
  }
  thread_local simd::DatasetSoA soa;
  DPLEARN_RETURN_IF_ERROR(BuildDatasetSoA(data, &soa));
  std::vector<double> risks(thetas.size());
  const bool parallel_eligible = thetas.size() * data.size() >= kParallelProfileMinWork;

  if (const std::optional<simd::LossSpec> spec = loss.KernelSpec()) {
    // One SoA build amortized over |Θ| kernel calls. The kernel is a pure
    // function — the parallel fan-out needs no per-hypothesis status slots,
    // and each risks[i] is identical to the serial call at any thread count.
    const simd::DatasetSoA* view = &soa;
    const simd::LossSpec kernel_spec = *spec;
    if (parallel_eligible) {
      parallel::ParallelTrialRunner runner;
      runner.ForIndex(thetas.size(), [&](std::size_t i) {
        risks[i] = simd::MeanLossKernel(kernel_spec, thetas[i].data(), thetas[i].size(), *view);
      });
    } else {
      for (std::size_t i = 0; i < thetas.size(); ++i) {
        risks[i] = simd::MeanLossKernel(kernel_spec, thetas[i].data(), thetas[i].size(), *view);
      }
    }
    return risks;
  }

  if (parallel_eligible) {
    // VirtualMeanLoss can only fail on a custom loss emitting a non-finite
    // value; the per-hypothesis status slots surface the first such failure.
    std::vector<Status> statuses(thetas.size());
    parallel::ParallelTrialRunner runner;
    runner.ForIndex(thetas.size(), [&](std::size_t i) {
      StatusOr<double> risk = VirtualMeanLoss(loss, thetas[i], data);
      if (risk.ok()) {
        risks[i] = risk.value();
      } else {
        statuses[i] = risk.status();
      }
    });
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    return risks;
  }
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    DPLEARN_ASSIGN_OR_RETURN(risks[i], VirtualMeanLoss(loss, thetas[i], data));
  }
  return risks;
}

StatusOr<double> EmpiricalRiskSensitivityBound(const LossFunction& loss, std::size_t n) {
  if (n == 0) return InvalidArgumentError("EmpiricalRiskSensitivityBound: n must be positive");
  return loss.UpperBound() / static_cast<double>(n);
}

StatusOr<double> ExactRiskSensitivity(const LossFunction& loss,
                                      const std::vector<Vector>& thetas,
                                      const std::vector<Example>& domain, std::size_t n) {
  if (thetas.empty() || domain.empty()) {
    return InvalidArgumentError("ExactRiskSensitivity: empty hypothesis list or domain");
  }
  if (n == 0) return InvalidArgumentError("ExactRiskSensitivity: n must be positive");
  double max_spread = 0.0;
  for (const Vector& theta : thetas) {
    double lo = loss.Loss(theta, domain[0]);
    double hi = lo;
    for (const Example& z : domain) {
      const double l = loss.Loss(theta, z);
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    max_spread = std::max(max_spread, hi - lo);
  }
  return max_spread / static_cast<double>(n);
}

}  // namespace dplearn
