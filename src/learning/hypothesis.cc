#include "learning/hypothesis.h"

#include <algorithm>
#include <atomic>

#include "util/content_hash.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

std::uint64_t NextClassId() {
  // Starts at 1: 0 is the risk-profile cache's "no class" id.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t ThetaContentHash(const std::vector<Vector>& thetas) {
  std::uint64_t h = HashMix(0x2545f4914f6cdd1dULL, thetas.size());
  for (const Vector& theta : thetas) h = HashDoubles(h, theta.data(), theta.size());
  return h;
}

FiniteHypothesisClass::FiniteHypothesisClass(std::vector<Vector> thetas)
    : thetas_(std::make_shared<const std::vector<Vector>>(std::move(thetas))),
      id_(NextClassId()),
      content_hash_(ThetaContentHash(*thetas_)) {}

StatusOr<FiniteHypothesisClass> FiniteHypothesisClass::Create(std::vector<Vector> thetas) {
  if (thetas.empty()) {
    return InvalidArgumentError("FiniteHypothesisClass: must contain at least one hypothesis");
  }
  const std::size_t dim = thetas[0].size();
  if (dim == 0) {
    return InvalidArgumentError("FiniteHypothesisClass: hypotheses must be non-empty vectors");
  }
  for (const Vector& t : thetas) {
    if (t.size() != dim) {
      return InvalidArgumentError("FiniteHypothesisClass: inconsistent dimensions");
    }
  }
  return FiniteHypothesisClass(std::move(thetas));
}

StatusOr<FiniteHypothesisClass> FiniteHypothesisClass::ScalarGrid(double lo, double hi,
                                                                  std::size_t count) {
  DPLEARN_ASSIGN_OR_RETURN(std::vector<double> grid, Linspace(lo, hi, count));
  std::vector<Vector> thetas;
  thetas.reserve(grid.size());
  for (double g : grid) thetas.push_back(Vector{g});
  return Create(std::move(thetas));
}

std::vector<double> FiniteHypothesisClass::UniformPrior() const {
  return std::vector<double>(size(), 1.0 / static_cast<double>(size()));
}

StatusOr<std::size_t> FiniteHypothesisClass::ArgMin(const std::vector<double>& scores) const {
  if (scores.size() != size()) {
    return InvalidArgumentError("FiniteHypothesisClass::ArgMin: score size mismatch");
  }
  return static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
}

}  // namespace dplearn
