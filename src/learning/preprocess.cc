#include "learning/preprocess.h"

#include "util/math_util.h"

namespace dplearn {

StatusOr<Dataset> ClipFeatureNorm(const Dataset& data, double max_norm) {
  if (!(max_norm > 0.0)) {
    return InvalidArgumentError("ClipFeatureNorm: max_norm must be positive");
  }
  Dataset out;
  for (const Example& z : data.examples()) {
    Example clipped = z;
    const double norm = Norm2(clipped.features);
    if (norm > max_norm) {
      const double scale = max_norm / norm;
      for (double& x : clipped.features) x *= scale;
    }
    out.Add(std::move(clipped));
  }
  return out;
}

StatusOr<Dataset> ClipLabels(const Dataset& data, double lo, double hi) {
  if (!(lo < hi)) return InvalidArgumentError("ClipLabels: lo must be < hi");
  Dataset out;
  for (const Example& z : data.examples()) {
    Example clipped = z;
    clipped.label = Clamp(clipped.label, lo, hi);
    out.Add(std::move(clipped));
  }
  return out;
}

}  // namespace dplearn
