#include "infotheory/fano.h"

#include <cmath>

#include "util/math_util.h"

namespace dplearn {

StatusOr<double> FanoErrorLowerBound(double mutual_information,
                                     std::size_t num_hypotheses) {
  if (num_hypotheses < 2) {
    return InvalidArgumentError("FanoErrorLowerBound: need at least 2 hypotheses");
  }
  if (!(mutual_information >= 0.0)) {
    return InvalidArgumentError("FanoErrorLowerBound: MI must be >= 0");
  }
  const double bound =
      1.0 - (mutual_information + kLn2) / std::log(static_cast<double>(num_hypotheses));
  return Clamp(bound, 0.0, 1.0);
}

StatusOr<double> LeCamErrorLowerBound(double total_variation) {
  if (!(total_variation >= 0.0 && total_variation <= 1.0)) {
    return InvalidArgumentError("LeCamErrorLowerBound: TV must be in [0,1]");
  }
  return (1.0 - total_variation) / 2.0;
}

StatusOr<double> PinskerTvUpperBound(double kl) {
  if (!(kl >= 0.0)) return InvalidArgumentError("PinskerTvUpperBound: KL must be >= 0");
  return std::min(1.0, std::sqrt(kl / 2.0));
}

}  // namespace dplearn
