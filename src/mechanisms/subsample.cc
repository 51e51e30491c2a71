#include "mechanisms/subsample.h"

#include "sampling/distributions.h"

namespace dplearn {

StatusOr<Dataset> PoissonSubsample(const Dataset& data, double q, Rng* rng) {
  if (!(q > 0.0) || q > 1.0) {
    return InvalidArgumentError("PoissonSubsample: q must be in (0,1]");
  }
  Dataset out;
  for (const Example& z : data.examples()) {
    DPLEARN_ASSIGN_OR_RETURN(int keep, SampleBernoulli(rng, q));
    if (keep == 1) out.Add(z);
  }
  return out;
}

}  // namespace dplearn
