#ifndef DPLEARN_MECHANISMS_SUBSAMPLE_H_
#define DPLEARN_MECHANISMS_SUBSAMPLE_H_

#include "learning/dataset.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {

/// Privacy amplification by subsampling: running an ε-DP mechanism on a
/// random subsample of the data strengthens the guarantee, because any
/// individual is probably not even in the subsample. DP-SGD draws its
/// batches here; its accountant (core/dp_sgd.h) owns the amplified ε.

/// Poisson subsample: each example kept independently with probability q.
/// Error if q outside (0, 1].
StatusOr<Dataset> PoissonSubsample(const Dataset& data, double q, Rng* rng);

}  // namespace dplearn

#endif  // DPLEARN_MECHANISMS_SUBSAMPLE_H_
