#ifndef DPLEARN_LEARNING_PREPROCESS_H_
#define DPLEARN_LEARNING_PREPROCESS_H_

#include "learning/dataset.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {

/// Data preprocessing that privacy analyses assume but papers rarely
/// spell out. The Chaudhuri et al. sensitivity calculations require
/// ||x|| <= 1; clipped losses require labels in a known range. These
/// transforms make those preconditions true BY CONSTRUCTION (per-record,
/// data-independent parameters), so they compose with any DP mechanism
/// without spending budget.

/// Scales every feature vector with norm > max_norm down onto the sphere
/// of radius max_norm (per-record clipping: data-independent, free of
/// privacy cost). Error if max_norm <= 0.
StatusOr<Dataset> ClipFeatureNorm(const Dataset& data, double max_norm);

/// Clamps labels into [lo, hi] per record. Error if lo >= hi.
StatusOr<Dataset> ClipLabels(const Dataset& data, double lo, double hi);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_PREPROCESS_H_
