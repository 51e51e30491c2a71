#include "learning/loss.h"

#include <cmath>

#include "util/logging.h"
#include "util/math_util.h"

namespace dplearn {

Vector LossFunction::Gradient(const Vector& theta, const Example& z) const {
  (void)theta;
  (void)z;
  DPLEARN_CHECK(false) << "Gradient() called on loss '" << Name()
                       << "' which does not implement it";
  return {};
}

double ZeroOneLoss::Loss(const Vector& theta, const Example& z) const {
  const double margin = z.label * Dot(theta, z.features);
  return margin > 0.0 ? 0.0 : 1.0;
}

ClippedSquaredLoss::ClippedSquaredLoss(double clip) : clip_(clip) {
  DPLEARN_CHECK_GT(clip, 0.0);
}

double ClippedSquaredLoss::Loss(const Vector& theta, const Example& z) const {
  const double r = Dot(theta, z.features) - z.label;
  return Clamp(r * r, 0.0, clip_);
}

LogisticLoss::LogisticLoss(double clip) : clip_(clip) { DPLEARN_CHECK_GT(clip, 0.0); }

double LogisticLoss::Loss(const Vector& theta, const Example& z) const {
  const double margin = z.label * Dot(theta, z.features);
  // log(1+exp(-m)) computed stably for both signs of m.
  const double raw = margin > 0.0 ? std::log1p(std::exp(-margin))
                                  : -margin + std::log1p(std::exp(margin));
  return Clamp(raw, 0.0, clip_);
}

Vector LogisticLoss::Gradient(const Vector& theta, const Example& z) const {
  const double margin = z.label * Dot(theta, z.features);
  // d/dtheta log(1+exp(-y theta.x)) = -y x sigmoid(-m).
  const double sigmoid_neg = 1.0 / (1.0 + std::exp(margin));
  return Scale(z.features, -z.label * sigmoid_neg);
}

}  // namespace dplearn
