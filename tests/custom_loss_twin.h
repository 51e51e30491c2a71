#ifndef DPLEARN_TESTS_CUSTOM_LOSS_TWIN_H_
#define DPLEARN_TESTS_CUSTOM_LOSS_TWIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "learning/loss.h"

namespace dplearn {

/// The custom twin of a built-in loss L: Loss() and UpperBound() forward to
/// an L, and it has no KernelSpec(), so every risk it enters runs the
/// virtual loop where L runs the kernel. Comparing L with its twin
/// compares the two paths in one process. The twin has its own Name(), so
/// the risk-profile cache keeps their entries apart.
template <typename L>
class CustomTwin final : public LossFunction {
 public:
  template <typename... Args>
  explicit CustomTwin(Args&&... args) : base_(std::forward<Args>(args)...) {}

  double Loss(const Vector& theta, const Example& z) const override {
    return base_.Loss(theta, z);
  }
  double UpperBound() const override { return base_.UpperBound(); }
  std::string Name() const override { return base_.Name() + "_twin"; }

 private:
  L base_;
};

/// A built-in loss and its CustomTwin.
struct LossAndTwin {
  std::string name;
  std::unique_ptr<LossFunction> kernel;
  std::unique_ptr<LossFunction> twin;
};

/// One of each kernel loss kind, with its twin.
inline std::vector<LossAndTwin> KernelLossesAndTwins() {
  std::vector<LossAndTwin> losses;
  losses.push_back({"zero_one", std::make_unique<ZeroOneLoss>(),
                    std::make_unique<CustomTwin<ZeroOneLoss>>()});
  losses.push_back({"clipped_squared", std::make_unique<ClippedSquaredLoss>(1.0),
                    std::make_unique<CustomTwin<ClippedSquaredLoss>>(1.0)});
  losses.push_back({"logistic", std::make_unique<LogisticLoss>(4.0),
                    std::make_unique<CustomTwin<LogisticLoss>>(4.0)});
  return losses;
}

}  // namespace dplearn

#endif  // DPLEARN_TESTS_CUSTOM_LOSS_TWIN_H_
