#ifndef DPLEARN_INFOTHEORY_CHANNEL_H_
#define DPLEARN_INFOTHEORY_CHANNEL_H_

#include <cstddef>
#include <vector>

#include "infotheory/mutual_information.h"
#include "util/status.h"

namespace dplearn {

/// A discrete memoryless channel: a row-stochastic matrix
/// W[x][y] = P(output = y | input = x).
///
/// This is the object of Figure 1 of the paper: differentially-private
/// learning *is* a channel whose input is the training sample Ẑ and whose
/// output is the predictor θ, with transition kernel the Gibbs posterior.
/// core/learning_channel.h constructs such channels from learners; this
/// class provides the information-theoretic analysis.
class DiscreteChannel {
 public:
  /// Validates row-stochasticity and wraps the matrix.
  static StatusOr<DiscreteChannel> Create(std::vector<std::vector<double>> transition);

  std::size_t num_inputs() const { return transition_.size(); }
  std::size_t num_outputs() const { return transition_.empty() ? 0 : transition_[0].size(); }

  /// P(output = y | input = x).
  double TransitionProbability(std::size_t x, std::size_t y) const {
    return transition_[x][y];
  }

  const std::vector<std::vector<double>>& transition() const { return transition_; }

  /// Output distribution induced by input distribution `px`.
  StatusOr<std::vector<double>> OutputDistribution(const std::vector<double>& px) const;

  /// Joint input/output distribution under input distribution `px`.
  StatusOr<JointDistribution> Joint(const std::vector<double>& px) const;

  /// Mutual information I(X;Y) under input distribution `px` (nats).
  StatusOr<double> MutualInformation(const std::vector<double>& px) const;

  /// The max-divergence privacy level of the channel:
  ///   eps* = max_{x,x',y} ln( W[x][y] / W[x'][y] )
  /// restricted to pairs (x,x') in `neighbors`. If `neighbors` is empty,
  /// all ordered pairs are compared (worst case / "free-range" privacy).
  /// A channel is eps-DP w.r.t. the neighbor relation iff eps* <= eps.
  /// Returns +infinity if some neighbor can produce an output the other
  /// cannot.
  double MaxLogRatio(const std::vector<std::pair<std::size_t, std::size_t>>& neighbors) const;

  /// Channel capacity max_px I(X;Y) via over-relaxed Blahut–Arimoto: the
  /// step px ∝ px·exp(μ·D) grows μ by 1.1× (up to 64) after each iteration
  /// whose lower bound I(px) did not fall, and resets it to the plain μ = 1
  /// after one where it fell. The stopping rule max_x D ≥ C ≥ Σ px·D holds
  /// for any px, so the result is within `tol` of C whatever the steps
  /// were: `tol` is the convergence threshold on that bound gap, and the
  /// returned value is its lower end. `max_iters` caps the iteration count;
  /// running out of it is an INTERNAL error. Each row's Σ_y W log W is
  /// computed once, so an iteration costs |Y| logs plus O(|X|·|Y|)
  /// multiply-adds. Errors on invalid parameters (including a NaN `tol`).
  StatusOr<double> Capacity(double tol = 1e-9, std::size_t max_iters = 10000) const;

 private:
  explicit DiscreteChannel(std::vector<std::vector<double>> transition)
      : transition_(std::move(transition)) {}

  std::vector<std::vector<double>> transition_;
};

}  // namespace dplearn

#endif  // DPLEARN_INFOTHEORY_CHANNEL_H_
