#ifndef DPLEARN_LOCALDP_LOCAL_CHANNEL_H_
#define DPLEARN_LOCALDP_LOCAL_CHANNEL_H_

#include <cstddef>
#include <vector>

#include "learning/dataset.h"
#include "sampling/rng.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {
namespace localdp {

/// Local differential privacy turns the central trusted-curator channel
/// Q(theta | dataset) of the paper into a *per-example* channel
/// Q(z' | z): each record is privatized on the client before anything is
/// aggregated, so the curator never sees raw data. The neighbor relation
/// collapses to "any pair of inputs": an eps-local channel satisfies
///
///     p(output | a) <= e^eps * p(output | b)     for ALL inputs a, b
///
/// (Duchi-Jordan-Wainwright, "Local Privacy, Data Processing Inequalities,
/// and Statistical Minimax Rates"). That uniform likelihood-ratio bound is
/// the audit currency of this subsystem: every concrete channel exposes its
/// exact output log-density (up to an input-independent constant), and
/// SelfAuditPair() checks the realized ratio of any input pair at any
/// realized output against e^eps — mirroring the density audits the central
/// mechanisms get from the DP verifier.
///
/// Numerical contracts (DESIGN.md section 16):
///  * Privatize() consumes the caller's Rng only through the library
///    samplers, so outputs are bit-identical for a fixed seed at any
///    DPLEARN_THREADS (channels hold no RNG state of their own).
///  * OutputLogDensity() differences are exact log likelihood ratios; the
///    additive constant (output-space base measure) cancels in every pair.
///  * Each Privatize() fires the standard mechanism instrumentation: the
///    "mechanism.sample" fail point and a release counter/latency histogram.
class LocalChannel {
 public:
  virtual ~LocalChannel() = default;

  /// Stable instrumentation name, e.g. "localdp.randomized_response".
  virtual const char* Name() const = 0;

  /// The per-example local privacy parameter.
  virtual double epsilon() const = 0;

  /// Privatizes one example. Components the channel does not guard (see the
  /// concrete class comments) pass through unchanged.
  virtual StatusOr<Example> Privatize(const Example& example, Rng* rng) const = 0;

  /// log p(output | input) up to an additive constant that does not depend
  /// on the input — so OutputLogDensity(a, z) - OutputLogDensity(b, z) is
  /// the exact log likelihood ratio of inputs a and b at output z. Errors
  /// when `output` is not in the channel's output support or `input` is not
  /// in its input domain.
  virtual StatusOr<double> OutputLogDensity(const Example& input,
                                            const Example& output) const = 0;

  /// The per-example self-audit hook: the realized log likelihood ratio
  /// |log p(output|a) - log p(output|b)|. By eps-local DP this must be
  /// <= epsilon() for every (a, b, output) triple; callers (tests, the
  /// contraction experiment) assert that bound.
  StatusOr<double> LogLikelihoodRatio(const Example& a, const Example& b,
                                      const Example& output) const;

  /// Convenience audit: FailedPreconditionError (and a bump of the
  /// "localdp.audit.violations" counter) if the realized likelihood ratio
  /// of (a, b) at `output` exceeds e^epsilon beyond `slack` nats —
  /// the channel's own guarantee caught broken at runtime.
  Status SelfAuditPair(const Example& a, const Example& b, const Example& output,
                       double slack = 1e-9) const;
};

/// k-ary randomized response over a fixed finite label alphabet: report the
/// true label with probability e^eps / (e^eps + k - 1), otherwise one of the
/// k - 1 other labels uniformly. Guards the LABEL component only; features
/// pass through verbatim (DjwL2Channel guards features). The likelihood
/// ratio bound e^eps is met with equality, making this the canonical
/// extremal channel for the contraction experiments.
class RandomizedResponseChannel final : public LocalChannel {
 public:
  /// `labels` is the input/output alphabet (distinct values, size >= 2).
  static StatusOr<RandomizedResponseChannel> Create(double epsilon,
                                                    std::vector<double> labels);

  const char* Name() const override { return "localdp.randomized_response"; }
  double epsilon() const override { return epsilon_; }
  std::size_t alphabet_size() const { return labels_.size(); }
  const std::vector<double>& labels() const { return labels_; }
  double truth_probability() const { return p_truth_; }

  StatusOr<Example> Privatize(const Example& example, Rng* rng) const override;
  StatusOr<double> OutputLogDensity(const Example& input,
                                    const Example& output) const override;

  /// Row-stochastic transition matrix T[i][j] = P(report labels[j] | true
  /// labels[i]) — plugs straight into infotheory::DiscreteChannel for exact
  /// mutual-information / contraction computations.
  std::vector<std::vector<double>> TransitionMatrix() const;

  /// Index of `label` in the alphabet; InvalidArgumentError when absent.
  StatusOr<std::size_t> LabelIndex(double label) const;

 private:
  RandomizedResponseChannel(double epsilon, std::vector<double> labels,
                            double p_truth, double p_other)
      : epsilon_(epsilon), labels_(std::move(labels)), p_truth_(p_truth),
        p_other_(p_other) {}

  double epsilon_;
  std::vector<double> labels_;
  double p_truth_;  // e^eps / (e^eps + k - 1)
  double p_other_;  // 1 / (e^eps + k - 1), per non-true label
};

/// The Duchi-Jordan-Wainwright eps-local channel for vectors in the L2 ball
/// of radius r ("Privacy Aware Learning", mechanism for bounded gradients):
///
///   1. Round v to a sphere point: v_tilde = +-r * v/||v|| with
///      P(+) = 1/2 + ||v||/(2r).
///   2. With probability tau = e^eps / (e^eps + 1) emit a uniform draw from
///      the hemisphere {z : <z, v_tilde> > 0} of the radius-B sphere,
///      otherwise from the complementary closed hemisphere.
///
/// Every output density is either tau or 1-tau times the uniform sphere
/// measure (mixed over the sign of step 1), so the likelihood ratio of ANY
/// input pair is <= tau/(1-tau) = e^eps exactly. The output radius
///
///   B = r * (e^eps + 1) / ((e^eps - 1) * c_d),
///   c_d = E[<u, w> | <u, w> > 0] = Gamma(d/2) / (sqrt(pi) * Gamma((d+1)/2))
///
/// is calibrated so E[output | v] = v: privatized vectors average to the
/// truth, at the cost of per-coordinate noise of order r*sqrt(d)/eps for
/// small eps — the DJW minimax price of local privacy.
class DjwL2Channel final : public LocalChannel {
 public:
  /// Channel for vectors with ||v||_2 <= radius in `dim` dimensions.
  static StatusOr<DjwL2Channel> Create(double epsilon, double radius,
                                       std::size_t dim);

  const char* Name() const override { return "localdp.djw_l2"; }
  double epsilon() const override { return epsilon_; }
  double radius() const { return radius_; }
  std::size_t dim() const { return dim_; }
  /// Radius B of the output sphere; every privatized vector has this norm.
  double output_norm() const { return output_norm_; }

  /// Privatizes one vector with ||v||_2 <= radius (InvalidArgumentError
  /// beyond a 1e-9 relative tolerance — callers clip first). The output is
  /// an unbiased estimate of v with ||output||_2 = output_norm().
  StatusOr<Vector> PrivatizeVector(const Vector& v, Rng* rng) const;

  /// log p(output | input) up to the (input-independent) uniform-sphere
  /// base measure, for PrivatizeVector outputs.
  StatusOr<double> VectorLogDensity(const Vector& input, const Vector& output) const;

  /// Example adapter: privatizes `features`; the label passes through
  /// unchanged (guard it with RandomizedResponseChannel when needed).
  StatusOr<Example> Privatize(const Example& example, Rng* rng) const override;
  StatusOr<double> OutputLogDensity(const Example& input,
                                    const Example& output) const override;

 private:
  DjwL2Channel(double epsilon, double radius, std::size_t dim, double tau,
               double output_norm)
      : epsilon_(epsilon), radius_(radius), dim_(dim), tau_(tau),
        output_norm_(output_norm) {}

  double epsilon_;
  double radius_;
  std::size_t dim_;
  double tau_;          // e^eps / (e^eps + 1)
  double output_norm_;  // B
};

/// E[<u, w> | <u, w> > 0] for u uniform on the unit sphere in d dimensions
/// and any fixed unit w: Gamma(d/2) / (sqrt(pi) * Gamma((d+1)/2)). The
/// debiasing constant of the DJW mechanism (1 at d=1, 2/pi at d=2, 1/2 at
/// d=3, ~ sqrt(2/(pi*d)) for large d). Exposed for tests.
double PositiveHemisphereMeanDot(std::size_t dim);

}  // namespace localdp
}  // namespace dplearn

#endif  // DPLEARN_LOCALDP_LOCAL_CHANNEL_H_
