#include "localdp/local_channel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "obs/audit_log.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "robustness/failpoint.h"
#include "sampling/distributions.h"

namespace dplearn {
namespace localdp {
// Each Privatize() opens with the same instrumentation sequence as the
// central mechanisms (LaplaceMechanism::Release et al.): fail point first
// (chaos configs abort the draw before any side effect), then count/latency
// metrics behind MetricsEnabled(), then the audit self-report. The metric
// names differ per channel, so the static-local handles live in each
// Privatize() body; this macro keeps the sequence identical.
#define DPLEARN_LOCALDP_INSTRUMENT_PRIVATIZE(metric_prefix, epsilon)            \
  DPLEARN_RETURN_IF_ERROR(robustness::Inject("mechanism.sample"));              \
  static obs::Histogram* const release_us = obs::GlobalMetrics().GetHistogram(  \
      metric_prefix ".release.us");                                             \
  obs::LatencyTimer timer(obs::MetricsEnabled() ? release_us : nullptr);        \
  if (obs::MetricsEnabled()) {                                                  \
    static obs::Counter* const releases =                                       \
        obs::GlobalMetrics().GetCounter(metric_prefix ".releases");             \
    releases->Increment();                                                      \
  }                                                                             \
  obs::AuditMechanismInvocation(metric_prefix, (epsilon), 0.0)

// ---------------------------------------------------------------------------
// LocalChannel base audit hooks.

StatusOr<double> LocalChannel::LogLikelihoodRatio(const Example& a, const Example& b,
                                                  const Example& output) const {
  DPLEARN_ASSIGN_OR_RETURN(const double log_a, OutputLogDensity(a, output));
  DPLEARN_ASSIGN_OR_RETURN(const double log_b, OutputLogDensity(b, output));
  return std::fabs(log_a - log_b);
}

Status LocalChannel::SelfAuditPair(const Example& a, const Example& b,
                                   const Example& output, double slack) const {
  DPLEARN_ASSIGN_OR_RETURN(const double ratio, LogLikelihoodRatio(a, b, output));
  if (ratio <= epsilon() + slack) return Status::Ok();
  if (obs::MetricsEnabled()) {
    static obs::Counter* const violations =
        obs::GlobalMetrics().GetCounter("localdp.audit.violations");
    violations->Increment();
  }
  return FailedPreconditionError(std::string(Name()) +
                                 ": likelihood-ratio audit breach: |log ratio| " +
                                 std::to_string(ratio) + " > epsilon " +
                                 std::to_string(epsilon()));
}

// ---------------------------------------------------------------------------
// RandomizedResponseChannel.

StatusOr<RandomizedResponseChannel> RandomizedResponseChannel::Create(
    double epsilon, std::vector<double> labels) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return InvalidArgumentError(
        "RandomizedResponseChannel: epsilon must be positive and finite");
  }
  if (labels.size() < 2) {
    return InvalidArgumentError(
        "RandomizedResponseChannel: alphabet needs at least 2 labels");
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!std::isfinite(labels[i])) {
      return InvalidArgumentError("RandomizedResponseChannel: labels must be finite");
    }
    for (std::size_t j = i + 1; j < labels.size(); ++j) {
      if (labels[i] == labels[j]) {
        return InvalidArgumentError("RandomizedResponseChannel: labels must be distinct");
      }
    }
  }
  const double k = static_cast<double>(labels.size());
  const double e_eps = std::exp(epsilon);
  if (!std::isfinite(e_eps)) {
    return InvalidArgumentError(
        "RandomizedResponseChannel: epsilon too large (e^eps overflows)");
  }
  const double p_truth = e_eps / (e_eps + k - 1.0);
  const double p_other = 1.0 / (e_eps + k - 1.0);
  return RandomizedResponseChannel(epsilon, std::move(labels), p_truth, p_other);
}

StatusOr<Example> RandomizedResponseChannel::Privatize(const Example& example,
                                                       Rng* rng) const {
  DPLEARN_LOCALDP_INSTRUMENT_PRIVATIZE("localdp.randomized_response", epsilon_);
  DPLEARN_ASSIGN_OR_RETURN(const std::size_t true_index, LabelIndex(example.label));
  DPLEARN_ASSIGN_OR_RETURN(const int keep, SampleBernoulli(rng, p_truth_));
  Example out = example;  // features pass through verbatim
  if (keep == 1) {
    out.label = labels_[true_index];
    return out;
  }
  // Uniform over the k-1 other labels: each lands with probability
  // (1 - p_truth) / (k - 1) = p_other exactly.
  const std::size_t shift = static_cast<std::size_t>(
      rng->NextBounded(static_cast<std::uint64_t>(labels_.size() - 1)));
  std::size_t report = true_index + 1 + shift;
  if (report >= labels_.size()) report -= labels_.size();
  out.label = labels_[report];
  return out;
}

StatusOr<double> RandomizedResponseChannel::OutputLogDensity(
    const Example& input, const Example& output) const {
  DPLEARN_ASSIGN_OR_RETURN(const std::size_t in_index, LabelIndex(input.label));
  DPLEARN_ASSIGN_OR_RETURN(const std::size_t out_index, LabelIndex(output.label));
  return std::log(in_index == out_index ? p_truth_ : p_other_);
}

std::vector<std::vector<double>> RandomizedResponseChannel::TransitionMatrix() const {
  const std::size_t k = labels_.size();
  std::vector<std::vector<double>> transition(k, std::vector<double>(k, p_other_));
  for (std::size_t i = 0; i < k; ++i) transition[i][i] = p_truth_;
  return transition;
}

StatusOr<std::vector<double>> RandomizedResponseChannel::DebiasedFrequencies(
    const std::vector<double>& reports) const {
  if (reports.empty()) {
    return InvalidArgumentError(
        "RandomizedResponseChannel::DebiasedFrequencies: empty reports");
  }
  std::vector<double> counts(labels_.size(), 0.0);
  for (const double report : reports) {
    DPLEARN_ASSIGN_OR_RETURN(const std::size_t index, LabelIndex(report));
    counts[index] += 1.0;
  }
  const double n = static_cast<double>(reports.size());
  // E[freq[i]] = pi[i] * p_truth + (1 - pi[i]) * p_other, so inverting is a
  // per-entry affine map; the estimates sum to 1 because the frequencies do.
  std::vector<double> estimate(labels_.size(), 0.0);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    estimate[i] = (counts[i] / n - p_other_) / (p_truth_ - p_other_);
  }
  return estimate;
}

StatusOr<std::size_t> RandomizedResponseChannel::LabelIndex(double label) const {
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return i;
  }
  return InvalidArgumentError(
      "RandomizedResponseChannel: label " + std::to_string(label) +
      " is not in the channel alphabet");
}

// ---------------------------------------------------------------------------
// DjwL2Channel.

double PositiveHemisphereMeanDot(std::size_t dim) {
  const double d = static_cast<double>(dim);
  // Gamma(d/2) / (sqrt(pi) * Gamma((d+1)/2)) via lgamma to stay finite at
  // large d (both gammas overflow individually past d ~ 340).
  return std::exp(std::lgamma(d / 2.0) - std::lgamma((d + 1.0) / 2.0)) /
         std::sqrt(M_PI);
}

StatusOr<DjwL2Channel> DjwL2Channel::Create(double epsilon, double radius,
                                            std::size_t dim) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return InvalidArgumentError("DjwL2Channel: epsilon must be positive and finite");
  }
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    return InvalidArgumentError("DjwL2Channel: radius must be positive and finite");
  }
  if (dim == 0) return InvalidArgumentError("DjwL2Channel: dim must be positive");
  const double e_eps = std::exp(epsilon);
  if (!std::isfinite(e_eps)) {
    return InvalidArgumentError("DjwL2Channel: epsilon too large (e^eps overflows)");
  }
  const double tau = e_eps / (e_eps + 1.0);
  const double c_d = PositiveHemisphereMeanDot(dim);
  // B = r * (e^eps + 1) / ((e^eps - 1) * c_d): the unique output radius for
  // which E[output | v] = v. Diverges as eps -> 0 like 2r/(eps*c_d) — the
  // variance cost of local privacy.
  const double output_norm = radius * (e_eps + 1.0) / ((e_eps - 1.0) * c_d);
  if (!std::isfinite(output_norm)) {
    return InvalidArgumentError("DjwL2Channel: epsilon too small (output norm overflows)");
  }
  return DjwL2Channel(epsilon, radius, dim, tau, output_norm);
}

namespace {

/// Direction of the sphere rounding step: v/||v||, or the first basis
/// vector for v = 0 (any fixed choice works — at v = 0 the sign is a fair
/// coin so the density is direction-free; the sampler and the density
/// formula just have to agree, and they both call this).
Vector RoundingDirection(const Vector& v, double norm) {
  Vector w(v.size(), 0.0);
  if (norm > 0.0) {
    for (std::size_t i = 0; i < v.size(); ++i) w[i] = v[i] / norm;
  } else {
    w[0] = 1.0;
  }
  return w;
}

}  // namespace

StatusOr<Vector> DjwL2Channel::PrivatizeVector(const Vector& v, Rng* rng) const {
  DPLEARN_LOCALDP_INSTRUMENT_PRIVATIZE("localdp.djw_l2", epsilon_);
  if (v.size() != dim_) {
    return InvalidArgumentError("DjwL2Channel: input has dimension " +
                                std::to_string(v.size()) + ", channel expects " +
                                std::to_string(dim_));
  }
  const double norm = Norm2(v);
  if (norm > radius_ * (1.0 + 1e-9)) {
    return InvalidArgumentError(
        "DjwL2Channel: ||input|| = " + std::to_string(norm) + " exceeds radius " +
        std::to_string(radius_) + " — clip before privatizing");
  }
  const double p_plus = 0.5 + std::min(norm, radius_) / (2.0 * radius_);
  DPLEARN_ASSIGN_OR_RETURN(const int plus, SampleBernoulli(rng, p_plus));
  const Vector w_hat = RoundingDirection(v, norm);
  const double sign = plus == 1 ? 1.0 : -1.0;
  DPLEARN_ASSIGN_OR_RETURN(const int favored, SampleBernoulli(rng, tau_));
  DPLEARN_ASSIGN_OR_RETURN(Vector u, SampleUnitSphere(rng, dim_));
  // Reflect the uniform sphere draw into the hemisphere the coin picked:
  // <z, sign*w_hat> > 0 with probability tau, the closed complement with
  // probability 1 - tau. Reflection preserves uniformity per hemisphere.
  const double dot = sign * Dot(u, w_hat);
  const bool in_positive = dot > 0.0;
  if (in_positive != (favored == 1)) {
    for (double& coordinate : u) coordinate = -coordinate;
  }
  for (double& coordinate : u) coordinate *= output_norm_;
  return u;
}

StatusOr<double> DjwL2Channel::VectorLogDensity(const Vector& input,
                                                const Vector& output) const {
  if (input.size() != dim_ || output.size() != dim_) {
    return InvalidArgumentError("DjwL2Channel: density query dimension mismatch");
  }
  const double norm = Norm2(input);
  if (norm > radius_ * (1.0 + 1e-9)) {
    return InvalidArgumentError("DjwL2Channel: density input outside the radius ball");
  }
  const double out_norm = Norm2(output);
  if (std::fabs(out_norm - output_norm_) > 1e-6 * output_norm_) {
    return InvalidArgumentError(
        "DjwL2Channel: output is not on the channel's output sphere");
  }
  const double p_plus = 0.5 + std::min(norm, radius_) / (2.0 * radius_);
  const Vector w_hat = RoundingDirection(input, norm);
  const double dot = Dot(output, w_hat);
  // Mixture over the rounding sign; each branch is tau or 1-tau times the
  // uniform hemisphere measure (the shared output-sphere base measure is
  // the additive constant this log-density is defined up to). The boundary
  // <z, w> = 0 belongs to the "not favored" closed hemisphere of both
  // signs, matching the sampler's strict > test.
  const double density_plus = dot > 0.0 ? tau_ : 1.0 - tau_;
  const double density_minus = -dot > 0.0 ? tau_ : 1.0 - tau_;
  return std::log(p_plus * density_plus + (1.0 - p_plus) * density_minus);
}

StatusOr<Example> DjwL2Channel::Privatize(const Example& example, Rng* rng) const {
  DPLEARN_ASSIGN_OR_RETURN(Vector privatized, PrivatizeVector(example.features, rng));
  Example out;
  out.features = std::move(privatized);
  out.label = example.label;  // label passes through — compose to guard it
  return out;
}

StatusOr<double> DjwL2Channel::OutputLogDensity(const Example& input,
                                                const Example& output) const {
  return VectorLogDensity(input.features, output.features);
}

// ---------------------------------------------------------------------------
// ComposedExampleChannel.

StatusOr<ComposedExampleChannel> ComposedExampleChannel::Create(
    DjwL2Channel feature_channel, RandomizedResponseChannel label_channel) {
  return ComposedExampleChannel(std::move(feature_channel), std::move(label_channel));
}

StatusOr<Example> ComposedExampleChannel::Privatize(const Example& example,
                                                    Rng* rng) const {
  DPLEARN_ASSIGN_OR_RETURN(Example features_done, feature_channel_.Privatize(example, rng));
  return label_channel_.Privatize(features_done, rng);
}

StatusOr<double> ComposedExampleChannel::OutputLogDensity(const Example& input,
                                                          const Example& output) const {
  DPLEARN_ASSIGN_OR_RETURN(const double feature_term,
                           feature_channel_.OutputLogDensity(input, output));
  DPLEARN_ASSIGN_OR_RETURN(const double label_term,
                           label_channel_.OutputLogDensity(input, output));
  return feature_term + label_term;
}

}  // namespace localdp
}  // namespace dplearn
