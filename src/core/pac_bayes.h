#ifndef DPLEARN_CORE_PAC_BAYES_H_
#define DPLEARN_CORE_PAC_BAYES_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace dplearn {

/// PAC-Bayesian risk bounds (Section 3 of the paper; Catoni 2007,
/// Zhang 2006, McAllester 1999). All bounds take the two data-dependent
/// scalars they are functions of — the posterior's expected empirical risk
/// E_ρ[R̂] and the divergence KL(ρ ‖ π) — so they apply to any posterior
/// representation (finite vectors, MCMC estimates).
///
/// Losses must be scaled to [0, 1] (Catoni's setting). n is the sample
/// size, λ > 0 the bound's free parameter, δ in (0,1) the confidence.

/// Catoni's high-probability bound (Theorem 3.1, first display): with
/// probability >= 1-δ over Ẑ ~ Q^n, for every posterior ρ,
///
///   E_ρ[R] <= [ 1 - exp( -(λ/n)·E_ρ[R̂] - (KL(ρ‖π) + ln(1/δ))/n ) ]
///             / (1 - exp(-λ/n)).
///
/// Returns the right-hand side, clamped to [0, 1] (a bound above 1 is
/// vacuous for [0,1] losses but still valid). Errors on invalid arguments.
StatusOr<double> CatoniHighProbabilityBound(double expected_empirical_risk, double kl,
                                            double lambda, std::size_t n, double delta);

/// Catoni's in-expectation bound (Equation 1 of the paper):
///
///   E_Ẑ E_ρ[R] <= [ 1 - exp( -(λ/n)·( E_Ẑ[E_ρ R̂ + KL(ρ‖π)/λ] ) ) ]
///                 / (1 - exp(-λ/n)).
///
/// `expected_objective` is E_Ẑ[E_ρ R̂ + KL/λ] (estimate it by averaging the
/// PacBayesObjective over resampled Ẑ). Errors on invalid arguments.
StatusOr<double> CatoniExpectationBound(double expected_objective, double lambda,
                                        std::size_t n);

/// McAllester's classical bound, for comparison experiments:
///   E_ρ[R] <= E_ρ[R̂] + sqrt( (KL + ln(2 sqrt(n) / δ)) / (2n) ).
StatusOr<double> McAllesterBound(double expected_empirical_risk, double kl, std::size_t n,
                                 double delta);

/// The PAC-Bayes OBJECTIVE the bounds are monotone in (Lemma 3.2):
///
///   F(ρ) = E_ρ[R̂] + KL(ρ ‖ π) / λ
///
/// over a finite Θ with risk vector `risks` and prior `prior`. The Gibbs
/// posterior GibbsPosteriorFromRisks(risks, prior, λ) is its unique
/// minimizer (Donsker–Varadhan), and the minimum value equals
/// -(1/λ) ln E_π[exp(-λ R̂)]. Errors on invalid/mismatched input.
StatusOr<double> PacBayesObjective(const std::vector<double>& posterior,
                                   const std::vector<double>& risks,
                                   const std::vector<double>& prior, double lambda);

/// The closed-form minimum of the PAC-Bayes objective:
///   min_ρ F(ρ) = -(1/λ) ln E_{θ~π}[exp(-λ R̂(θ))]
/// (the log-partition / free-energy form). Tests assert
/// PacBayesObjective(Gibbs) == this to machine precision. Errors on
/// invalid input or lambda <= 0.
StatusOr<double> PacBayesObjectiveMinimum(const std::vector<double>& risks,
                                          const std::vector<double>& prior, double lambda);

/// The λ that (approximately) optimizes Catoni's linearized bound when the
/// KL term is of size `kl_scale`: λ* = sqrt(2 n kl_scale) clipped to
/// [1, n]. A heuristic the experiments use to pick temperatures; the privacy
/// level that falls out is then 2λ*Δ(R̂).
double SuggestLambda(std::size_t n, double kl_scale);

}  // namespace dplearn

#endif  // DPLEARN_CORE_PAC_BAYES_H_
