#ifndef DPLEARN_INFOTHEORY_RENYI_H_
#define DPLEARN_INFOTHEORY_RENYI_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace dplearn {

/// Rényi divergences and Rényi differential privacy (RDP) accounting
/// (Mironov 2017). Extension beyond the paper: the modern refinement of
/// the same information-theoretic view of DP the paper pioneered — privacy
/// as a bound on a divergence between output distributions on neighbors,
/// with max-divergence (the paper's Definition 2.1) the α→∞ endpoint of
/// the Rényi family and KL (the PAC-Bayes currency) the α→1 endpoint.

/// Rényi divergence D_α(p ‖ q) of order α over finite alphabets (nats).
/// α must be positive and != 1 (use KlDivergence for α = 1). Returns
/// +infinity when unsupported mass makes it so. Error on invalid input.
StatusOr<double> RenyiDivergence(const std::vector<double>& p, const std::vector<double>& q,
                                 double alpha);

/// An RDP guarantee: D_α(M(D) ‖ M(D')) <= epsilon for all neighbors.
struct RdpBudget {
  double alpha = 2.0;
  double epsilon = 0.0;
};

/// RDP curve of the Gaussian mechanism with noise sigma and sensitivity Δ:
///   ε(α) = α Δ² / (2 σ²). Error if sigma <= 0, sensitivity <= 0, alpha <= 1.
StatusOr<RdpBudget> GaussianMechanismRdp(double sigma, double sensitivity, double alpha);

/// RDP curve of the Laplace mechanism with scale b and sensitivity Δ
/// (Mironov 2017, Prop. 6), for α > 1:
///   ε(α) = (1/(α-1)) ln( (α/(2α-1)) e^{(α-1)Δ/b} + ((α-1)/(2α-1)) e^{-αΔ/b} ).
StatusOr<RdpBudget> LaplaceMechanismRdp(double scale, double sensitivity, double alpha);

/// RDP composes additively at fixed α: k repetitions of an (α, ε)-RDP
/// mechanism are (α, k·ε)-RDP. Error on invalid input.
StatusOr<RdpBudget> ComposeRdp(const RdpBudget& per_mechanism, std::size_t k);

/// Conversion to approximate DP (Mironov 2017, Prop. 3): (α, ε)-RDP implies
/// ( ε + ln(1/δ)/(α-1), δ )-DP for any δ in (0,1). Error on invalid input.
StatusOr<double> RdpToApproximateDpEpsilon(const RdpBudget& rdp, double delta);

/// Best (smallest) approximate-DP ε obtainable from a family of RDP
/// guarantees at different orders (the standard "optimize over α" step).
/// Error if the list is empty or delta invalid.
StatusOr<double> BestEpsilonFromRdpCurve(const std::vector<RdpBudget>& curve, double delta);

}  // namespace dplearn

#endif  // DPLEARN_INFOTHEORY_RENYI_H_
