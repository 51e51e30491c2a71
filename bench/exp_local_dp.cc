// E-LDP: the local-privacy channel story, measured.
//
// Part 1 — contraction / data-processing. An eps-LDP channel is a noisy
// map whose likelihood ratios are capped at e^eps, so information about the
// input can only contract through it. Duchi–Jordan–Wainwright make that
// quantitative: for ANY eps-local channel Q and ANY pair of input laws,
// KL(Q(P0) || Q(P1)) <= min(4, e^eps) (e^eps - 1)^2 TV(P0, P1)^2 — which
// bounds I(X; Z) <= min(eps, min(4, e^eps)(e^eps - 1)^2) in nats; the
// quadratic (e^eps - 1)^2 ~ eps^2 behavior at small eps is the whole
// minimax price of the local model. We measure exact channel MI, plug-in
// estimates from privatized samples, and the empirical contraction
// coefficient of a composed channel, and gate each against the bound.
//
// Part 2 — the frontier. The same budget eps spent three ways on one
// learning task (two-Gaussian linear classification): central DP-SGD
// (trusted curator, subsampled Gaussian), LocalDpSgd (every example's
// clipped gradient through a DJW channel), and a federated round loop
// (clients privatize model deltas with DJW). True 0-1 risk comes from the
// task's closed form, so the frontier is exact given the learned theta.
// Every scalar recorded here is bit-identical at any DPLEARN_THREADS (the
// determinism CI gate runs this binary at 1 and 8 threads and diffs).

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_util.h"
#include "core/dp_sgd.h"
#include "infotheory/channel.h"
#include "infotheory/mutual_information.h"
#include "learning/generators.h"
#include "learning/loss.h"
#include "localdp/federated.h"
#include "localdp/local_channel.h"
#include "localdp/local_dp_sgd.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"
#include "util/matrix.h"
#include "util/status.h"

namespace dplearn {
namespace {

/// I(X;Z) upper bound for any eps-local channel (nats): the pointwise
/// likelihood-ratio cap gives I <= eps; the DJW pairwise-KL bound gives
/// I <= min(4, e^eps)(e^eps - 1)^2 (with TV between point-mass inputs = 1).
double LdpMiBound(double eps) {
  const double e_eps = std::exp(eps);
  return std::min(eps, std::min(4.0, e_eps) * (e_eps - 1.0) * (e_eps - 1.0));
}

/// Dobrushin/KL contraction coefficient bound of the binary randomized-
/// response channel: eta_KL <= eta_TV^2-free bound ((e^eps-1)/(e^eps+1))^2
/// for the symmetric binary channel with flip probability 1/(1+e^eps).
double RrContractionBound(double eps) {
  const double e_eps = std::exp(eps);
  const double dobrushin = (e_eps - 1.0) / (e_eps + 1.0);
  return dobrushin * dobrushin;
}

struct MiSampleBlock {
  std::vector<std::size_t> xs;
  std::vector<std::size_t> ys;
};

struct ProjectionBlock {
  std::vector<double> xs;
  std::vector<double> ys;
};

struct FrontierPoint {
  double central = 0.0;
  double local = 0.0;
  double federated = 0.0;
  double federated_clear = 0.0;
};

void RunContractionPart() {
  bench::PrintSection("Part 1: channel contraction vs the DJW DPI bound");
  std::printf("%8s %12s %12s %12s %12s %12s %12s\n", "eps", "exact-MI", "plugin-MI",
              "bound", "djw-MI", "eta-emp", "eta-bound");

  Rng rng(bench::BaseSeed(20260809));
  const std::size_t blocks = bench::TrialCount(64, 12);
  const std::size_t block_draws = bench::SmokeMode() ? 250 : 2000;
  const double p_one = 0.3;  // P(X = +1): skewed so H(X) < ln 2 is exercised

  bool mi_within_bound = true;
  bool ratio_exact = true;
  bool dpi_holds = true;
  bool contraction_within_bound = true;
  bool djw_within_bound = true;

  for (const double eps : {0.25, 0.5, 1.0, 2.0}) {
    const std::string cell = "part1:eps=" + std::to_string(eps);
    bench::GuardCell(cell, [&] {
      const localdp::RandomizedResponseChannel channel = bench::Unwrap(
          localdp::RandomizedResponseChannel::Create(eps, {-1.0, +1.0}), "RR create");

      // Exact side: the transition matrix IS the channel, so MI and the max
      // likelihood ratio are closed-form — the sampled estimates below must
      // agree with these and both must respect the bound.
      const DiscreteChannel discrete =
          bench::Unwrap(DiscreteChannel::Create(channel.TransitionMatrix()),
                        "discrete channel");
      const std::vector<double> px = {1.0 - p_one, p_one};
      const double exact_mi =
          bench::Unwrap(discrete.MutualInformation(px), "exact MI");
      const double max_log_ratio = discrete.MaxLogRatio({});

      // Sampled side: privatize Bernoulli labels in deterministic parallel
      // blocks (trial t = t-th split, folded in order) and run the plug-in
      // estimator.
      const std::vector<MiSampleBlock> sample_blocks = bench::RunTrials<MiSampleBlock>(
          blocks, &rng, [&](std::size_t, Rng& block_rng) {
            MiSampleBlock block;
            block.xs.reserve(block_draws);
            block.ys.reserve(block_draws);
            Example example;
            for (std::size_t i = 0; i < block_draws; ++i) {
              StatusOr<int> bit = SampleBernoulli(&block_rng, p_one);
              if (!bit.ok()) continue;  // injected fault: drop the draw
              example.label = bit.value() == 1 ? +1.0 : -1.0;
              StatusOr<Example> privatized = channel.Privatize(example, &block_rng);
              if (!privatized.ok()) continue;
              block.xs.push_back(static_cast<std::size_t>(bit.value()));
              block.ys.push_back(privatized.value().label > 0.0 ? 1 : 0);
            }
            return block;
          });
      std::vector<std::size_t> xs;
      std::vector<std::size_t> ys;
      for (const MiSampleBlock& block : sample_blocks) {
        xs.insert(xs.end(), block.xs.begin(), block.xs.end());
        ys.insert(ys.end(), block.ys.begin(), block.ys.end());
      }
      double plugin_mi = bench::Unwrap(PluginMiFromSamples(xs, ys), "plug-in MI");
      plugin_mi -= MillerMadowCorrection(2, 2, 4, xs.size());

      // Composed channel RR∘RR: data processing says MI can only shrink,
      // and the per-stage contraction coefficient is bounded by the
      // squared Dobrushin coefficient of the second stage.
      const std::vector<std::vector<double>> t1 = channel.TransitionMatrix();
      std::vector<std::vector<double>> t2(2, std::vector<double>(2, 0.0));
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
          for (std::size_t k = 0; k < 2; ++k) t2[i][j] += t1[i][k] * t1[k][j];
        }
      }
      const DiscreteChannel composed =
          bench::Unwrap(DiscreteChannel::Create(t2), "composed channel");
      const double composed_mi =
          bench::Unwrap(composed.MutualInformation(px), "composed MI");
      const double eta_emp = exact_mi > 0.0 ? composed_mi / exact_mi : 0.0;
      const double eta_bound = RrContractionBound(eps);

      // DJW vector channel (d = 3): binary source v0/v1 = -/+ r e1, output
      // projected onto e1 (post-processing, so its MI lower-bounds the
      // channel MI and must also sit under the bound).
      const std::size_t djw_dim = 3;
      const localdp::DjwL2Channel djw = bench::Unwrap(
          localdp::DjwL2Channel::Create(eps, 1.0, djw_dim), "DJW create");
      const std::vector<ProjectionBlock> projection_blocks = bench::RunTrials<ProjectionBlock>(
          blocks, &rng, [&](std::size_t, Rng& block_rng) {
            ProjectionBlock block;
            Vector v(djw_dim, 0.0);
            for (std::size_t i = 0; i < block_draws; ++i) {
              StatusOr<int> bit = SampleBernoulli(&block_rng, 0.5);
              if (!bit.ok()) continue;
              v[0] = bit.value() == 1 ? 1.0 : -1.0;
              StatusOr<Vector> z = djw.PrivatizeVector(v, &block_rng);
              if (!z.ok()) continue;
              block.xs.push_back(static_cast<double>(bit.value()));
              block.ys.push_back(z.value()[0]);
            }
            return block;
          });
      std::vector<double> proj_xs;
      std::vector<double> proj_ys;
      for (const ProjectionBlock& block : projection_blocks) {
        proj_xs.insert(proj_xs.end(), block.xs.begin(), block.xs.end());
        proj_ys.insert(proj_ys.end(), block.ys.begin(), block.ys.end());
      }
      const double djw_mi =
          bench::Unwrap(HistogramMi(proj_xs, proj_ys, 16), "DJW histogram MI");

      const double bound = LdpMiBound(eps);
      // Estimator slack: Miller–Madow removes the leading bias; the
      // residual is O(1/n) for the plug-in and O(bins/n) for the histogram.
      const double slack = 0.02 + 2.0 / std::sqrt(static_cast<double>(xs.size()));

      mi_within_bound = mi_within_bound && exact_mi <= bound + 1e-12 &&
                        plugin_mi <= bound + slack;
      ratio_exact = ratio_exact && std::fabs(max_log_ratio - eps) <= 1e-9;
      dpi_holds = dpi_holds && composed_mi <= exact_mi + 1e-12;
      contraction_within_bound =
          contraction_within_bound && eta_emp <= eta_bound + 1e-9;
      djw_within_bound = djw_within_bound && djw_mi <= bound + slack;

      std::printf("%8.2f %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f\n", eps,
                  exact_mi, plugin_mi, bound, djw_mi, eta_emp, eta_bound);
      const std::string key = "eps=" + std::to_string(eps);
      bench::RecordScalar("part1.exact_mi." + key, exact_mi);
      bench::RecordScalar("part1.plugin_mi." + key, plugin_mi);
      bench::RecordScalar("part1.djw_mi." + key, djw_mi);
      bench::RecordScalar("part1.eta_emp." + key, eta_emp);
      bench::RecordScalar("part1.max_log_ratio." + key, max_log_ratio);
    });
  }

  bench::Verdict(mi_within_bound,
                 "RR channel MI (exact and plug-in) <= min(eps, min(4,e^eps)(e^eps-1)^2)");
  bench::Verdict(ratio_exact,
                 "RR max likelihood ratio equals e^eps exactly (the LDP cap is tight)");
  bench::Verdict(dpi_holds, "composing two RR channels only loses information (DPI)");
  bench::Verdict(contraction_within_bound,
                 "empirical contraction coefficient <= squared Dobrushin bound");
  bench::Verdict(djw_within_bound,
                 "DJW channel MI estimate respects the same DJW DPI bound");
}

void RunFrontierPart() {
  bench::PrintSection("Part 2: central vs local vs federated privacy-utility frontier");

  const Vector task_mean = {1.0, 0.6};
  const GaussianMixtureTask task =
      bench::Unwrap(GaussianMixtureTask::Create(task_mean, 1.0), "task");
  const LogisticLoss loss(8.0);
  const std::size_t n = bench::SmokeMode() ? 160 : 480;
  const std::size_t trials = bench::TrialCount(8, 2);
  const std::size_t rounds = 30;
  // The federated arm concentrates its budget into fewer rounds: DJW noise
  // enters per round, so at fixed total eps fewer/larger releases keep the
  // per-round output norm B (~ 2r/(eps_round * c_d)) manageable.
  const std::size_t federated_rounds = 10;
  const std::size_t federated_clients = 16;
  const std::size_t sgd_steps = 60;
  const double sgd_q = 0.1;  // inside the amplified small-q regime
  const double delta = 1e-5;

  Rng rng(bench::BaseSeed(20260809));
  std::printf("%8s %10s %10s %10s %12s   (bayes %.4f)\n", "eps", "central", "local",
              "federated", "fed-clear", task.BayesRisk());

  std::vector<double> eps_grid = {1.0, 4.0, 16.0};
  std::vector<FrontierPoint> frontier;
  bool frontier_complete = true;

  for (const double eps : eps_grid) {
    const std::string cell = "part2:eps=" + std::to_string(eps);
    FrontierPoint point;
    const bool cell_ok = bench::GuardCell(cell, [&] {
      // Central arm: calibrate sigma to the target eps once (deterministic),
      // then run DP-SGD per trial.
      const double sigma = bench::Unwrap(
          NoiseMultiplierForTarget(eps, sgd_q, sgd_steps, delta), "sigma calibration");

      struct TrialRisks {
        double central = 0.0;
        double local = 0.0;
        double federated = 0.0;
        double federated_clear = 0.0;
        bool ok = false;
      };
      const std::vector<TrialRisks> risks =
          bench::RunTrials<TrialRisks>(trials, &rng, [&](std::size_t, Rng& trial_rng) {
            TrialRisks out;
            StatusOr<Dataset> data = task.Sample(n, &trial_rng);
            if (!data.ok()) return out;

            DpSgdOptions central;
            central.noise_multiplier = sigma;
            central.sampling_rate = sgd_q;
            central.steps = sgd_steps;
            central.learning_rate = 0.2;
            central.l2_lambda = 0.01;
            central.delta = delta;
            StatusOr<DpSgdResult> central_run =
                DpSgd(loss, data.value(), central, &trial_rng);
            if (!central_run.ok()) return out;
            out.central = task.TrueZeroOneRisk(central_run.value().theta);

            localdp::LocalDpSgdOptions local;
            local.epsilon_per_round = eps / static_cast<double>(rounds);
            local.rounds = rounds;
            local.clip_norm = 1.0;
            local.learning_rate = 0.4;
            local.l2_lambda = 0.01;
            StatusOr<localdp::LocalDpSgdResult> local_run =
                localdp::LocalDpSgd(loss, data.value(), local, &trial_rng);
            if (!local_run.ok()) return out;
            out.local = task.TrueZeroOneRisk(local_run.value().theta);

            localdp::FederatedOptions federated;
            federated.num_clients = federated_clients;
            federated.rounds = federated_rounds;
            federated.local_steps = 2;
            federated.learning_rate = 0.5;
            federated.clip_norm = 1.0;
            federated.model = localdp::FederatedPrivacyModel::kLocalDjw;
            federated.epsilon_per_round = eps / static_cast<double>(federated_rounds);
            StatusOr<localdp::FederatedSimulator> simulator = localdp::FederatedSimulator::Create(
                &loss, data.value(), federated);
            if (!simulator.ok()) return out;
            StatusOr<localdp::FederatedResult> federated_run =
                simulator.value().Run(&trial_rng);
            if (!federated_run.ok()) return out;
            out.federated = task.TrueZeroOneRisk(federated_run.value().theta);

            federated.model = localdp::FederatedPrivacyModel::kNone;
            StatusOr<localdp::FederatedSimulator> clear_simulator =
                localdp::FederatedSimulator::Create(&loss, data.value(), federated);
            if (!clear_simulator.ok()) return out;
            StatusOr<localdp::FederatedResult> clear_run =
                clear_simulator.value().Run(&trial_rng);
            if (!clear_run.ok()) return out;
            out.federated_clear = task.TrueZeroOneRisk(clear_run.value().theta);

            out.ok = true;
            return out;
          });
      std::size_t completed = 0;
      for (const TrialRisks& trial : risks) {
        if (!trial.ok) continue;
        ++completed;
        point.central += trial.central;
        point.local += trial.local;
        point.federated += trial.federated;
        point.federated_clear += trial.federated_clear;
      }
      if (completed == 0) {
        frontier_complete = false;
        return;
      }
      const double inv = 1.0 / static_cast<double>(completed);
      point.central *= inv;
      point.local *= inv;
      point.federated *= inv;
      point.federated_clear *= inv;

      std::printf("%8.1f %10.4f %10.4f %10.4f %12.4f\n", eps, point.central,
                  point.local, point.federated, point.federated_clear);
      const std::string key = "eps=" + std::to_string(eps);
      bench::RecordScalar("part2.central_risk." + key, point.central);
      bench::RecordScalar("part2.local_risk." + key, point.local);
      bench::RecordScalar("part2.federated_risk." + key, point.federated);
      bench::RecordScalar("part2.federated_clear_risk." + key, point.federated_clear);
      bench::RecordScalar("part2.sigma." + key, sigma);
    });
    if (!cell_ok) {
      frontier_complete = false;
      continue;
    }
    frontier.push_back(point);
  }

  if (!frontier_complete || frontier.size() != eps_grid.size()) {
    bench::Verdict(false, "frontier sweep completed every cell");
    return;
  }
  bench::Verdict(true, "frontier sweep completed every cell");

  const FrontierPoint& loosest = frontier.back();
  // The slack terms absorb Monte-Carlo noise at the configured trial
  // counts; the ORDER of the arms is the claim under test.
  bench::Verdict(loosest.central <= loosest.local + 0.05,
                 "at eps=16, central DP-SGD risk <= local DP-SGD risk (+0.05 MC slack): "
                 "the trusted curator buys utility");
  bench::Verdict(loosest.federated_clear <= loosest.federated + 0.05,
                 "at eps=16, non-private federated risk <= DJW-privatized federated risk "
                 "(+0.05): local channels cost utility");
  bench::Verdict(loosest.central < 0.45 && loosest.local < 0.45 && loosest.federated < 0.45,
                 "at eps=16 every arm beats random guessing (risk < 0.45)");
  bench::Verdict(frontier.front().local + 0.05 >= loosest.local &&
                     frontier.front().central + 0.05 >= loosest.central,
                 "risk does not increase as the budget loosens from eps=1 to eps=16 "
                 "(+0.05 MC slack per arm)");
}

void Run() {
  bench::PrintHeader(
      "E-LDP (local privacy: DJW channels, contraction, and the federated frontier)",
      "eps-local channels contract information within the DJW DPI bound, and the "
      "central/local/federated frontier orders as the trust model predicts");
  RunContractionPart();
  RunFrontierPart();
}

}  // namespace
}  // namespace dplearn

int main(int argc, char** argv) {
  return dplearn::bench::GuardedMain(argc, argv, [] { dplearn::Run(); });
}
