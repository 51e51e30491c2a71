// Generative invariants over the information-theory layer: divergences are
// non-negative under the library clamp policy, data processing holds under
// channel composition, Blahut–Arimoto capacity matches the per-entry
// reference formula, the Gibbs learning channel's I(Ẑ;θ) respects its
// ε-derived and structural caps, and the plug-in MI estimator agrees with
// the joint-distribution computation to 1e-12 and with the std::map
// estimator it replaced bit for bit.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/learning_channel.h"
#include "gtest/gtest.h"
#include "infotheory/channel.h"
#include "infotheory/entropy.h"
#include "infotheory/mutual_information.h"
#include "infotheory/renyi.h"
#include "learning/generators.h"
#include "learning/loss.h"
#include "proptest/generators.h"
#include "proptest/property.h"
#include "util/math_util.h"

namespace dplearn {
namespace proptest {
namespace {

Config SuiteConfig(std::uint64_t default_seed) {
  Config config = Config::FromEnv();
  if (std::getenv("DPLEARN_PROPTEST_SEED") == nullptr) config.seed = default_seed;
  return config;
}

using DistPair = std::pair<std::vector<double>, std::vector<double>>;

// --------------------------------------------------------------------------
// Non-negativity, including the p == q diagonal and spiky/sparse regimes
// where rounding drives naive implementations a few ulps negative
// (satellite 4 made generative).

TEST(ProptestInfotheory, KlDivergenceNonNegativeAndZeroOnDiagonal) {
  auto property = [](const DistPair& pq) -> Status {
    auto kl = KlDivergence(pq.first, pq.second);
    if (!kl.ok()) return Violation(kl.status().message());
    if (!(kl.value() >= 0.0)) {
      return Violation("KL = " + std::to_string(kl.value()) + " < 0");
    }
    if (pq.first == pq.second && kl.value() != 0.0) {
      return Violation("KL(p||p) = " + std::to_string(kl.value()) + " != 0");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("kl_nonnegative", ArbitraryDistributionPair(1, 12),
                                property, SuiteConfig(201)));
}

TEST(ProptestInfotheory, RenyiDivergenceNonNegativeAndZeroOnDiagonal) {
  auto pair_and_alpha = PairOf(ArbitraryDistributionPair(1, 12), ArbitraryDpParams(1.0));
  auto property = [](const std::pair<DistPair, DpParams>& v) -> Status {
    const double alpha = v.second.alpha;
    auto renyi = RenyiDivergence(v.first.first, v.first.second, alpha);
    if (!renyi.ok()) return Violation(renyi.status().message());
    if (!(renyi.value() >= 0.0)) {
      return Violation("D_" + std::to_string(alpha) + " = " +
                       std::to_string(renyi.value()) + " < 0");
    }
    // On the diagonal the true value is 0. Unlike KL (whose per-term
    // x·log(x/y) is exactly 0 at x == y), the Rényi sum Σ p^α q^{1-α} only
    // lands within a few ulps of 1, so rounding can leave a tiny POSITIVE
    // residue; the clamp policy (math_util.h) flattens only the negative
    // side. Exact zero is therefore too strict — demand rounding scale.
    if (v.first.first == v.first.second && std::isfinite(renyi.value()) &&
        renyi.value() > kNonNegativeClampTol) {
      return Violation("D_alpha(p||p) = " + std::to_string(renyi.value()) +
                       " above rounding scale");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(
      Check("renyi_nonnegative", pair_and_alpha, property, SuiteConfig(202)));
}

TEST(ProptestInfotheory, JensenShannonBounded) {
  auto property = [](const DistPair& pq) -> Status {
    auto js = JensenShannonDivergence(pq.first, pq.second);
    if (!js.ok()) return Violation(js.status().message());
    if (!(js.value() >= 0.0) || js.value() > kLn2 + 1e-9) {
      return Violation("JS = " + std::to_string(js.value()) + " outside [0, ln 2]");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("js_bounded", ArbitraryDistributionPair(1, 12),
                                property, SuiteConfig(204)));
}

// --------------------------------------------------------------------------
// Data processing: pushing p and q through one channel contracts KL; adding
// a second channel stage contracts mutual information.

struct DpiInstance {
  std::vector<double> p;
  std::vector<double> q;
  std::vector<std::vector<double>> channel;
};

Arbitrary<DpiInstance> ArbitraryDpiInstance() {
  Arbitrary<DpiInstance> arb;
  arb.generate = [](Rng* rng) {
    const std::size_t inputs = 2 + static_cast<std::size_t>(rng->NextBounded(5));
    const std::size_t outputs = 2 + static_cast<std::size_t>(rng->NextBounded(5));
    DpiInstance inst;
    auto pq = ArbitraryDistributionPair(inputs, inputs).generate(rng);
    inst.p = std::move(pq.first);
    inst.q = std::move(pq.second);
    inst.channel = ArbitraryChannel(inst.p.size(), outputs).generate(rng);
    return inst;
  };
  arb.describe = [](const DpiInstance& inst) {
    std::ostringstream os;
    os << "p/q over " << inst.p.size() << " symbols through "
       << inst.channel.size() << "x" << inst.channel[0].size() << " channel";
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, KlContractsUnderChannel) {
  auto property = [](const DpiInstance& inst) -> Status {
    auto channel = DiscreteChannel::Create(inst.channel);
    if (!channel.ok()) return Violation(channel.status().message());
    auto out_p = channel.value().OutputDistribution(inst.p);
    auto out_q = channel.value().OutputDistribution(inst.q);
    if (!out_p.ok() || !out_q.ok()) return Violation("output distribution failed");
    auto kl_in = KlDivergence(inst.p, inst.q);
    auto kl_out = KlDivergence(out_p.value(), out_q.value());
    if (!kl_in.ok() || !kl_out.ok()) return Violation("KL evaluation failed");
    if (std::isinf(kl_in.value())) return Status::Ok();  // anything <= +inf
    if (kl_out.value() > kl_in.value() + 1e-9) {
      return Violation("KL grew through channel: " + std::to_string(kl_in.value()) +
                       " -> " + std::to_string(kl_out.value()));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(
      Check("dpi_kl", ArbitraryDpiInstance(), property, SuiteConfig(205)));
}

struct ComposeInstance {
  std::vector<double> px;
  std::vector<std::vector<double>> first;
  std::vector<std::vector<double>> second;
};

Arbitrary<ComposeInstance> ArbitraryComposeInstance() {
  Arbitrary<ComposeInstance> arb;
  arb.generate = [](Rng* rng) {
    const std::size_t nx = 2 + static_cast<std::size_t>(rng->NextBounded(4));
    const std::size_t ny = 2 + static_cast<std::size_t>(rng->NextBounded(4));
    const std::size_t nz = 2 + static_cast<std::size_t>(rng->NextBounded(4));
    ComposeInstance inst;
    inst.px = ArbitraryDistribution(nx, nx).generate(rng);
    inst.first = ArbitraryChannel(nx, ny).generate(rng);
    inst.second = ArbitraryChannel(ny, nz).generate(rng);
    return inst;
  };
  arb.describe = [](const ComposeInstance& inst) {
    std::ostringstream os;
    os << "X[" << inst.px.size() << "] -> Y[" << inst.first[0].size() << "] -> Z["
       << inst.second[0].size() << "]";
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, MutualInformationContractsUnderComposition) {
  auto property = [](const ComposeInstance& inst) -> Status {
    const std::size_t ny = inst.first[0].size();
    const std::size_t nz = inst.second[0].size();
    // Composed kernel X -> Z.
    std::vector<std::vector<double>> composed(inst.first.size(),
                                              std::vector<double>(nz, 0.0));
    for (std::size_t x = 0; x < inst.first.size(); ++x) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t z = 0; z < nz; ++z) {
          composed[x][z] += inst.first[x][y] * inst.second[y][z];
        }
      }
    }
    auto wy = DiscreteChannel::Create(inst.first);
    auto wz = DiscreteChannel::Create(composed);
    if (!wy.ok() || !wz.ok()) return Violation("channel construction failed");
    auto mi_y = wy.value().MutualInformation(inst.px);
    auto mi_z = wz.value().MutualInformation(inst.px);
    if (!mi_y.ok() || !mi_z.ok()) return Violation("MI evaluation failed");
    if (mi_z.value() > mi_y.value() + 1e-9) {
      return Violation("I(X;Z) = " + std::to_string(mi_z.value()) + " > I(X;Y) = " +
                       std::to_string(mi_y.value()));
    }
    if (!(mi_y.value() >= 0.0) || !(mi_z.value() >= 0.0)) {
      return Violation("negative mutual information");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(
      Check("dpi_composition", ArbitraryComposeInstance(), property, SuiteConfig(206)));
}

// --------------------------------------------------------------------------
// Blahut–Arimoto: Capacity splits D[x] into Σ W log W (once per row) minus
// Σ W log q[y] (one log per output per iteration), and over-relaxes the
// step. It must agree to within its stopping tolerance with the plain
// per-entry formula Σ W log(W/q[y]), kept here as the reference, including
// on channels with exact zeros.

using ChannelMatrix = std::vector<std::vector<double>>;

/// Reference Blahut–Arimoto: the plain step, one log per nonzero W[x][y]
/// per iteration, with Capacity's starting point and sandwich stopping rule.
StatusOr<double> PerEntryCapacity(const ChannelMatrix& w, double tol, std::size_t max_iters) {
  const std::size_t nx = w.size();
  const std::size_t ny = w[0].size();
  std::vector<double> px(nx, 1.0 / static_cast<double>(nx));
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    std::vector<double> q(ny, 0.0);
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) q[y] += px[x] * w[x][y];
    }
    std::vector<double> d(nx, 0.0);
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) {
        if (w[x][y] > 0.0) d[x] += w[x][y] * std::log(w[x][y] / q[y]);
      }
    }
    double upper = -std::numeric_limits<double>::infinity();
    double lower = 0.0;
    for (std::size_t x = 0; x < nx; ++x) {
      upper = std::max(upper, d[x]);
      lower += px[x] * d[x];
    }
    if (upper - lower < tol) return std::max(0.0, lower);
    std::vector<double> log_unnorm(nx);
    for (std::size_t x = 0; x < nx; ++x) {
      log_unnorm[x] =
          (px[x] > 0.0 ? std::log(px[x]) : -std::numeric_limits<double>::infinity()) + d[x];
    }
    DPLEARN_ASSIGN_OR_RETURN(px, SoftmaxFromLog(log_unnorm));
  }
  return InternalError("PerEntryCapacity: did not converge");
}

/// ArbitraryChannel draws, a third of them with one all-zero output column
/// and a third with exact zeros inside rows (never a whole row).
Arbitrary<ChannelMatrix> ArbitraryChannelWithZeros() {
  Arbitrary<ChannelMatrix> arb;
  arb.generate = [](Rng* rng) {
    const std::size_t nx = 2 + static_cast<std::size_t>(rng->NextBounded(7));
    const std::size_t ny = 3 + static_cast<std::size_t>(rng->NextBounded(6));
    ChannelMatrix w = ArbitraryChannel(nx, ny).generate(rng);
    const std::uint64_t pattern = rng->NextBounded(3);
    const std::size_t dead = static_cast<std::size_t>(rng->NextBounded(ny));
    for (std::vector<double>& row : w) {
      if (pattern == 1) row[dead] = 0.0;
      if (pattern == 2) {
        for (double& v : row) {
          if (rng->NextDouble() < 0.4) v = 0.0;
        }
        row[dead] = std::max(row[dead], 1e-3);
      }
      row = Normalize(row).value();
    }
    return w;
  };
  arb.describe = [](const ChannelMatrix& w) {
    std::ostringstream os;
    os.precision(17);
    for (const std::vector<double>& row : w) {
      os << "{";
      for (std::size_t y = 0; y < row.size(); ++y) os << (y > 0 ? ", " : "") << row[y];
      os << "}";
    }
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, CapacityMatchesPerEntryFormula) {
  constexpr double kTol = 1e-9;
  constexpr std::size_t kMaxIters = 10000;
  auto property = [](const ChannelMatrix& w) -> Status {
    auto channel = DiscreteChannel::Create(w);
    if (!channel.ok()) return Violation(channel.status().message());
    auto capacity = channel.value().Capacity(kTol, kMaxIters);
    auto reference = PerEntryCapacity(w, kTol, kMaxIters);
    if (reference.ok() && !capacity.ok()) {
      return Violation("reference converged but Capacity " + capacity.status().ToString());
    }
    if (!capacity.ok()) return Status::Ok();  // both ran out of iterations
    // The over-relaxed step converges on channels where the plain one needs
    // more than kMaxIters: give the reference 100x the iterations, and it
    // must then converge to the same capacity.
    if (!reference.ok()) reference = PerEntryCapacity(w, kTol, 100 * kMaxIters);
    if (!reference.ok()) {
      return Violation("Capacity OK but reference at 100x iterations " +
                       reference.status().ToString());
    }
    if (!(std::fabs(capacity.value() - reference.value()) <= kTol)) {
      std::ostringstream os;
      os.precision(17);
      os << "Capacity " << capacity.value() << " vs reference " << reference.value();
      return Violation(os.str());
    }
    return Status::Ok();
  };
  // The two zero patterns, pinned: an all-zero output column, and zero
  // entries inside rows.
  const ChannelMatrix zero_column = {{0.7, 0.0, 0.3}, {0.2, 0.0, 0.8}, {0.5, 0.0, 0.5}};
  const ChannelMatrix zero_entries = {{0.5, 0.0, 0.5}, {0.0, 0.9, 0.1}, {0.3, 0.3, 0.4}};
  for (const ChannelMatrix& w : {zero_column, zero_entries}) {
    const Status verdict = property(w);
    EXPECT_TRUE(verdict.ok()) << verdict.message();
    EXPECT_TRUE(DiscreteChannel::Create(w).value().Capacity(kTol, kMaxIters).ok());
  }
  DPLEARN_EXPECT_PROPERTY(
      Check("capacity_per_entry", ArbitraryChannelWithZeros(), property, SuiteConfig(209)));
}

TEST(ProptestInfotheory, CapacityConvergesOnE6ChannelAtHalfLambda) {
  // The E6 channel (Bernoulli(0.3), n = 100, |Θ| = 101) at λ = 0.5: the
  // plain step needs tens of thousands of iterations here, so Capacity
  // converges within its default 10 000 only through over-relaxation.
  constexpr double kTol = 1e-8;
  const BernoulliMeanTask task = BernoulliMeanTask::Create(0.3).value();
  const ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101).value();
  const GibbsLearningChannel channel =
      BuildBernoulliGibbsChannel(task, 100, loss, grid, grid.UniformPrior(), 0.5).value();
  const StatusOr<double> capacity = channel.channel.Capacity(kTol);
  ASSERT_TRUE(capacity.ok()) << capacity.status().ToString();
  const StatusOr<double> reference =
      PerEntryCapacity(channel.channel.transition(), kTol, 1000000);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_NEAR(*capacity, *reference, kTol);
}

// --------------------------------------------------------------------------
// The Gibbs learning channel (the paper's Figure 1): I(Ẑ;θ) is capped by
// the channel's tight privacy level ε*, by the input entropy H(k), and by
// log |Θ|.

struct GibbsChannelInstance {
  double p = 0.5;
  std::size_t n = 4;
  double lambda = 1.0;
  GridSpec grid;
};

Arbitrary<GibbsChannelInstance> ArbitraryGibbsChannelInstance() {
  Arbitrary<GibbsChannelInstance> arb;
  arb.generate = [](Rng* rng) {
    GibbsChannelInstance inst;
    inst.p = rng->NextDoubleOpen();
    inst.n = 2 + static_cast<std::size_t>(rng->NextBounded(10));
    inst.lambda = std::exp(std::log(1e-2) + std::log(1e4) * rng->NextDouble());
    inst.grid.lo = 0.0;
    inst.grid.hi = 1.0;
    inst.grid.count = 2 + static_cast<std::size_t>(rng->NextBounded(7));
    return inst;
  };
  arb.describe = [](const GibbsChannelInstance& inst) {
    std::ostringstream os;
    os.precision(17);
    os << "{p=" << inst.p << ", n=" << inst.n << ", lambda=" << inst.lambda
       << ", |grid|=" << inst.grid.count << "}";
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, GibbsChannelMiRespectsCaps) {
  auto property = [](const GibbsChannelInstance& inst) -> Status {
    auto task = BernoulliMeanTask::Create(inst.p);
    if (!task.ok()) return Violation(task.status().message());
    ClippedSquaredLoss loss(1.0);
    auto grid = MakeGrid(inst.grid);
    if (!grid.ok()) return Violation(grid.status().message());
    auto channel = BuildBernoulliGibbsChannel(task.value(), inst.n, loss, grid.value(),
                                              grid.value().UniformPrior(), inst.lambda);
    if (!channel.ok()) return Violation(channel.status().message());
    auto mi = ChannelMutualInformation(channel.value());
    if (!mi.ok()) return Violation(mi.status().message());
    if (!(mi.value() >= 0.0)) return Violation("negative I(Z;theta)");
    const double eps_star = ChannelPrivacyLevel(channel.value());
    // ε-derived cap: neighbor rows differ by at most ε* in log ratio and the
    // input alphabet k = 0..n is a chain of n neighbor steps, so every pair
    // of rows is within n·ε* max-divergence and I(Ẑ;θ) <= n·ε*.
    const double privacy_cap = static_cast<double>(inst.n) * eps_star;
    if (mi.value() > privacy_cap + 1e-9) {
      return Violation("I = " + std::to_string(mi.value()) + " exceeds n*eps = " +
                       std::to_string(privacy_cap));
    }
    auto h_input = Entropy(channel.value().input_marginal);
    if (!h_input.ok()) return Violation(h_input.status().message());
    if (mi.value() > h_input.value() + 1e-9) {
      return Violation("I exceeds input entropy");
    }
    if (mi.value() > std::log(static_cast<double>(inst.grid.count)) + 1e-9) {
      return Violation("I exceeds log |Theta|");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("gibbs_channel_caps", ArbitraryGibbsChannelInstance(),
                                property, SuiteConfig(207)));
}

// --------------------------------------------------------------------------
// Plug-in MI: the sample-based estimator equals JointDistribution's MI of
// the empirical distribution.

struct SamplePairs {
  std::vector<std::size_t> xs;
  std::vector<std::size_t> ys;
  std::size_t nx = 2;
  std::size_t ny = 2;
};

Arbitrary<SamplePairs> ArbitrarySamplePairs() {
  Arbitrary<SamplePairs> arb;
  arb.generate = [](Rng* rng) {
    SamplePairs s;
    s.nx = 2 + static_cast<std::size_t>(rng->NextBounded(5));
    s.ny = 2 + static_cast<std::size_t>(rng->NextBounded(5));
    const std::size_t n = 1 + static_cast<std::size_t>(rng->NextBounded(64));
    for (std::size_t i = 0; i < n; ++i) {
      s.xs.push_back(static_cast<std::size_t>(rng->NextBounded(s.nx)));
      s.ys.push_back(static_cast<std::size_t>(rng->NextBounded(s.ny)));
    }
    return s;
  };
  arb.describe = [](const SamplePairs& s) {
    std::ostringstream os;
    os << s.xs.size() << " pairs over " << s.nx << "x" << s.ny;
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, PluginMiMatchesDenseJoint) {
  auto property = [](const SamplePairs& s) -> Status {
    auto sparse = PluginMiFromSamples(s.xs, s.ys);
    if (!sparse.ok()) return Violation(sparse.status().message());
    // Dense: empirical joint over the full nx*ny grid.
    std::vector<double> joint(s.nx * s.ny, 0.0);
    const double weight = 1.0 / static_cast<double>(s.xs.size());
    for (std::size_t i = 0; i < s.xs.size(); ++i) {
      joint[s.xs[i] * s.ny + s.ys[i]] += weight;
    }
    auto dense = JointDistribution::Create(s.nx, s.ny, joint);
    if (!dense.ok()) return Violation(dense.status().message());
    const double dense_mi = dense.value().MutualInformation();
    if (!ApproxEqual(sparse.value(), dense_mi, 1e-12, 1e-12)) {
      return Violation("sparse " + std::to_string(sparse.value()) + " != dense " +
                       std::to_string(dense_mi));
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(
      Check("plugin_mi_dense_sparse", ArbitrarySamplePairs(), property, SuiteConfig(208)));
}

// --------------------------------------------------------------------------
// The dense plug-in accumulator against the std::map estimator it replaced,
// bit for bit: the same 1/n additions per cell in sample order, the same
// x-major, then y, walk over the nonzero cells.

double MapPluginMi(const std::vector<std::size_t>& xs, const std::vector<std::size_t>& ys) {
  const double n = static_cast<double>(xs.size());
  std::map<std::size_t, double> px;
  std::map<std::size_t, double> py;
  std::map<std::pair<std::size_t, std::size_t>, double> pxy;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    px[xs[i]] += 1.0 / n;
    py[ys[i]] += 1.0 / n;
    pxy[{xs[i], ys[i]}] += 1.0 / n;
  }
  double mi = 0.0;
  for (const auto& [key, p] : pxy) {
    mi += p * (std::log(p) - std::log(px.at(key.first)) - std::log(py.at(key.second)));
  }
  return ClampRoundingNegative(mi);
}

/// Pairs over alphabets up to 24 symbols scaled by a stride of 1–4, so the
/// dense table has whole empty rows and columns between observed symbols.
Arbitrary<SamplePairs> ArbitraryStridedSamplePairs() {
  Arbitrary<SamplePairs> arb;
  arb.generate = [](Rng* rng) {
    SamplePairs s;
    const std::size_t stride_x = 1 + static_cast<std::size_t>(rng->NextBounded(4));
    const std::size_t stride_y = 1 + static_cast<std::size_t>(rng->NextBounded(4));
    s.nx = 1 + static_cast<std::size_t>(rng->NextBounded(24));
    s.ny = 1 + static_cast<std::size_t>(rng->NextBounded(24));
    const std::size_t n = 1 + static_cast<std::size_t>(rng->NextBounded(512));
    for (std::size_t i = 0; i < n; ++i) {
      s.xs.push_back(stride_x * static_cast<std::size_t>(rng->NextBounded(s.nx)));
      s.ys.push_back(stride_y * static_cast<std::size_t>(rng->NextBounded(s.ny)));
    }
    return s;
  };
  arb.describe = [](const SamplePairs& s) {
    std::ostringstream os;
    os << s.xs.size() << " pairs, max symbols " << *std::max_element(s.xs.begin(), s.xs.end())
       << " x " << *std::max_element(s.ys.begin(), s.ys.end());
    return os.str();
  };
  return arb;
}

TEST(ProptestInfotheory, PluginMiBitwiseMatchesMapReference) {
  auto property = [](const SamplePairs& s) -> Status {
    auto dense = PluginMiFromSamples(s.xs, s.ys);
    if (!dense.ok()) return Violation(dense.status().message());
    const double reference = MapPluginMi(s.xs, s.ys);
    if (std::memcmp(&dense.value(), &reference, sizeof(double)) != 0) {
      std::ostringstream os;
      os << std::setprecision(17) << "dense " << dense.value() << " != map " << reference;
      return Violation(os.str());
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("plugin_mi_map_bitwise", ArbitraryStridedSamplePairs(),
                                property, SuiteConfig(210)));
  DPLEARN_EXPECT_PROPERTY(Check("plugin_mi_map_bitwise_small", ArbitrarySamplePairs(),
                                property, SuiteConfig(211)));
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
