#include "proptest/generators.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/math_util.h"

namespace dplearn {
namespace proptest {
namespace {

std::string DescribeVector(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[" << v.size() << "]{";
  const std::size_t shown = std::min<std::size_t>(v.size(), 16);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  if (shown < v.size()) os << ", ...";
  os << "}";
  return os.str();
}

std::string DescribeDataset(const Dataset& data) {
  std::ostringstream os;
  os.precision(17);
  os << "Dataset[n=" << data.size() << ", dim=" << data.FeatureDim() << "]{";
  const std::size_t shown = std::min<std::size_t>(data.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) os << ", ";
    os << "(";
    for (std::size_t j = 0; j < data.at(i).features.size(); ++j) {
      if (j > 0) os << ",";
      os << data.at(i).features[j];
    }
    os << " ; " << data.at(i).label << ")";
  }
  if (shown < data.size()) os << ", ...";
  os << "}";
  return os.str();
}

/// Raw weights for one distribution in the requested regime; normalized by
/// the caller. `regime` 0 = smooth, 1 = spiky, 2 = sparse.
std::vector<double> RawWeights(Rng* rng, std::size_t support, int regime) {
  std::vector<double> w(support);
  for (std::size_t i = 0; i < support; ++i) w[i] = 0.05 + rng->NextDouble();
  if (regime == 1 && support > 1) {
    // Near-point-mass: one cell dwarfs the rest by many orders of magnitude.
    const std::size_t spike = static_cast<std::size_t>(rng->NextBounded(support));
    for (std::size_t i = 0; i < support; ++i) {
      w[i] = (i == spike) ? 1.0 : 1e-13 * rng->NextDouble();
    }
  } else if (regime == 2 && support > 2) {
    // Exact zeros on a random subset (never all cells).
    for (std::size_t i = 0; i < support; ++i) {
      if (rng->NextDouble() < 0.4) w[i] = 0.0;
    }
    bool any = false;
    for (double v : w) any = any || v > 0.0;
    if (!any) w[0] = 1.0;
  }
  return w;
}

std::vector<double> NormalizeOrUniform(std::vector<double> w) {
  auto normalized = Normalize(w);
  if (normalized.ok()) return std::move(normalized).value();
  return std::vector<double>(w.size(), 1.0 / static_cast<double>(w.size()));
}

/// Shrink a distribution: halve the support (renormalizing what remains)
/// and flatten toward uniform.
std::vector<std::vector<double>> ShrinkDistribution(const std::vector<double>& p,
                                                    std::size_t min_support) {
  std::vector<std::vector<double>> out;
  if (p.size() > min_support) {
    const std::size_t half = std::max(min_support, p.size() / 2);
    std::vector<double> cut(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(half));
    out.push_back(NormalizeOrUniform(std::move(cut)));
  }
  const std::vector<double> uniform(p.size(), 1.0 / static_cast<double>(p.size()));
  if (p != uniform) out.push_back(uniform);
  return out;
}

}  // namespace

Arbitrary<std::vector<double>> ArbitraryDistribution(std::size_t min_support,
                                                     std::size_t max_support) {
  Arbitrary<std::vector<double>> arb;
  arb.generate = [min_support, max_support](Rng* rng) {
    const std::size_t support =
        min_support + static_cast<std::size_t>(rng->NextBounded(max_support - min_support + 1));
    const int regime = static_cast<int>(rng->NextBounded(3));
    return NormalizeOrUniform(RawWeights(rng, support, regime));
  };
  arb.shrink = [min_support](const std::vector<double>& p) {
    return ShrinkDistribution(p, min_support);
  };
  arb.describe = DescribeVector;
  return arb;
}

Arbitrary<std::pair<std::vector<double>, std::vector<double>>> ArbitraryDistributionPair(
    std::size_t min_support, std::size_t max_support) {
  Arbitrary<std::pair<std::vector<double>, std::vector<double>>> arb;
  arb.generate = [min_support, max_support](Rng* rng) {
    const std::size_t support =
        min_support + static_cast<std::size_t>(rng->NextBounded(max_support - min_support + 1));
    const int regime_p = static_cast<int>(rng->NextBounded(3));
    std::vector<double> p = NormalizeOrUniform(RawWeights(rng, support, regime_p));
    // 1-in-8: q == p exactly (divergence must be exactly clamped to 0).
    if (rng->NextBounded(8) == 0) return std::make_pair(p, p);
    const int regime_q = static_cast<int>(rng->NextBounded(3));
    std::vector<double> q = NormalizeOrUniform(RawWeights(rng, support, regime_q));
    return std::make_pair(std::move(p), std::move(q));
  };
  arb.shrink = [min_support](const std::pair<std::vector<double>, std::vector<double>>& v) {
    std::vector<std::pair<std::vector<double>, std::vector<double>>> out;
    // Collapse to the p == q diagonal first (the simplest failing pair, if
    // the bug is in the clamp policy), then shrink each side.
    if (v.first != v.second) out.emplace_back(v.first, v.first);
    for (auto& p : ShrinkDistribution(v.first, min_support)) {
      if (p.size() == v.second.size()) out.emplace_back(std::move(p), v.second);
    }
    for (auto& q : ShrinkDistribution(v.second, min_support)) {
      if (q.size() == v.first.size()) out.emplace_back(v.first, std::move(q));
    }
    return out;
  };
  arb.describe = [](const std::pair<std::vector<double>, std::vector<double>>& v) {
    return "p=" + DescribeVector(v.first) + " q=" + DescribeVector(v.second);
  };
  return arb;
}

Arbitrary<std::vector<std::vector<double>>> ArbitraryChannel(std::size_t inputs,
                                                             std::size_t outputs) {
  Arbitrary<std::vector<std::vector<double>>> arb;
  arb.generate = [inputs, outputs](Rng* rng) {
    std::vector<std::vector<double>> rows(inputs);
    for (std::vector<double>& row : rows) {
      // Strictly positive rows: DPI and composition invariants then never
      // hit the 0/0 output cells that are tested separately.
      row = NormalizeOrUniform(RawWeights(rng, outputs, /*regime=*/0));
    }
    return rows;
  };
  arb.shrink = [](const std::vector<std::vector<double>>& w) {
    std::vector<std::vector<std::vector<double>>> out;
    // Flatten rows toward the uniform channel (which carries no information).
    std::vector<std::vector<double>> uniform = w;
    for (std::vector<double>& row : uniform) {
      row.assign(row.size(), 1.0 / static_cast<double>(row.size()));
    }
    if (uniform != w) out.push_back(std::move(uniform));
    return out;
  };
  arb.describe = [](const std::vector<std::vector<double>>& w) {
    std::ostringstream os;
    os << "channel[" << w.size() << "x" << (w.empty() ? 0 : w[0].size()) << "]";
    return os.str();
  };
  return arb;
}

Arbitrary<Dataset> ArbitraryBernoulliDataset(std::size_t min_n, std::size_t max_n) {
  Arbitrary<Dataset> arb;
  arb.generate = [min_n, max_n](Rng* rng) {
    const std::size_t n =
        min_n + static_cast<std::size_t>(rng->NextBounded(max_n - min_n + 1));
    // Random bias per dataset so all-zeros / all-ones samples appear.
    const double p = rng->NextDouble();
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
      data.Add(Example{Vector{1.0}, rng->NextDouble() < p ? 1.0 : 0.0});
    }
    return data;
  };
  arb.shrink = [min_n](const Dataset& data) {
    std::vector<Dataset> out;
    if (data.size() > min_n) {
      Dataset half(std::vector<Example>(
          data.examples().begin(),
          data.examples().begin() +
              static_cast<std::ptrdiff_t>(std::max(min_n, data.size() / 2))));
      out.push_back(std::move(half));
      Dataset drop_last(std::vector<Example>(data.examples().begin(),
                                             data.examples().end() - 1));
      out.push_back(std::move(drop_last));
    }
    // Zero the first nonzero label.
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data.at(i).label != 0.0) {
        auto replaced = data.ReplaceExample(i, Example{Vector{1.0}, 0.0});
        if (replaced.ok()) out.push_back(std::move(replaced).value());
        break;
      }
    }
    return out;
  };
  arb.describe = DescribeDataset;
  return arb;
}

Arbitrary<Dataset> ArbitraryRegressionDataset(std::size_t min_n, std::size_t max_n,
                                              std::size_t max_dim, double radius) {
  Arbitrary<Dataset> arb;
  arb.generate = [min_n, max_n, max_dim, radius](Rng* rng) {
    const std::size_t n =
        min_n + static_cast<std::size_t>(rng->NextBounded(max_n - min_n + 1));
    const std::size_t dim = 1 + static_cast<std::size_t>(rng->NextBounded(max_dim));
    Dataset data;
    auto draw = [&](double r) {
      // Mix exact zeros, uniform magnitudes, and log-uniform tiny/large
      // magnitudes, both signs.
      const std::uint64_t pick = rng->NextBounded(4);
      if (pick == 0) return 0.0;
      const double sign = rng->NextBounded(2) == 0 ? -1.0 : 1.0;
      if (pick == 1) return sign * r * rng->NextDouble();
      const double mag = std::exp(std::log(1e-12) * rng->NextDouble());  // (0, 1]
      return sign * r * mag;
    };
    for (std::size_t i = 0; i < n; ++i) {
      Example z;
      z.features.resize(dim);
      for (double& x : z.features) x = draw(radius);
      z.label = draw(radius);
      data.Add(std::move(z));
    }
    return data;
  };
  arb.shrink = [min_n](const Dataset& data) {
    std::vector<Dataset> out;
    if (data.size() > min_n) {
      Dataset half(std::vector<Example>(
          data.examples().begin(),
          data.examples().begin() +
              static_cast<std::ptrdiff_t>(std::max(min_n, data.size() / 2))));
      out.push_back(std::move(half));
      Dataset drop_last(std::vector<Example>(data.examples().begin(),
                                             data.examples().end() - 1));
      out.push_back(std::move(drop_last));
    }
    return out;
  };
  arb.describe = DescribeDataset;
  return arb;
}

Arbitrary<GridSpec> ArbitraryGridSpec(double bound, std::size_t max_count) {
  Arbitrary<GridSpec> arb;
  arb.generate = [bound, max_count](Rng* rng) {
    GridSpec spec;
    spec.lo = -bound + 2.0 * bound * rng->NextDouble();
    spec.hi = spec.lo + 1e-3 + (bound - spec.lo) * rng->NextDouble();
    spec.count = 2 + static_cast<std::size_t>(rng->NextBounded(max_count - 1));
    return spec;
  };
  arb.shrink = [](const GridSpec& spec) {
    std::vector<GridSpec> out;
    for (std::size_t count : ShrinkSizeToward(spec.count, 2)) {
      GridSpec s = spec;
      s.count = count;
      out.push_back(s);
    }
    return out;
  };
  arb.describe = [](const GridSpec& spec) {
    std::ostringstream os;
    os.precision(17);
    os << "grid[" << spec.lo << ", " << spec.hi << "; count=" << spec.count << "]";
    return os.str();
  };
  return arb;
}

StatusOr<FiniteHypothesisClass> MakeGrid(const GridSpec& spec) {
  return FiniteHypothesisClass::ScalarGrid(spec.lo, spec.hi, spec.count);
}

Arbitrary<LossConfig> ArbitraryLossConfig() {
  Arbitrary<LossConfig> arb;
  arb.generate = [](Rng* rng) {
    LossConfig config;
    config.kind = rng->NextBounded(2) == 0 ? LossConfig::Kind::kClippedSquared
                                           : LossConfig::Kind::kLogistic;
    config.clip = std::exp(std::log(0.25) + std::log(16.0) * rng->NextDouble());
    return config;
  };
  arb.shrink = [](const LossConfig& config) {
    std::vector<LossConfig> out;
    for (double clip : ShrinkDoubleToward(config.clip, 1.0)) {
      LossConfig c = config;
      c.clip = clip;
      out.push_back(c);
    }
    if (config.kind != LossConfig::Kind::kClippedSquared) {
      LossConfig c = config;
      c.kind = LossConfig::Kind::kClippedSquared;
      out.push_back(c);
    }
    return out;
  };
  arb.describe = DescribeLossConfig;
  return arb;
}

std::unique_ptr<LossFunction> MakeLoss(const LossConfig& config) {
  switch (config.kind) {
    case LossConfig::Kind::kClippedSquared:
      return std::make_unique<ClippedSquaredLoss>(config.clip);
    case LossConfig::Kind::kLogistic:
      return std::make_unique<LogisticLoss>(config.clip);
  }
  return std::make_unique<ClippedSquaredLoss>(config.clip);
}

std::string DescribeLossConfig(const LossConfig& config) {
  std::ostringstream os;
  os.precision(17);
  switch (config.kind) {
    case LossConfig::Kind::kClippedSquared: os << "clipped_squared"; break;
    case LossConfig::Kind::kLogistic: os << "logistic"; break;
  }
  os << "(clip=" << config.clip << ")";
  return os.str();
}

Arbitrary<DpParams> ArbitraryDpParams(double eps_hi) {
  Arbitrary<DpParams> arb;
  arb.generate = [eps_hi](Rng* rng) {
    DpParams params;
    params.epsilon = std::exp(std::log(1e-3) + std::log(eps_hi / 1e-3) * rng->NextDouble());
    params.lambda = std::exp(std::log(1e-2) + std::log(1e5) * rng->NextDouble());
    // Rényi order in (0, 4], bounced off 1 (where the divergence is
    // undefined and callers switch to KL).
    params.alpha = 4.0 * rng->NextDoubleOpen();
    if (std::fabs(params.alpha - 1.0) < 1e-3) params.alpha = 1.5;
    return params;
  };
  arb.shrink = [](const DpParams& params) {
    std::vector<DpParams> out;
    for (double eps : ShrinkDoubleToward(params.epsilon, 1e-3)) {
      DpParams p = params;
      p.epsilon = eps;
      out.push_back(p);
    }
    for (double lambda : ShrinkDoubleToward(params.lambda, 1e-2)) {
      DpParams p = params;
      p.lambda = lambda;
      out.push_back(p);
    }
    if (params.alpha != 2.0) {
      DpParams p = params;
      p.alpha = 2.0;
      out.push_back(p);
    }
    return out;
  };
  arb.describe = [](const DpParams& params) {
    std::ostringstream os;
    os.precision(17);
    os << "{eps=" << params.epsilon << ", lambda=" << params.lambda
       << ", alpha=" << params.alpha << "}";
    return os.str();
  };
  return arb;
}

}  // namespace proptest
}  // namespace dplearn
