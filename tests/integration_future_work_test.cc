/// Integration tests for the §5 future-work pipeline: CSV in -> private
/// density out, with the privacy and composition claims checked along the
/// way. These exercise the exact call sequences the CLI and a downstream
/// user would run.

#include <gtest/gtest.h>
#include "core/private_density.h"
#include "learning/csv_io.h"
#include "mechanisms/privacy_budget.h"

namespace dplearn {
namespace {

TEST(FutureWorkPipelineTest, CsvToPrivateDensity) {
  // Simulate a CSV of categorical survey answers.
  std::string csv = "# answers\n";
  for (int i = 0; i < 60; ++i) csv += "1,0\n";
  for (int i = 0; i < 25; ++i) csv += "1,1\n";
  for (int i = 0; i < 15; ++i) csv += "1,2\n";
  Dataset data = ParseCsv(csv).value();
  ASSERT_EQ(data.size(), 100u);

  GibbsDensityOptions options;
  options.epsilon = 8.0;
  options.resolution = 10;
  Rng rng(1);
  auto result = GibbsDensityEstimate(data, 3, options, &rng).value();
  EXPECT_EQ(result.epsilon, 8.0);
  // The dominant answer should dominate the released density too.
  EXPECT_GT(result.density[0], result.density[2]);

  // The release composes with a mean release under sequential composition.
  auto total = SequentialComposition({{result.epsilon, 0.0}, {1.0, 0.0}}).value();
  EXPECT_NEAR(total.epsilon, 9.0, 1e-12);
}

TEST(FutureWorkPipelineTest, DensityEstimatorsAgreeAtLargeBudget) {
  // At a huge budget all three private density estimators land near the
  // empirical histogram — cross-validating the three implementations.
  Dataset data;
  for (int i = 0; i < 500; ++i) data.Add(Example{Vector{1.0}, 0.0});
  for (int i = 0; i < 300; ++i) data.Add(Example{Vector{1.0}, 1.0});
  for (int i = 0; i < 200; ++i) data.Add(Example{Vector{1.0}, 2.0});
  auto empirical = EmpiricalHistogram(data, 3).value();

  Rng rng(4);
  GibbsDensityOptions gibbs_options;
  gibbs_options.epsilon = 200.0;
  gibbs_options.resolution = 20;
  auto gibbs = GibbsDensityEstimate(data, 3, gibbs_options, &rng).value();
  auto laplace = LaplaceHistogramEstimate(data, 3, 200.0, &rng).value();
  auto geometric = GeometricHistogramEstimate(data, 3, 200.0, &rng).value();
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_NEAR(gibbs.density[b], empirical[b], 0.06) << "gibbs bin " << b;
    EXPECT_NEAR(laplace.density[b], empirical[b], 0.02) << "laplace bin " << b;
    EXPECT_NEAR(geometric.density[b], empirical[b], 0.02) << "geometric bin " << b;
  }
}

}  // namespace
}  // namespace dplearn
