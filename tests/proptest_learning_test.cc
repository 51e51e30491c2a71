// Generative invariants over the learning layer: CSV serialization
// round-trips datasets exactly, and corrupted cells (non-finite, hex-float,
// overflow — satellite 3 made generative) are always rejected with the
// cell-naming error.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "learning/csv_io.h"
#include "proptest/generators.h"
#include "proptest/property.h"

namespace dplearn {
namespace proptest {
namespace {

Config SuiteConfig(std::uint64_t default_seed) {
  Config config = Config::FromEnv();
  if (std::getenv("DPLEARN_PROPTEST_SEED") == nullptr) config.seed = default_seed;
  return config;
}

// --------------------------------------------------------------------------
// CSV round trip: ToCsv writes precision-17 decimal, which recovers every
// finite double exactly.

TEST(ProptestLearning, CsvRoundTripIsExact) {
  auto property = [](const Dataset& data) -> Status {
    auto csv = ToCsv(data);
    if (!csv.ok()) return Violation(csv.status().message());
    auto parsed = ParseCsv(csv.value());
    if (!parsed.ok()) return Violation(parsed.status().message());
    if (!(parsed.value() == data)) {
      return Violation("round-tripped dataset differs from the original");
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("csv_round_trip",
                                ArbitraryRegressionDataset(1, 24, 4, 1e6), property,
                                SuiteConfig(401)));
}

// --------------------------------------------------------------------------
// CSV rejection: splice one corrupt cell into an otherwise valid file at a
// random position; parsing must fail and the error must name the cell.

struct CorruptedCsv {
  std::string text;
  std::string bad_cell;
};

Arbitrary<CorruptedCsv> ArbitraryCorruptedCsv() {
  static const char* kBadCells[] = {"inf",  "-inf",   "nan",  "-nan", "INF",
                                    "NaN",  "0x1p3",  "0X2P4", "1e999", "-1e999",
                                    "1.0.0", "1e", "abc"};
  Arbitrary<CorruptedCsv> arb;
  arb.generate = [](Rng* rng) {
    const Dataset data = ArbitraryRegressionDataset(1, 8, 3, 10.0).generate(rng);
    auto csv = ToCsv(data);
    const std::size_t row = static_cast<std::size_t>(rng->NextBounded(data.size()));
    const std::size_t col =
        static_cast<std::size_t>(rng->NextBounded(data.FeatureDim() + 1));
    CorruptedCsv corrupted;
    corrupted.bad_cell =
        kBadCells[rng->NextBounded(sizeof(kBadCells) / sizeof(kBadCells[0]))];
    std::istringstream in(csv.value());
    std::ostringstream out;
    std::string line;
    std::size_t line_index = 0;
    while (std::getline(in, line)) {
      if (line_index == row) {
        // Replace cell `col` on this line.
        std::vector<std::string> cells;
        std::size_t start = 0;
        while (start <= line.size()) {
          std::size_t end = line.find(',', start);
          if (end == std::string::npos) end = line.size();
          cells.push_back(line.substr(start, end - start));
          if (end == line.size()) break;
          start = end + 1;
        }
        cells[col % cells.size()] = corrupted.bad_cell;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (i > 0) out << ',';
          out << cells[i];
        }
        out << '\n';
      } else {
        out << line << '\n';
      }
      ++line_index;
    }
    corrupted.text = out.str();
    return corrupted;
  };
  arb.describe = [](const CorruptedCsv& c) {
    return "bad cell '" + c.bad_cell + "' in:\n" + c.text;
  };
  return arb;
}

TEST(ProptestLearning, CorruptCellsAlwaysRejectedByName) {
  auto property = [](const CorruptedCsv& corrupted) -> Status {
    auto parsed = ParseCsv(corrupted.text);
    if (parsed.ok()) {
      return Violation("corrupt cell '" + corrupted.bad_cell + "' was accepted");
    }
    if (parsed.status().message().find(corrupted.bad_cell) == std::string::npos) {
      return Violation("error does not name the bad cell: " +
                       parsed.status().message());
    }
    return Status::Ok();
  };
  DPLEARN_EXPECT_PROPERTY(Check("csv_rejects_corrupt_cells", ArbitraryCorruptedCsv(),
                                property, SuiteConfig(402)));
}

}  // namespace
}  // namespace proptest
}  // namespace dplearn
