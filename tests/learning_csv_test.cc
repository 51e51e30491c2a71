#include "learning/csv_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

TEST(ParseCsvTest, BasicRows) {
  auto data = ParseCsv("1.0,2.0,3.0\n4.0,5.0,6.0\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2u);
  EXPECT_EQ(data->FeatureDim(), 2u);
  EXPECT_EQ(data->at(0).features, (Vector{1.0, 2.0}));
  EXPECT_EQ(data->at(0).label, 3.0);
  EXPECT_EQ(data->at(1).label, 6.0);
}

TEST(ParseCsvTest, SkipsCommentsAndBlanks) {
  auto data = ParseCsv("# header comment\n\n1.0,0.0\n\n# trailing\n2.0,1.0\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2u);
  EXPECT_EQ(data->FeatureDim(), 1u);
}

TEST(ParseCsvTest, HandlesWhitespaceAndScientific) {
  auto data = ParseCsv(" 1.5e-3 , -2 \n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->at(0).features[0], 1.5e-3);
  EXPECT_EQ(data->at(0).label, -2.0);
}

TEST(ParseCsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("# only comments\n").ok());
  EXPECT_FALSE(ParseCsv("1.0\n").ok());            // single column
  EXPECT_FALSE(ParseCsv("1.0,2.0\n3.0\n").ok());   // ragged
  EXPECT_FALSE(ParseCsv("1.0,abc\n").ok());        // non-numeric
  EXPECT_FALSE(ParseCsv("1.0,,2.0\n").ok());       // empty cell
  EXPECT_FALSE(ParseCsv("1.0,2.0extra\n").ok());   // trailing junk in cell
}

TEST(ToCsvTest, RendersRows) {
  Dataset d;
  d.Add(Example{Vector{1.5, -2.0}, 3.0});
  auto csv = ToCsv(d);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(*csv, "1.5,-2,3\n");
  EXPECT_FALSE(ToCsv(Dataset()).ok());
}

TEST(CsvRoundTripTest, ExactForPrecisionStressValues) {
  Dataset d;
  d.Add(Example{Vector{0.1, 1.0 / 3.0}, 1e-300});
  d.Add(Example{Vector{-1.7976931348623157e308, 2.2250738585072014e-308}, 0.0});
  auto csv = ToCsv(d).value();
  auto back = ParseCsv(csv).value();
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.at(i).features, d.at(i).features);
    EXPECT_EQ(back.at(i).label, d.at(i).label);
  }
}

TEST(CsvFileTest, SaveAndLoad) {
  Dataset d;
  d.Add(Example{Vector{1.0}, 0.0});
  d.Add(Example{Vector{2.0}, 1.0});
  const std::string path = ::testing::TempDir() + "/dplearn_csv_test.csv";
  std::ofstream(path) << ToCsv(d).value();
  auto loaded = LoadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, d);
  std::remove(path.c_str());
}

TEST(CsvFileTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadCsvFile("/nonexistent/definitely/missing.csv").ok());
  EXPECT_EQ(LoadCsvFile("/nonexistent/definitely/missing.csv").status().code(),
            StatusCode::kNotFound);
}

// Regression (non-finite-cell bugfix): strtod accepts "inf"/"nan" spellings
// and C99 hex floats, so those cells used to parse "successfully" and flow
// non-finite values (or silent column corruption) into risk computations.
// They must all be rejected with the existing cell-naming error.
TEST(CsvParseTest, RejectsInfinityCells) {
  for (const char* cell : {"inf", "-inf", "INF", "Infinity", "-Infinity"}) {
    const std::string csv = std::string(cell) + ",1\n2,3\n";
    const auto parsed = ParseCsv(csv);
    EXPECT_FALSE(parsed.ok()) << "accepted cell '" << cell << "'";
    EXPECT_NE(parsed.status().message().find(cell), std::string::npos)
        << "error does not name the cell: " << parsed.status().message();
  }
}

TEST(CsvParseTest, RejectsNanCells) {
  for (const char* cell : {"nan", "-nan", "NaN", "NAN", "nan(0x1)"}) {
    const std::string csv = "1," + std::string(cell) + "\n2,3\n";
    EXPECT_FALSE(ParseCsv(csv).ok()) << "accepted cell '" << cell << "'";
  }
}

TEST(CsvParseTest, RejectsHexFloatCells) {
  for (const char* cell : {"0x1p3", "0X2P4", "0x10", "0x.8p1"}) {
    const std::string csv = std::string(cell) + ",0\n";
    EXPECT_FALSE(ParseCsv(csv).ok()) << "accepted cell '" << cell << "'";
  }
}

TEST(CsvParseTest, RejectsOverflowingDecimalCells) {
  // Syntactically plain decimal, but overflows to +inf in strtod.
  for (const char* cell : {"1e999", "-1e999", "1e400"}) {
    const std::string csv = std::string(cell) + ",0\n";
    EXPECT_FALSE(ParseCsv(csv).ok()) << "accepted cell '" << cell << "'";
  }
}

TEST(CsvParseTest, RejectsTrailingComma) {
  // A trailing comma produces an empty final cell, which is an error (it is
  // indistinguishable from a dropped value).
  EXPECT_FALSE(ParseCsv("1,2,\n").ok());
  EXPECT_NE(ParseCsv("1,2,\n").status().message().find("empty cell"), std::string::npos);
}

TEST(CsvParseTest, StillAcceptsPlainScientificNotation) {
  // The whitelist must not over-reject: ordinary scientific notation, signs,
  // and bare decimal points all stay valid.
  const auto parsed = ParseCsv("+1.5e-3,-2.25E+2,.5\n1,2,3\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().at(0).features[0], 1.5e-3);
  EXPECT_EQ(parsed.value().at(0).features[1], -225.0);
  EXPECT_EQ(parsed.value().at(0).label, 0.5);
}

}  // namespace
}  // namespace dplearn
