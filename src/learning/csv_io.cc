#include "learning/csv_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dplearn {
namespace {

/// Restricts cells to plain decimal notation: digits, sign, decimal point,
/// and decimal exponent. strtod alone also accepts "inf"/"nan" (non-finite
/// values that would flow silently into risk computations) and C99 hex
/// floats like "0x1p3" (almost certainly column corruption, not data); this
/// whitelist rejects all of those up front with the cell-naming error.
bool IsPlainDecimalCell(const std::string& cell) {
  for (const char c : cell) {
    const bool ok = (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
                    c == 'e' || c == 'E';
    if (!ok) return false;
  }
  return !cell.empty();
}

/// Parses one CSV line into doubles. Returns an error naming the bad cell.
StatusOr<std::vector<double>> ParseLine(const std::string& line, std::size_t line_number) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t end = line.find(',', start);
    if (end == std::string::npos) end = line.size();
    std::string cell = line.substr(start, end - start);
    // Trim spaces.
    const std::size_t first = cell.find_first_not_of(" \t\r");
    const std::size_t last = cell.find_last_not_of(" \t\r");
    if (first == std::string::npos) {
      return InvalidArgumentError("CSV line " + std::to_string(line_number) +
                                  ": empty cell");
    }
    cell = cell.substr(first, last - first + 1);
    errno = 0;
    char* parse_end = nullptr;
    const double value = std::strtod(cell.c_str(), &parse_end);
    // isfinite backstops the whitelist: a syntactically plain cell like
    // "1e999" still overflows to +inf (errno also fires, but not on every
    // libc for underflow-to-zero vs overflow cases — check the value too).
    if (errno != 0 || parse_end == cell.c_str() || *parse_end != '\0' ||
        !IsPlainDecimalCell(cell) || !std::isfinite(value)) {
      return InvalidArgumentError("CSV line " + std::to_string(line_number) +
                                  ": cannot parse '" + cell + "' as a number");
    }
    values.push_back(value);
    if (end == line.size()) break;
    start = end + 1;
  }
  return values;
}

}  // namespace

StatusOr<Dataset> ParseCsv(const std::string& csv_text) {
  Dataset data;
  std::istringstream stream(csv_text);
  std::string line;
  std::size_t line_number = 0;
  std::size_t expected_columns = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Skip blank lines and comments.
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    DPLEARN_ASSIGN_OR_RETURN(std::vector<double> values, ParseLine(line, line_number));
    if (values.size() < 2) {
      return InvalidArgumentError("CSV line " + std::to_string(line_number) +
                                  ": need at least one feature and a label");
    }
    if (expected_columns == 0) {
      expected_columns = values.size();
    } else if (values.size() != expected_columns) {
      return InvalidArgumentError("CSV line " + std::to_string(line_number) +
                                  ": ragged row (expected " +
                                  std::to_string(expected_columns) + " columns, got " +
                                  std::to_string(values.size()) + ")");
    }
    Example example;
    example.label = values.back();
    values.pop_back();
    example.features = std::move(values);
    data.Add(std::move(example));
  }
  if (data.empty()) return InvalidArgumentError("ParseCsv: no data rows");
  return data;
}

StatusOr<std::string> ToCsv(const Dataset& data) {
  if (data.empty()) return InvalidArgumentError("ToCsv: empty dataset");
  const std::size_t dim = data.FeatureDim();
  std::ostringstream out;
  out.precision(17);
  for (const Example& z : data.examples()) {
    if (z.features.size() != dim) {
      return InvalidArgumentError("ToCsv: ragged feature dimensions");
    }
    for (double x : z.features) out << x << ',';
    out << z.label << '\n';
  }
  return out.str();
}

StatusOr<Dataset> LoadCsvFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("LoadCsvFile: cannot open '" + path + "'");
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseCsv(contents.str());
}

}  // namespace dplearn
