#ifndef DPLEARN_LEARNING_CSV_IO_H_
#define DPLEARN_LEARNING_CSV_IO_H_

#include <string>

#include "learning/dataset.h"
#include "util/status.h"

namespace dplearn {

/// CSV import/export for datasets. Format: one example per line, features
/// first and the label in the LAST column; '#'-prefixed lines and blank
/// lines are skipped; no quoting (numeric data only). This is the adoption
/// surface for users bringing their own data — everything else in the
/// library consumes the Dataset it produces.

/// Parses CSV text (not a file path) into a Dataset. Every row must have
/// the same column count (>= 2: at least one feature + label). Errors on
/// malformed numbers, ragged rows, or no data rows.
StatusOr<Dataset> ParseCsv(const std::string& csv_text);

/// Renders a dataset as CSV text (features..., label), 17 significant
/// digits (round-trip exact). Error if the dataset is empty or ragged.
StatusOr<std::string> ToCsv(const Dataset& data);

/// Reads a CSV file from disk. Errors on I/O failure or parse failure.
StatusOr<Dataset> LoadCsvFile(const std::string& path);

}  // namespace dplearn

#endif  // DPLEARN_LEARNING_CSV_IO_H_
