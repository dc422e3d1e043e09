#pragma once

#include <string>
#include <vector>

#include "core/methodology.h"
#include "support/text.h"

namespace amdrel::core {

/// Minimal fixed-width text table used by the CLI and examples to
/// print paper-style result tables. Every cell's text lives in one
/// buffer; to_string() pads the columns to their widest cell.
class TextTable {
 public:
  explicit TextTable(const std::vector<std::string>& header);
  void add_row(const std::vector<std::string>& row);

  /// Appends one cell, rendered by text::append, to the row being built;
  /// end_row() closes the row. Builds a row with no string per cell.
  template <typename... Parts>
  TextTable& cell(const Parts&... parts) {
    text::append(text_, parts...);
    cell_end_.push_back(text_.size());
    return *this;
  }
  void end_row() { row_end_.push_back(cell_end_.size()); }

  std::string to_string() const;

 private:
  std::string text_;                   ///< every cell's bytes, in order
  std::vector<std::size_t> cell_end_;  ///< end offset of each cell in text_
  std::vector<std::size_t> row_end_;   ///< end index of each row's cells
};

/// Human-readable summary of one methodology run (constraint, initial and
/// final cycles, moved blocks, cost split, reduction), for the examples.
std::string describe(const PartitionReport& report, const ir::Cdfg& cdfg);

/// Formats 12345678 as "12,345,678" for table readability.
std::string with_thousands(std::int64_t value);

}  // namespace amdrel::core
