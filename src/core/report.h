#pragma once

#include <string>
#include <vector>

#include "core/methodology.h"

namespace amdrel::core {

/// Minimal fixed-width text table used by the CLI and examples to
/// print paper-style result tables.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  std::string to_string() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Human-readable summary of one methodology run (constraint, initial and
/// final cycles, moved blocks, cost split, reduction), for the examples.
std::string describe(const PartitionReport& report, const ir::Cdfg& cdfg);

/// Formats 12345678 as "12,345,678" for table readability.
std::string with_thousands(std::int64_t value);

}  // namespace amdrel::core
