// Fixture for scripts/check_stream_free_writers.py: a writer on the
// appender, with stream names only in comments, literals and longer
// identifiers. The lint must accept this file
// (ctest lint.stream_free_writers_accepts_appender).
#include <cstdint>
#include <ostream>
#include <string>

#include "support/text.h"

namespace amdrel {

// No std::ostringstream here, and no #include <sstream> either.
/* std::stringstream os; */
void write_line(std::ostream& out, std::int64_t value) {
  static int ostringstream_free_lines = 0;
  ++ostringstream_free_lines;
  std::string line;
  text::append(line, "{\"note\":\"std::ostringstream\",\"value\":", value,
               "}\n");
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace amdrel
