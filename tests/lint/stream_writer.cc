// Fixture for scripts/check_stream_free_writers.py: a writer that builds
// its line through a string stream. The lint must reject this file
// (ctest lint.stream_free_writers_rejects_stream).
#include <cstdint>
#include   <sstream>
#include <string>

namespace amdrel {

std::string render_line(std::int64_t value) {
  std::ostringstream os;
  os << "{\"value\":" << value << "}\n";
  return os.str();
}

}  // namespace amdrel
