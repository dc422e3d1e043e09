// perf_calibrate — a fixed amount of work, timed by perfbench/run.py
// beside every measured `amdrelc` invocation.
//
// The work is shaped like a sweep's: scattered reads of a heap larger
// than the last-level cache, small allocations and string keys in a hash
// map, and a sort. It links nothing of the library, so no change to the
// repository alters it, and its time tells only how fast the host runs
// at that moment. Prints a checksum so the work cannot be optimized out.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

int main() {
  std::mt19937_64 rng(20040216);
  std::vector<std::uint64_t> heap(std::size_t{1} << 22);  // 32 MiB
  for (std::uint64_t& value : heap) value = rng();

  std::uint64_t checksum = 0;
  std::size_t at = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    at = static_cast<std::size_t>((at + heap[at]) % heap.size());
    checksum += heap[at];
  }

  std::unordered_map<std::string, std::uint64_t> names;
  for (int i = 0; i < 150000; ++i) {
    names["block_" + std::to_string(rng() % 50000)] +=
        static_cast<std::uint64_t>(i);
  }
  for (const auto& [name, value] : names) checksum ^= value + name.size();

  std::vector<std::uint64_t> keys(heap.begin(), heap.begin() + (1 << 19));
  std::sort(keys.begin(), keys.end());
  checksum += keys[keys.size() / 2];

  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
