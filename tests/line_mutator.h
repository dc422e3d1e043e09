#pragma once

// Seeded mutations of one JSON line, for differential tests of the line
// decoders. Deterministic for a seed (std::mt19937_64, no wall clock),
// so a failing mutant is reproduced by its seed and index alone.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace amdrel::test {

class LineMutator {
 public:
  enum class Kind {
    kByteFlip,
    kTruncate,
    kDelete,
    kDuplicateKey,
    kSwapKeys,
    kInsertSpace,
    kLeadingZero,
    kWrapInt,
  };
  static constexpr int kKinds = 8;

  explicit LineMutator(std::uint64_t seed) : rng_(seed) {}

  /// `line` after one or two mutations of random kinds.
  std::string mutate(std::string line) {
    const int rounds = 1 + static_cast<int>(below(2));
    for (int i = 0; i < rounds; ++i) {
      apply(static_cast<Kind>(below(kKinds)), line);
    }
    return line;
  }

  /// Applies one mutation of `kind`; a kind with no site in `line` (no
  /// integer to wrap, fewer than two keys to swap) leaves it unchanged.
  void apply(Kind kind, std::string& line) {
    const std::vector<Span> keys = members(line);
    switch (kind) {
      case Kind::kByteFlip:
        if (!line.empty()) {
          line[below(line.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case Kind::kTruncate:
        line.resize(below(line.size() + 1));
        break;
      case Kind::kDelete:
        if (!line.empty()) line.erase(below(line.size()), 1 + below(3));
        break;
      case Kind::kDuplicateKey:
        if (!keys.empty()) {
          const Span copy = keys[below(keys.size())];
          const Span after = keys[below(keys.size())];
          line.insert(after.second,
                      "," + line.substr(copy.first, copy.second - copy.first));
        }
        break;
      case Kind::kSwapKeys:
        if (keys.size() >= 2) {
          const std::size_t i = below(keys.size() - 1);
          const Span a = keys[i];
          const Span b = keys[i + 1];
          const std::string first = line.substr(a.first, a.second - a.first);
          const std::string second = line.substr(b.first, b.second - b.first);
          line.replace(a.first, b.second - a.first,
                       second + line.substr(a.second, b.first - a.second) +
                           first);
        }
        break;
      case Kind::kInsertSpace:
        line.insert(below(line.size() + 1), 1, ' ');
        break;
      case Kind::kLeadingZero:
        if (const std::vector<Span> ints = integers(line); !ints.empty()) {
          line.insert(ints[below(ints.size())].first, 1, '0');
        }
        break;
      case Kind::kWrapInt:
        // 2^32 + v: the value a 32-bit field would wrap back to v.
        if (const std::vector<Span> ints = integers(line); !ints.empty()) {
          const Span at = ints[below(ints.size())];
          if (at.second - at.first <= 18) {
            const std::uint64_t v =
                std::stoull(line.substr(at.first, at.second - at.first));
            line.replace(at.first, at.second - at.first,
                         std::to_string(v + (std::uint64_t{1} << 32)));
          }
        }
        break;
    }
  }

  using Span = std::pair<std::size_t, std::size_t>;  // [first, second)

  /// Spans of the top-level "key":value members of a one-line object,
  /// found by a quote- and bracket-aware scan that tolerates bad input.
  static std::vector<Span> members(const std::string& line) {
    std::vector<Span> out;
    int depth = 0;
    bool in_string = false;
    std::size_t start = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      switch (c) {
        case '"':
          in_string = true;
          break;
        case '{':
        case '[':
          if (depth++ == 0) start = i + 1;
          break;
        case '}':
        case ']':
          if (--depth == 0 && i > start) out.emplace_back(start, i);
          break;
        case ',':
          if (depth == 1) {
            out.emplace_back(start, i);
            start = i + 1;
          }
          break;
        default:
          break;
      }
    }
    return out;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  // Digit runs that start a number token (after ':', '[', ',' or '-').
  static std::vector<Span> integers(const std::string& line) {
    std::vector<Span> out;
    for (std::size_t i = 1; i < line.size(); ++i) {
      const char before = line[i - 1];
      if (line[i] < '0' || line[i] > '9' ||
          (before != ':' && before != '[' && before != ',' && before != '-')) {
        continue;
      }
      std::size_t end = i;
      while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
      out.emplace_back(i, end);
      i = end;
    }
    return out;
  }

  std::mt19937_64 rng_;
};

}  // namespace amdrel::test
