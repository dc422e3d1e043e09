// Differential oracle for the wire's cell-line cursor
// (wire::decode_cell_line): over golden lines, awkward encoded cells and
// seeded mutants of both, the cursor must yield bit-for-bit the cell the
// tree path (parse_line + decode_cell) yields, or decline. It must never
// accept a line the tree rejects, and it must accept every line
// encode_cell writes, or the fast path would quietly fall back.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_lines.h"
#include "core/wire.h"
#include "line_mutator.h"

#ifndef AMDREL_GOLDEN_DIR
#error "AMDREL_GOLDEN_DIR must be defined by the build"
#endif

namespace amdrel::core::wire {
namespace {

std::string encoded(std::size_t shard, std::size_t slot,
                    const PartitionReport& report,
                    const std::vector<std::string>& moved_names) {
  std::ostringstream os;
  encode_cell(os, shard, slot, report, moved_names);
  std::string line = os.str();
  line.pop_back();  // the newline
  return line;
}

// Each decoder's cell, re-encoded (the encoding holds every field, and
// doubles as bits, so equal encodings are bit-equal cells); nullopt when
// the decoder rejects or declines the line.
std::optional<std::string> tree_cell(const std::string& line) {
  jsonl::JsonValue object;
  Cell cell;
  if (!parse_line(line, object) || !decode_cell(object, cell)) {
    return std::nullopt;
  }
  return encoded(cell.shard, cell.slot, cell.payload.report,
                 cell.payload.moved_names);
}

std::optional<std::string> cursor_cell(const std::string& line) {
  // Outputs start dirty, as a slot a failed attempt wrote into does: the
  // cursor must overwrite every field.
  std::size_t shard = 77;
  std::size_t slot = 77;
  PartitionReport report;
  report.app = "stale";
  report.moved = {9, 9, 9};
  report.met = true;
  report.initial_meets = true;
  report.energy.comm_pj = 1.5;
  std::vector<std::string> moved_names = {"stale", "stale"};
  if (!decode_cell_line(line, shard, slot, report, moved_names)) {
    return std::nullopt;
  }
  return encoded(shard, slot, report, moved_names);
}

std::vector<std::string> golden_lines() {
  std::ifstream in(std::string(AMDREL_GOLDEN_DIR) +
                   "/sweep_worker.wire.golden");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Cells whose names and numbers sit at the edges of the codec: every
// escape the writer emits, raw UTF-8, empty strings and lists, -0.0,
// INT64_MIN and INT64_MAX bits, a NaN payload and each type's extremes.
std::vector<std::string> awkward_cells() {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::string> lines;

  PartitionReport escaped;
  escaped.app = "q\"b\\t\tc\x01" "d\x1f\x7f\xc3\xa9\n\r";
  escaped.moved = {3, 0};
  lines.push_back(encoded(1, 2, escaped, {"\"", "\\\t\x01\xe2\x82\xac"}));

  PartitionReport empty;
  lines.push_back(encoded(0, 0, empty, {}));
  lines.push_back(encoded(0, 0, empty, {""}));  // one name, no id: mismatch

  PartitionReport edges;
  edges.app = "";
  edges.timing_constraint = kMin;
  edges.objective = ObjectiveKind::kCombined;
  edges.energy_budget_pj = -0.0;
  edges.initial_cycles = kMax;
  edges.initial_energy_pj = std::numeric_limits<double>::quiet_NaN();
  edges.initial_meets = true;
  edges.kernels_found = static_cast<std::size_t>(kMax);
  edges.moved = {std::numeric_limits<ir::BlockId>::min(),
                 std::numeric_limits<ir::BlockId>::max(), -1};
  edges.cost = {kMin, kMax, -1, 0};
  edges.floorplan_cost = -std::numeric_limits<double>::infinity();
  edges.final_cycles = -1;
  edges.cycles_in_cgc = kMin;
  edges.energy = {-0.0, std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::max(), 0.1};
  edges.met = true;
  edges.engine_iterations = std::numeric_limits<int>::min();
  lines.push_back(encoded(static_cast<std::size_t>(kMax), 0, edges,
                          {"", "a", ""}));
  edges.engine_iterations = std::numeric_limits<int>::max();
  edges.objective = ObjectiveKind::kEnergy;
  lines.push_back(encoded(0, static_cast<std::size_t>(kMax), edges,
                          {"x", "", "y"}));

  // Seeded random reports, names drawn from an alphabet of awkward bytes.
  std::mt19937_64 rng(20260);
  const std::string alphabet = "aZ9_ \"\\\t\n\r\x01\x1f\x7f\x80\xc3\xa9,:{}[]";
  auto name = [&] {
    std::string out;
    for (std::size_t n = rng() % 6; n > 0; --n) {
      out += alphabet[rng() % alphabet.size()];
    }
    return out;
  };
  auto wide = [&] { return static_cast<std::int64_t>(rng()); };
  for (int i = 0; i < 64; ++i) {
    PartitionReport r;
    r.app = name();
    r.timing_constraint = wide();
    r.objective = static_cast<ObjectiveKind>(rng() % 3);
    r.energy_budget_pj = jsonl::bits_to_double(wide());
    r.initial_cycles = wide();
    r.initial_energy_pj = jsonl::bits_to_double(wide());
    r.initial_meets = rng() % 2;
    r.kernels_found = rng() >> 1;
    std::vector<std::string> names;
    for (std::size_t n = rng() % 4; n > 0; --n) {
      r.moved.push_back(static_cast<ir::BlockId>(rng()));
      names.push_back(name());
    }
    r.cost = {wide(), wide(), wide(), wide()};
    r.floorplan_cost = jsonl::bits_to_double(wide());
    r.final_cycles = wide();
    r.cycles_in_cgc = wide();
    r.energy = {jsonl::bits_to_double(wide()), jsonl::bits_to_double(wide()),
                jsonl::bits_to_double(wide()), jsonl::bits_to_double(wide())};
    r.met = rng() % 2;
    r.engine_iterations = static_cast<int>(rng());
    lines.push_back(encoded(rng() % 1000, rng() % 1000, r, names));
  }
  return lines;
}

struct Tally {
  int agreed = 0;        ///< the cursor accepted, with the tree's cell
  int fell_back = 0;     ///< the cursor declined a line the tree accepts
  int both_refused = 0;  ///< neither accepts it
};

// The oracle on one line. Returns false (after recording a failure) when
// the cursor accepts a line the tree does not decode to the same cell.
bool check(const std::string& line, Tally& tally) {
  const std::optional<std::string> tree = tree_cell(line);
  const std::optional<std::string> cursor = cursor_cell(line);
  if (cursor) {
    EXPECT_TRUE(tree) << "cursor accepted a line the tree rejects: " << line;
    EXPECT_EQ(cursor, tree) << line;
    if (cursor != tree) return false;
    ++tally.agreed;
  } else if (tree) {
    ++tally.fell_back;
  } else {
    ++tally.both_refused;
  }
  return true;
}

// Runs `mutants` seeded mutants of each input through the oracle and
// returns the tally; stops at the first disagreement.
Tally check_mutants(const std::vector<std::string>& inputs, int mutants,
                    std::uint64_t seed) {
  Tally tally;
  test::LineMutator mutator(seed);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (int m = 0; m < mutants; ++m) {
      if (!check(mutator.mutate(inputs[i]), tally)) {
        ADD_FAILURE() << "input " << i << ", mutant " << m << ", seed "
                      << seed;
        return tally;
      }
    }
  }
  return tally;
}

TEST(WireOracleTest, CursorAcceptsEveryGoldenCellLine) {
  const std::vector<std::string> lines = golden_lines();
  ASSERT_GT(lines.size(), 10u);
  int cells = 0;
  for (const std::string& line : lines) {
    Tally tally;
    ASSERT_TRUE(check(line, tally));
    if (tree_cell(line)) {
      ++cells;
      EXPECT_EQ(tally.agreed, 1) << "cursor declined " << line;
      EXPECT_EQ(cursor_cell(line), line);  // decode -> encode is identity
    }
  }
  EXPECT_GT(cells, 0);
}

TEST(WireOracleTest, CursorAcceptsEveryAwkwardEncodedCell) {
  for (const std::string& line : awkward_cells()) {
    Tally tally;
    ASSERT_TRUE(check(line, tally));
    if (tree_cell(line)) {
      EXPECT_EQ(tally.agreed, 1) << "cursor declined " << line;
    }
  }
  // The one encoded line the tree rejects (a name without an id) the
  // cursor rejects too.
  EXPECT_FALSE(cursor_cell(awkward_cells()[2]));
}

TEST(WireOracleTest, GoldenLineMutantsAgreeOrFallBack) {
  const Tally tally = check_mutants(golden_lines(), 600, 1);
  EXPECT_GT(tally.agreed, 0);
  EXPECT_GT(tally.fell_back, 0);
  EXPECT_GT(tally.both_refused, 0);
}

TEST(WireOracleTest, AwkwardCellMutantsAgreeOrFallBack) {
  const Tally tally = check_mutants(awkward_cells(), 1500, 2);
  EXPECT_GT(tally.agreed, 0);
  EXPECT_GT(tally.fell_back, 0);
  EXPECT_GT(tally.both_refused, 0);
}

// Each mutation kind alone, on the awkward cells: a duplicated or
// swapped key leaves the layout, so the cursor must never take it.
TEST(WireOracleTest, EveryMutationKindAgreesOrFallsBack) {
  const std::vector<std::string> inputs = awkward_cells();
  for (int k = 0; k < test::LineMutator::kKinds; ++k) {
    const auto kind = static_cast<test::LineMutator::Kind>(k);
    test::LineMutator mutator(100 + static_cast<std::uint64_t>(k));
    Tally tally;
    for (const std::string& input : inputs) {
      for (int m = 0; m < 40; ++m) {
        std::string line = input;
        mutator.apply(kind, line);
        ASSERT_TRUE(check(line, tally)) << "kind " << k;
        if (kind == test::LineMutator::Kind::kDuplicateKey ||
            kind == test::LineMutator::Kind::kSwapKeys) {
          EXPECT_FALSE(cursor_cell(line)) << "kind " << k << ": " << line;
        }
      }
    }
    EXPECT_GT(tally.agreed + tally.fell_back + tally.both_refused, 0);
  }
}

// The three inputs the parser tightening rejects, at one field each: the
// cursor refuses them as the tree does.
TEST(WireOracleTest, CursorRefusesWhatTheTreeRefuses) {
  PartitionReport report;
  report.app = "a";
  report.final_cycles = 7;
  report.moved = {1};
  const std::string line = encoded(3, 0, report, {"BB1"});
  auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = line;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  for (const std::string& bad :
       {edited("\"shard\":3", "\"shard\":007"),
        edited("\"final_cycles\":7", "\"final_cycles\":07"),
        edited("\"app\":\"a\"", "\"app\":\"a\tb\""),
        edited("\"moved_names\":[\"BB1\"]", "\"moved_names\":[\"B\x01\"]"),
        edited("\"met\":false", "\"met\":false,\"met\":true"),
        edited("\"moved\":[1]", "\"moved\":[4294967297]"),
        edited("\"engine_iterations\":0", "\"engine_iterations\":4294967296"),
        edited("\"objective\":0", "\"objective\":3"),
        edited("\"energy_bits\":[0,0,0,0]", "\"energy_bits\":[0,0,0]"),
        edited("\"energy_bits\":[0,0,0,0]", "\"energy_bits\":[0,0,0,0,0]"),
        edited("\"app\":\"a\"", "\"app\":\"\\u0080\""),
        edited("\"app\":\"a\"", "\"app\":\"\\u004A\""),
        line + "}", line.substr(0, line.size() - 1)}) {
    EXPECT_FALSE(tree_cell(bad)) << bad;
    EXPECT_FALSE(cursor_cell(bad)) << bad;
  }
  // Whitespace the tree skips sends the line down the tree path.
  ASSERT_TRUE(tree_cell(line + " "));
  EXPECT_FALSE(cursor_cell(line + " "));
  // Escapes the writer never emits but the tree accepts decode alike.
  const std::string lower = edited("\"app\":\"a\"", "\"app\":\"\\u004a\"");
  ASSERT_TRUE(tree_cell(lower));
  EXPECT_EQ(cursor_cell(lower), tree_cell(lower));
}

}  // namespace
}  // namespace amdrel::core::wire
