// Golden-file stability test for the MiniC frontend: the `dump-tac` and
// `dump-dot` text of a small FIR, a small Sobel and two fuzz programs
// (perfbench's first corpus stratum) is pinned byte-for-byte in
// tests/golden/frontend.golden. Block names, register numbering, array
// symbols and the CDFG layout all feed the partitioner, so a refactor
// of the lexer, parser, sema or lowering must leave every byte here
// unchanged. To regenerate after an intentional change:
//   ./build/tests/frontend_determinism_test --regen
// then review the diff of tests/golden/.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ir/build_cdfg.h"
#include "ir/dot.h"
#include "minic/frontend.h"
#include "synth/minic_fuzzer.h"
#include "workloads/minic_sources.h"

#ifndef AMDREL_GOLDEN_DIR
#error "AMDREL_GOLDEN_DIR must be defined by the build"
#endif

namespace amdrel {
namespace {

std::vector<std::pair<std::string, std::string>> golden_sources() {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.emplace_back("fir8", workloads::fir_source(8));
  sources.emplace_back("sobel8x8", workloads::sobel_source(8, 8));
  // perfbench/run.py's first fuzz stratum: 6 statements, loop nest 1,
  // one helper function.
  for (const std::uint64_t seed : {1, 2}) {
    synth::FuzzConfig config;
    config.statements = 6;
    config.max_loop_nest = 1;
    config.functions = 1;
    config.seed = seed;
    sources.emplace_back("fuzz_s" + std::to_string(seed),
                         synth::generate_minic_program(config));
  }
  return sources;
}

// Per program: a "== NAME dump-tac ==" section holding the TAC text,
// then a "== NAME dump-dot ==" section holding the CDFG's DOT text.
std::string render_frontend() {
  std::string out;
  for (const auto& [name, source] : golden_sources()) {
    const ir::TacProgram tac = minic::compile(source, name);
    out += "== " + name + " dump-tac ==\n";
    out += tac.to_string();
    out += "== " + name + " dump-dot ==\n";
    out += ir::to_dot(ir::build_cdfg(tac));
  }
  return out;
}

std::string golden_path() {
  return std::string(AMDREL_GOLDEN_DIR) + "/frontend.golden";
}

TEST(FrontendDeterminismTest, MatchesCommittedGolden) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with --regen to create it)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), render_frontend())
      << "frontend output drifted from " << golden_path()
      << "; if intentional, regenerate with --regen and review the diff";
}

TEST(FrontendDeterminismTest, RepeatedRendersAreByteIdentical) {
  EXPECT_EQ(render_frontend(), render_frontend());
}

}  // namespace
}  // namespace amdrel

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      std::ofstream out(amdrel::golden_path(), std::ios::binary);
      out << amdrel::render_frontend();
      return out.good() ? 0 : 1;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
