#pragma once

#include <cstdint>

#include "ir/cdfg.h"
#include "ir/profile.h"
#include "synth/dfg_generator.h"

namespace amdrel::synth {

/// A synthetic application: structure plus the (consistent) profile a run
/// over its loop nest would produce.
struct SyntheticApp {
  ir::Cdfg cdfg{"synthetic"};
  ir::ProfileData profile;
};

/// Parameters of the random loop-nest generator used by property tests.
struct CdfgGenConfig {
  int segments = 4;          ///< top-level regions (block or loop)
  int max_loop_depth = 2;    ///< deepest loop nesting generated
  int max_blocks_per_body = 3;
  std::int64_t min_trip = 4;
  std::int64_t max_trip = 64;

  // Ranges for per-block op counts (uniform).
  int min_alu = 2, max_alu = 30;
  int min_mul = 0, max_mul = 8;
  int min_mem = 0, max_mem = 8;
  double div_probability = 0.0;  ///< chance a block contains one division

  int target_width = 4;
  std::uint64_t seed = 1;
};

/// Generates a CDFG shaped like structured code (sequences of basic blocks
/// and counted loops, possibly nested) together with the execution profile
/// implied by the loop trip counts. Loop headers/latches are real blocks,
/// so Cdfg::analyze_loops() discovers the intended nesting.
SyntheticApp generate_app(const CdfgGenConfig& config);

}  // namespace amdrel::synth
