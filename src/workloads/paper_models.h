#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "ir/cdfg.h"
#include "ir/profile.h"

namespace amdrel::workloads {

/// Specification of one basic block of a paper-calibrated application
/// model. The paper's analysis weights are ALU = 1, MUL = 2, so the
/// block's Table-1 operation weight is alu + 2 * mul by construction;
/// mem is the block's shared-memory traffic (loads + stores), which the
/// paper's weight column does not include.
struct PaperBlockSpec {
  std::string label;         ///< the paper's "Basic Block no.", e.g. "BB22"
  std::uint64_t exec_freq = 0;
  int mul = 0;
  int alu = 0;
  int mem = 0;
  int live_in = 3;
  int live_out = 1;
  int width = 3;             ///< DFG parallelism handed to the generator
  bool in_loop = true;       ///< blocks with freq 1 are setup code
};

/// A paper-calibrated application: CDFG + the profile the paper's dynamic
/// analysis reported (Table 1 execution frequencies), plus the specs for
/// inspection.
struct PaperApp {
  ir::Cdfg cdfg{"app"};
  ir::ProfileData profile;
  std::vector<PaperBlockSpec> specs;  ///< specs[i] describes block id i+1
                                      ///< (block 0 is the entry stub)

  /// Block id carrying the given paper label (e.g. "BB22").
  ir::BlockId block_by_label(const std::string& label) const;
};

/// The IEEE 802.11a OFDM transmitter front-end (QAM, 64-point IFFT,
/// cyclic prefix) as characterized in the paper: 18 basic blocks, profiled
/// for 6 payload symbols. The top-8 rows of Table 1 are reproduced
/// exactly; the remaining 10 blocks are documented assumptions with
/// weights below the 8th entry.
PaperApp build_ofdm_model();

/// The JPEG encoder (8x8 DCT, quantizer, zig-zag, entropy encoder): 22
/// basic blocks, profiled for a 256x256-byte image. Top-8 Table 1 rows
/// exact; the remaining 14 blocks are documented assumptions.
PaperApp build_jpeg_model();

/// The timing constraints used in the paper's experiments (Tables 2/3).
inline constexpr std::int64_t kOfdmTimingConstraint = 60000;
inline constexpr std::int64_t kJpegTimingConstraint = 11000000;

/// Both paper applications as a sweep corpus ({"ofdm", "jpeg"}), for the
/// grid x corpus explorer and its tests.
std::vector<core::CorpusApp> paper_corpus();

}  // namespace amdrel::workloads
