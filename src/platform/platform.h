#pragma once

#include <cstdint>

#include "platform/cgc_model.h"
#include "platform/fpga_model.h"
#include "platform/memory_model.h"

namespace amdrel::platform {

/// Characterization of a hybrid reconfigurable platform instance (the
/// generic architecture of Figure 1): an embedded FPGA, a CGC data-path
/// and the shared data memory. All cycle counts reported by the library
/// are in FPGA clock cycles, matching the paper's tables ("the clock cycle
/// period is set to the clock period of the fine-grain hardware").
struct Platform {
  FpgaModel fpga;
  CgcModel cgc;
  MemoryModel memory;

  /// Converts a CGC-cycle latency to FPGA cycles, rounding up (a kernel
  /// invocation occupies the data-path for whole FPGA cycles).
  std::int64_t cgc_to_fpga_cycles(std::int64_t cgc_cycles) const {
    const auto ratio = static_cast<std::int64_t>(cgc.fpga_clock_ratio);
    return (cgc_cycles + ratio - 1) / ratio;
  }
};

/// Rejects a Platform whose fields would silently corrupt every number
/// priced against it: cgc.fpga_clock_ratio == 0 divides by zero in
/// cgc_to_fpga_cycles above, a non-positive CGC geometry schedules on an
/// empty grid, and a non-finite or non-positive usable area breaks the
/// fine-grain area model. Called by make_paper_platform, platform_cost
/// and the HybridMapper constructor, so a hand-built Platform cannot
/// reach a pricing path unvalidated. Throws Error on violation.
void validate_platform(const Platform& platform);

/// The platform configuration used throughout the paper's experiments:
/// A_FPGA units of usable fine-grain area and `cgc_count` 2x2 CGCs, with
/// T_FPGA = 3 T_CGC. Remaining knobs take the model headers' defaults.
Platform make_paper_platform(double a_fpga, int cgc_count);

/// Area-equivalent cost of a platform instance, in the same abstract
/// units as A_FPGA: the usable fine-grain area plus every CGC node priced
/// as one multiplier + one ALU of fine-grain fabric. The platform-grid
/// sweep's third Pareto axis — a bigger device may buy fewer cycles, and
/// this makes that trade explicit.
double platform_cost(const Platform& platform);

}  // namespace amdrel::platform
