#pragma once

#include <cstdint>

namespace amdrel::platform {

/// The coarse-grain data-path of the authors' FPL'04 companion paper: a
/// set of Coarse-Grain Components (CGCs), each an n x m array of nodes
/// containing one multiplier and one ALU (one active per clock), plus a
/// register bank and a reconfigurable interconnect. Direct intra-CGC
/// connections let a chain of up to `rows` dependent operations complete
/// within a single CGC clock cycle (the "complex operations like
/// multiply-add" of the paper).
///
/// Every field must price something: a new one must change some cycle
/// count, and it joins this model's append_key list in
/// core/fingerprint.cc (the one list that keys both the persisted sweep
/// cache and the sweep's shared mapper tables, core::AxisMemo) and
/// test::platform_field_edits. The ctest lint.model_fields checks both.
struct CgcModel {
  int count = 2;  ///< number of CGCs in the data-path
  int rows = 2;   ///< chaining depth within one CGC and one cycle
  int cols = 2;   ///< parallel chains per CGC

  /// T_FPGA / T_CGC. The paper assumes the ASIC data-path clocks three
  /// times faster than the embedded FPGA (T_FPGA = 3 T_CGC).
  int fpga_clock_ratio = 3;

  /// Intra-CGC chaining: dependent operations in increasing rows of one
  /// CGC complete within a single cycle (the FPL'04 data-path's key
  /// feature, "realize any complex operations like a multiply-add").
  /// Disable for the ablation of that feature.
  bool enable_chaining = true;

  /// Shared-data-memory ports available to the data-path and the cost of
  /// one access in CGC cycles. Kernels contain loads/stores (the paper
  /// counts memory accesses in a block's complexity), and these serialize
  /// on the ports.
  int mem_ports = 2;
  std::int64_t mem_access_cgc_cycles = 4;

  /// When true (default), array traffic is staged through the register
  /// bank: loads are DMA-prefetched before the kernel fires and stores are
  /// drained afterwards, so memory adds ceil(accesses / mem_ports) *
  /// mem_access_cgc_cycles to the latency instead of stealing compute
  /// slots mid-kernel. When false, every load/store is scheduled on a
  /// port cycle-by-cycle inside the kernel.
  bool dma_memory = true;
};

}  // namespace amdrel::platform
