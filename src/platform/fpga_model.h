#pragma once

#include <cstdint>

#include "ir/op.h"

namespace amdrel::platform {

/// How full-device reconfiguration time is charged when a basic block's
/// DFG is split across several temporal partitions (paper section 3.2:
/// "for each temporal partition, full reconfiguration of the fine-grain
/// hardware is performed").
enum class ReconfigPolicy {
  kNone,           ///< ignore reconfiguration entirely (idealized)
  kSwitchOnly,     ///< (partitions - 1) reconfigurations per invocation:
                   ///< a single-partition block stays resident (default)
  kPerPartition,   ///< partitions reconfigurations per invocation
  kAmortizedOnce,  ///< partitions reconfigurations charged once, not
                   ///< multiplied by the block's execution frequency
};

/// Which temporal-partitioning algorithm maps blocks onto the fine-grain
/// hardware. kFigure3 is the paper's algorithm; kListPacking is the
/// ablation alternative (see finegrain/temporal_partitioner.h).
enum class FineMapper {
  kFigure3,
  kListPacking,
};

/// Timing/area characterization of the fine-grain (embedded FPGA) block.
/// The methodology is parameterized on this (paper: "both types of
/// reconfigurable hardware are characterized in terms of timing and area
/// characteristics"), so any device can be described by filling the
/// per-class area/delay entries.
///
/// A new field must join this model's append_key list in
/// core/fingerprint.cc, the one list that keys both the persisted sweep
/// cache and the sweep's shared mapper tables (core::AxisMemo).
struct FpgaModel {
  /// Area available for mapping DFG operations (the paper's A_FPGA,
  /// quoted directly in "units of area" in the experiments). When
  /// describing a physical device, set it to 70% of the raw area, the
  /// routability rule the paper recommends.
  double usable_area = 1500.0;

  /// Full-device reconfiguration cost in FPGA clock cycles.
  std::int64_t reconfig_cycles = 380;

  /// Operation-issue throughput of the fabric. Fine-grain fabrics bound
  /// usable instruction-level parallelism through routing congestion and
  /// shared-memory ports; an ASAP level with total operation delay D and
  /// slowest operation d costs max(d, ceil(D / parallel_lanes)) cycles.
  /// The default of 1 models the near-serial execution the paper's cycle
  /// counts imply (see EXPERIMENTS.md calibration notes).
  int parallel_lanes = 1;

  /// Fixed per-invocation control cost of a basic block on the FPGA
  /// (next-address logic / FSM sequencing, branch resolution).
  std::int64_t invocation_overhead_cycles = 1;

  ReconfigPolicy reconfig_policy = ReconfigPolicy::kSwitchOnly;

  FineMapper mapper = FineMapper::kFigure3;

  /// T_FPGA in nanoseconds. No scheduler, pricer or report reads it:
  /// every result is in cycles, as the paper reports them. It only joins
  /// the key lists in core/fingerprint.cc, so a new value changes the
  /// cache and memo keys but no result.
  double clock_period_ns = 6.0;

  // Per-class area occupied by one mapped operation, in the same abstract
  // units as usable_area.
  double area_alu = 12.0;
  double area_mul = 60.0;
  double area_div = 120.0;
  double area_mem = 10.0;   ///< address/port logic of a memory access
  double area_copy = 0.0;   ///< wiring

  // Per-class latency of one operation in FPGA clock cycles. Matching the
  // analysis weights (ALU 1, MUL 2) keeps the static weight a faithful
  // execution-time predictor, which is what the paper's analysis assumes.
  std::int64_t delay_alu = 1;
  std::int64_t delay_mul = 2;
  std::int64_t delay_div = 8;
  std::int64_t delay_mem = 2;  ///< shared-data-memory access
  std::int64_t delay_copy = 0;

  double area(ir::OpKind kind) const {
    switch (ir::op_class(kind)) {
      case ir::OpClass::kAlu: return area_alu;
      case ir::OpClass::kMul: return area_mul;
      case ir::OpClass::kDiv: return area_div;
      case ir::OpClass::kMem: return area_mem;
      case ir::OpClass::kMeta:
        return kind == ir::OpKind::kCopy ? area_copy : 0.0;
    }
    return 0.0;
  }

  std::int64_t delay_cycles(ir::OpKind kind) const {
    switch (ir::op_class(kind)) {
      case ir::OpClass::kAlu: return delay_alu;
      case ir::OpClass::kMul: return delay_mul;
      case ir::OpClass::kDiv: return delay_div;
      case ir::OpClass::kMem: return delay_mem;
      case ir::OpClass::kMeta:
        return kind == ir::OpKind::kCopy ? delay_copy : 0;
    }
    return 0;
  }
};

}  // namespace amdrel::platform
