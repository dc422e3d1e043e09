#pragma once

#include <cstdint>

namespace amdrel::platform {

/// Shared data memory of the platform (Figure 1 of the paper). It stores
/// (a) array data accessed by both hardware types, (b) values passed
/// between temporal partitions of the fine-grain hardware, and (c) values
/// communicated between the fine- and coarse-grain parts when a kernel is
/// moved (the t_comm term of equation (2)).
///
/// Every field must price something: a new one must change some cycle
/// count, and it joins this model's append_key list in
/// core/fingerprint.cc (the one list that keys both the persisted sweep
/// cache and the sweep's shared mapper tables, core::AxisMemo) and
/// test::platform_field_edits. The ctest lint.model_fields checks both.
struct MemoryModel {
  /// Cost of transferring one word between the two reconfigurable blocks
  /// through the shared memory, in FPGA clock cycles (write + read).
  std::int64_t transfer_cycles_per_word = 1;

  /// Cost of spilling/filling one live value across a temporal-partition
  /// boundary of the fine-grain hardware, in FPGA clock cycles.
  std::int64_t partition_boundary_cycles_per_word = 2;

  /// Cycles to move `words` between the two reconfigurable blocks.
  std::int64_t transfer_cycles(std::int64_t words) const {
    return words * transfer_cycles_per_word;
  }
};

}  // namespace amdrel::platform
