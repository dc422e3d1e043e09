#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/basic_block.h"
#include "support/error.h"

namespace amdrel::ir {

/// Dynamic-analysis result: how many times each basic block executed for
/// the representative input (the paper's exec_freq, gathered there with
/// Lex-inserted counters; here produced by the TAC interpreter or supplied
/// directly for paper-calibrated workload models).
///
/// Counts are stored densely, indexed by block id, so count() is one
/// bounds check and one load: every pricing pass reads it once per block.
/// A per-block recorded flag tells a block that was set or incremented
/// (even to zero) from one that never was; both count() as 0, but only
/// recorded blocks are visited by for_each_recorded(), and so hashed by
/// the profile fingerprint.
class ProfileData {
 public:
  /// Block ids must be non-negative; a negative id throws Error.
  void set_count(BlockId block, std::uint64_t count) { slot(block) = count; }
  void increment(BlockId block) { ++slot(block); }

  /// 0 for a block that was never recorded, including any id out of range.
  std::uint64_t count(BlockId block) const {
    const auto b = static_cast<std::size_t>(block);
    return b < counts_.size() ? counts_[b] : 0;
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t count : counts_) sum += count;
    return sum;
  }

  /// Number of recorded blocks.
  std::size_t recorded_count() const { return recorded_count_; }

  /// Calls fn(block, count) for every recorded block, in ascending id.
  template <class Fn>
  void for_each_recorded(Fn&& fn) const {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (recorded_[b]) fn(static_cast<BlockId>(b), counts_[b]);
    }
  }

 private:
  std::uint64_t& slot(BlockId block) {
    require(block >= 0, "ProfileData: negative block id ", block);
    const auto b = static_cast<std::size_t>(block);
    if (b >= counts_.size()) {
      counts_.resize(b + 1, 0);
      recorded_.resize(b + 1, 0);
    }
    if (!recorded_[b]) {
      recorded_[b] = 1;
      ++recorded_count_;
    }
    return counts_[b];
  }

  std::vector<std::uint64_t> counts_;    ///< block-id indexed; 0 = none
  std::vector<unsigned char> recorded_;  ///< 1 = set or incremented
  std::size_t recorded_count_ = 0;
};

}  // namespace amdrel::ir
