// The reference ir::ProfileData is tested against: the execution counts
// in a std::map keyed by block id, hashed the way the profile
// fingerprint always has (algorithm version, "profile", the entry count,
// then every (block, count) entry in ascending block id). A block that
// was set or incremented is an entry even when its count is zero.

#pragma once

#include <cstdint>
#include <map>

#include "core/fingerprint.h"
#include "core/schema.h"
#include "ir/basic_block.h"

namespace amdrel::test {

class MapProfile {
 public:
  void set_count(ir::BlockId block, std::uint64_t count) {
    counts_[block] = count;
  }
  void increment(ir::BlockId block) { counts_[block]++; }

  std::uint64_t count(ir::BlockId block) const {
    const auto it = counts_.find(block);
    return it == counts_.end() ? 0 : it->second;
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [block, count] : counts_) sum += count;
    return sum;
  }

  core::Fingerprint fingerprint() const {
    core::Fingerprinter h;
    h.mix(static_cast<std::uint64_t>(core::kFingerprintAlgorithmVersion));
    h.mix("profile");
    h.mix(static_cast<std::uint64_t>(counts_.size()));
    for (const auto& [block, count] : counts_) {
      h.mix(static_cast<std::uint64_t>(block));
      h.mix(count);
    }
    return h.digest();
  }

 private:
  std::map<ir::BlockId, std::uint64_t> counts_;
};

}  // namespace amdrel::test
