// ir::ProfileData keeps execution counts in a block-id indexed vector
// with a per-block recorded flag. These tests pin it against the
// std::map reference in profile_oracle.h: count(), total() and the
// profile fingerprint's bytes after random set_count/increment
// sequences, plus the edge cases the dense layout must get right.

#include "ir/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

#include "core/fingerprint.h"
#include "profile_oracle.h"
#include "support/error.h"

namespace amdrel {
namespace {

void expect_matches(const ir::ProfileData& profile,
                    const test::MapProfile& oracle, ir::BlockId max_block) {
  for (ir::BlockId block = -2; block <= max_block + 2; ++block) {
    ASSERT_EQ(profile.count(block), oracle.count(block)) << "block " << block;
  }
  EXPECT_EQ(profile.total(), oracle.total());
  EXPECT_EQ(core::fingerprint(profile), oracle.fingerprint());
}

class ProfileOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ProfileOracleProperty, RandomSequencesMatchTheMapOracle) {
  std::mt19937_64 rng(GetParam());
  // Sparse and dense id ranges: a few high ids leave long unrecorded gaps.
  const ir::BlockId max_block =
      std::uniform_int_distribution<ir::BlockId>(0, 1)(rng) == 0 ? 12 : 300;
  std::uniform_int_distribution<ir::BlockId> pick_block(0, max_block);
  std::uniform_int_distribution<int> pick_op(0, 9);
  std::uniform_int_distribution<std::uint64_t> pick_count(0, 5000);
  ir::ProfileData profile;
  test::MapProfile oracle;
  expect_matches(profile, oracle, max_block);
  for (int step = 0; step < 400; ++step) {
    const ir::BlockId block = pick_block(rng);
    const int op = pick_op(rng);
    if (op < 6) {
      profile.increment(block);
      oracle.increment(block);
    } else {
      // Zero is drawn often: a recorded zero must stay an entry.
      const std::uint64_t count = op == 6 ? 0 : pick_count(rng);
      profile.set_count(block, count);
      oracle.set_count(block, count);
    }
    if (step % 25 == 0) expect_matches(profile, oracle, max_block);
  }
  expect_matches(profile, oracle, max_block);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileOracleProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ProfileDataTest, RecordedZeroDiffersFromAbsentBlock) {
  ir::ProfileData absent;
  absent.set_count(1, 5);
  ir::ProfileData zero = absent;
  zero.set_count(3, 0);
  EXPECT_EQ(zero.count(3), 0u);
  EXPECT_EQ(zero.total(), absent.total());
  EXPECT_NE(core::fingerprint(zero), core::fingerprint(absent));
  EXPECT_NE(core::fingerprint(ir::ProfileData{}),
            core::fingerprint([] {
              ir::ProfileData p;
              p.set_count(0, 0);
              return p;
            }()));
}

TEST(ProfileDataTest, NegativeBlockIdThrows) {
  ir::ProfileData profile;
  profile.set_count(2, 9);
  const core::Fingerprint before = core::fingerprint(profile);
  EXPECT_THROW(profile.set_count(-1, 4), Error);
  EXPECT_THROW(profile.increment(-1), Error);
  EXPECT_THROW(profile.increment(std::numeric_limits<ir::BlockId>::min()),
               Error);
  // A rejected call records nothing.
  EXPECT_EQ(profile.recorded_count(), 1u);
  EXPECT_EQ(core::fingerprint(profile), before);
}

TEST(ProfileDataTest, OutOfRangeBlockCountsZero) {
  ir::ProfileData profile;
  EXPECT_EQ(profile.count(0), 0u);
  profile.increment(4);
  profile.increment(4);
  EXPECT_EQ(profile.count(4), 2u);
  EXPECT_EQ(profile.count(5), 0u);
  EXPECT_EQ(profile.count(1'000'000), 0u);
  EXPECT_EQ(profile.count(std::numeric_limits<ir::BlockId>::max()), 0u);
  EXPECT_EQ(profile.count(-1), 0u);
  EXPECT_EQ(profile.count(std::numeric_limits<ir::BlockId>::min()), 0u);
  // Ids below the highest recorded one are in range but unrecorded.
  EXPECT_EQ(profile.count(0), 0u);
  EXPECT_EQ(profile.recorded_count(), 1u);
}

}  // namespace
}  // namespace amdrel
