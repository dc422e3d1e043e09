// Golden pin of every persisted-format version constant (core/schema.h).
// These values key on-disk artifacts, cache files and the sweep-service
// wire: a bump must be an explicit, reviewed event, so changing one
// requires touching this file in the same commit (and regenerating the
// corresponding goldens / invalidating caches).

#include "core/schema.h"

#include <gtest/gtest.h>

namespace amdrel {
namespace {

TEST(SchemaVersionTest, FingerprintAlgorithmVersionIsPinned) {
  // v3: MethodologyOptions fingerprints cover the reconfiguration model.
  EXPECT_EQ(core::kFingerprintAlgorithmVersion, 4);
}

TEST(SchemaVersionTest, SweepArtifactSchemaVersionIsPinned) {
  // v3: cells carry reconfig_cycles and floorplan_cost columns.
  EXPECT_EQ(core::kSweepSchemaVersion, 3);
}

TEST(SchemaVersionTest, SweepCacheSchemaVersionIsPinned) {
  // v6: only all_fine and cell lines; no mapper lines or gen stamps.
  EXPECT_EQ(core::kSweepCacheSchemaVersion, 6);
}

TEST(SchemaVersionTest, SweepWireProtocolVersionIsPinned) {
  // v5: one grammar; a round ends at its last assigned shard.
  EXPECT_EQ(core::kSweepWireProtocolVersion, 5);
}

}  // namespace
}  // namespace amdrel
