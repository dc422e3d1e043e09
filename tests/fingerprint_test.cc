// Content-addressed fingerprinting (core/fingerprint.h): determinism,
// sensitivity (any semantic mutation of a CDFG, profile, platform or
// option set changes the digest) and the hex round-trip the persistent
// sweep cache keys on. The builtin workloads' exact digests are pinned
// separately by fingerprint_determinism_test's golden file.

#include "core/fingerprint.h"

#include <set>

#include <gtest/gtest.h>

#include "support/text.h"
#include "synth/cdfg_generator.h"
#include "test_helpers.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

TEST(FingerprintTest, HexRoundTrip) {
  Fingerprint fp;
  fp.hi = 0x0123456789abcdefULL;
  fp.lo = 0xfedcba9876543210ULL;
  EXPECT_EQ(text::render(fp), "0123456789abcdeffedcba9876543210");
  const auto parsed = Fingerprint::from_hex(text::render(fp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);
  EXPECT_EQ(text::render(Fingerprint{0, 0xabcdef}),
            "00000000000000000000000000abcdef");
}

TEST(FingerprintTest, FromHexIsStrict) {
  EXPECT_FALSE(Fingerprint::from_hex("").has_value());
  EXPECT_FALSE(Fingerprint::from_hex("0123").has_value());
  // 31 and 33 chars.
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789abcdeffedcba987654321").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789abcdeffedcba98765432100").has_value());
  // Uppercase and non-hex are rejected (the writer emits lowercase only).
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789ABCDEFFEDCBA9876543210").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789abcdeffedcba987654321g").has_value());
}

TEST(FingerprintTest, MixerSeparatesConcatenations) {
  // Length-prefixed strings: ("ab","c") and ("a","bc") must differ.
  Fingerprinter a;
  a.mix("ab");
  a.mix("c");
  Fingerprinter b;
  b.mix("a");
  b.mix("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintTest, RebuiltModelsDigestIdentically) {
  EXPECT_EQ(app_fingerprint(workloads::build_ofdm_model().cdfg,
                            workloads::build_ofdm_model().profile),
            app_fingerprint(workloads::build_ofdm_model().cdfg,
                            workloads::build_ofdm_model().profile));
  EXPECT_EQ(fingerprint(workloads::build_jpeg_model().cdfg),
            fingerprint(workloads::build_jpeg_model().cdfg));
}

TEST(FingerprintTest, DistinctAppsDigestDistinctly) {
  const auto ofdm = workloads::build_ofdm_model();
  const auto jpeg = workloads::build_jpeg_model();
  EXPECT_NE(fingerprint(ofdm.cdfg), fingerprint(jpeg.cdfg));
  EXPECT_NE(fingerprint(ofdm.profile), fingerprint(jpeg.profile));
  EXPECT_NE(app_fingerprint(ofdm.cdfg, ofdm.profile),
            app_fingerprint(jpeg.cdfg, jpeg.profile));
}

TEST(FingerprintTest, DfgMutationsChangeDigest) {
  ir::Dfg base;
  const ir::NodeId in = base.add_node(ir::OpKind::kInput);
  const ir::NodeId c = base.add_const(7);
  const ir::NodeId add = base.add_node(ir::OpKind::kAdd, {in, c});
  base.add_node(ir::OpKind::kOutput, {add});
  const Fingerprint fp = fingerprint(base);

  {  // Changed op kind.
    ir::Dfg m;
    const ir::NodeId i = m.add_node(ir::OpKind::kInput);
    const ir::NodeId k = m.add_const(7);
    const ir::NodeId op = m.add_node(ir::OpKind::kMul, {i, k});
    m.add_node(ir::OpKind::kOutput, {op});
    EXPECT_NE(fingerprint(m), fp);
  }
  {  // Changed immediate.
    ir::Dfg m;
    const ir::NodeId i = m.add_node(ir::OpKind::kInput);
    const ir::NodeId k = m.add_const(8);
    const ir::NodeId op = m.add_node(ir::OpKind::kAdd, {i, k});
    m.add_node(ir::OpKind::kOutput, {op});
    EXPECT_NE(fingerprint(m), fp);
  }
  {  // Changed operand wiring (same node multiset).
    ir::Dfg m;
    const ir::NodeId i = m.add_node(ir::OpKind::kInput);
    const ir::NodeId k = m.add_const(7);
    const ir::NodeId op = m.add_node(ir::OpKind::kAdd, {k, i});
    m.add_node(ir::OpKind::kOutput, {op});
    EXPECT_NE(fingerprint(m), fp);
  }
  {  // Extra node.
    ir::Dfg m;
    const ir::NodeId i = m.add_node(ir::OpKind::kInput);
    const ir::NodeId k = m.add_const(7);
    const ir::NodeId op = m.add_node(ir::OpKind::kAdd, {i, k});
    m.add_node(ir::OpKind::kOutput, {op});
    m.add_const(0);
    EXPECT_NE(fingerprint(m), fp);
  }
  {  // Labels are documentation, not content.
    ir::Dfg m;
    const ir::NodeId i = m.add_node(ir::OpKind::kInput, {}, "renamed");
    const ir::NodeId k = m.add_const(7, "imm");
    const ir::NodeId op = m.add_node(ir::OpKind::kAdd, {i, k}, "sum");
    m.add_node(ir::OpKind::kOutput, {op});
    EXPECT_EQ(fingerprint(m), fp);
  }
}

// Builds the same small two-block loop CDFG every call; `mutate` selects
// one structural tweak.
enum class CdfgTweak {
  kNone,
  kRenameBlock,
  kRenameGraph,
  kExtraEdge,
  kExtraBlock,
  kMoveEntry,
  kNodeKind,
};

ir::Cdfg make_cdfg(CdfgTweak tweak) {
  ir::Cdfg cdfg(tweak == CdfgTweak::kRenameGraph ? "other" : "app");
  const ir::BlockId entry = cdfg.add_block("entry");
  const ir::BlockId body =
      cdfg.add_block(tweak == CdfgTweak::kRenameBlock ? "BB9" : "BB1");
  const ir::BlockId exit = cdfg.add_block("exit");
  ir::Dfg& dfg = cdfg.block(body).dfg;
  const ir::NodeId in = dfg.add_node(ir::OpKind::kInput);
  const ir::NodeId op = dfg.add_node(
      tweak == CdfgTweak::kNodeKind ? ir::OpKind::kSub : ir::OpKind::kAdd,
      {in, dfg.add_const(1)});
  dfg.add_node(ir::OpKind::kOutput, {op});
  cdfg.add_edge(entry, body);
  cdfg.add_edge(body, body);
  cdfg.add_edge(body, exit);
  if (tweak == CdfgTweak::kExtraEdge) cdfg.add_edge(entry, exit);
  if (tweak == CdfgTweak::kExtraBlock) cdfg.add_block("BB2");
  cdfg.set_entry(tweak == CdfgTweak::kMoveEntry ? body : entry);
  return cdfg;
}

TEST(FingerprintTest, CdfgMutationsChangeDigest) {
  const Fingerprint base = fingerprint(make_cdfg(CdfgTweak::kNone));
  EXPECT_EQ(base, fingerprint(make_cdfg(CdfgTweak::kNone)));
  for (const CdfgTweak tweak :
       {CdfgTweak::kRenameBlock, CdfgTweak::kRenameGraph,
        CdfgTweak::kExtraEdge, CdfgTweak::kExtraBlock, CdfgTweak::kMoveEntry,
        CdfgTweak::kNodeKind}) {
    EXPECT_NE(fingerprint(make_cdfg(tweak)), base)
        << "tweak " << static_cast<int>(tweak);
  }
}

TEST(FingerprintTest, ProfileWeightChangesDigest) {
  ir::ProfileData a;
  a.set_count(1, 100);
  a.set_count(2, 7);
  ir::ProfileData b;
  b.set_count(1, 100);
  b.set_count(2, 8);
  ir::ProfileData c;
  c.set_count(1, 100);
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
  EXPECT_EQ(fingerprint(a), fingerprint(a));
}

TEST(FingerprintTest, PlatformFieldsChangeDigest) {
  const platform::Platform base = platform::make_paper_platform(1500, 2);
  std::set<Fingerprint> seen;
  seen.insert(fingerprint(base));
  ASSERT_EQ(test::platform_field_edits().size(), 26u);
  for (const test::PlatformFieldEdit& edit : test::platform_field_edits()) {
    platform::Platform p = base;
    edit.edit(p);
    EXPECT_TRUE(seen.insert(fingerprint(p)).second) << edit.field;
  }
}

TEST(FingerprintTest, OptionFieldsChangeDigest) {
  const MethodologyOptions base;
  std::set<Fingerprint> seen;
  seen.insert(fingerprint(base));

  MethodologyOptions o;
  o.strategy = StrategyKind::kExhaustive;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "strategy";

  o = MethodologyOptions{};
  o.ordering = KernelOrdering::kRandom;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "ordering";

  o = MethodologyOptions{};
  o.random_seed = 42;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "seed";

  o = MethodologyOptions{};
  o.stop_when_met = false;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "stop_when_met";

  o = MethodologyOptions{};
  o.anneal_iterations += 1;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "anneal_iterations";

  o = MethodologyOptions{};
  o.analysis.weights.mul = 3;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "analysis weights";

  // The cost objective is part of the key: two runs that differ only in
  // objective kind, an energy price, a combined weight or the energy
  // budget must never alias the same cached cell.
  o = MethodologyOptions{};
  o.cost.objective.kind = ObjectiveKind::kEnergy;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "objective kind";

  o = MethodologyOptions{};
  o.cost.objective.kind = ObjectiveKind::kCombined;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "combined kind";

  o = MethodologyOptions{};
  o.cost.objective.energy.cgc_mul_pj += 0.5;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "energy model price";

  o = MethodologyOptions{};
  o.cost.objective.energy.reconfiguration_pj += 1.0;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "reconfig price";

  o = MethodologyOptions{};
  o.cost.objective.energy_weight = 2.0;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "energy weight";

  o = MethodologyOptions{};
  o.cost.objective.cycle_weight = 0.5;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "cycle weight";

  o = MethodologyOptions{};
  o.cost.energy_budget_pj = 1.0e6;
  EXPECT_TRUE(seen.insert(fingerprint(o)).second) << "energy budget";
}

TEST(FingerprintTest, CellKeySeparatesEveryAxis) {
  const auto ofdm = workloads::build_ofdm_model();
  const auto jpeg = workloads::build_jpeg_model();
  const Fingerprint app_a = app_fingerprint(ofdm.cdfg, ofdm.profile);
  const Fingerprint app_b = app_fingerprint(jpeg.cdfg, jpeg.profile);
  const Fingerprint plat_a =
      fingerprint(platform::make_paper_platform(1500, 2));
  const Fingerprint plat_b =
      fingerprint(platform::make_paper_platform(5000, 2));
  MethodologyOptions options;

  std::set<Fingerprint> keys;
  EXPECT_TRUE(keys.insert(cell_key(app_a, plat_a, options, 60000)).second);
  EXPECT_TRUE(keys.insert(cell_key(app_b, plat_a, options, 60000)).second);
  EXPECT_TRUE(keys.insert(cell_key(app_a, plat_b, options, 60000)).second);
  EXPECT_TRUE(keys.insert(cell_key(app_a, plat_a, options, 60001)).second);
  options.strategy = StrategyKind::kAnnealing;
  EXPECT_TRUE(keys.insert(cell_key(app_a, plat_a, options, 60000)).second);
  // Shard keys live in a different domain than cell keys.
  EXPECT_TRUE(keys.insert(shard_key(app_a, plat_a)).second);
}

TEST(FingerprintTest, SyntheticAppsNoCollisionsAcrossSeeds) {
  // 64 generated apps; any digest collision here would say the mixing is
  // badly broken (2^128 space, 64 samples).
  std::set<Fingerprint> seen;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    synth::CdfgGenConfig config;
    config.segments = 3;
    config.seed = seed;
    const synth::SyntheticApp app = synth::generate_app(config);
    EXPECT_TRUE(seen.insert(app_fingerprint(app.cdfg, app.profile)).second)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace amdrel::core
