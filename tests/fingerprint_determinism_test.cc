// Golden-file stability test for CDFG fingerprints: the digests of the
// four builtin workloads (the paper-calibrated OFDM/JPEG models and the
// compiled-and-profiled FIR/Sobel MiniC sources) are pinned
// byte-for-byte in tests/golden/fingerprints.golden. Persistent sweep
// caches are addressed by these digests, so an accidental change to the
// mixing or the hashed field set silently invalidates (or worse,
// mis-hits) every cache — this test turns that into an explicit,
// reviewed event, exactly like the sweep schema goldens:
//   ./build/tests/fingerprint_determinism_test --regen
// then review the diff and bump kFingerprintAlgorithmVersion when the
// change is intentional.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/fingerprint.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "support/text.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

#ifndef AMDREL_GOLDEN_DIR
#error "AMDREL_GOLDEN_DIR must be defined by the build"
#endif

namespace amdrel {
namespace {

struct NamedApp {
  std::string name;
  ir::Cdfg cdfg{"app"};
  ir::ProfileData profile;
};

NamedApp compiled_app(const std::string& name, const std::string& source) {
  NamedApp app;
  app.name = name;
  ir::TacProgram tac = minic::compile(source, name);
  interp::Interpreter interp(tac);
  const auto run = interp.run(/*max_instructions=*/4'000'000'000ULL);
  app.profile = run.profile;
  app.cdfg = ir::build_cdfg(tac);
  return app;
}

std::vector<NamedApp> builtin_apps() {
  std::vector<NamedApp> apps;
  for (const char* name : {"ofdm", "jpeg"}) {
    NamedApp app;
    app.name = name;
    workloads::PaperApp model = std::string(name) == "ofdm"
                                    ? workloads::build_ofdm_model()
                                    : workloads::build_jpeg_model();
    app.cdfg = std::move(model.cdfg);
    app.profile = std::move(model.profile);
    apps.push_back(std::move(app));
  }
  apps.push_back(compiled_app("fir", workloads::fir_source()));
  apps.push_back(compiled_app("sobel", workloads::sobel_source()));
  return apps;
}

// One line per workload: "<name> cdfg=<hex> profile=<hex> app=<hex>".
std::string render_fingerprints() {
  std::ostringstream os;
  os << "fingerprint_algorithm " << core::kFingerprintAlgorithmVersion
     << "\n";
  for (const NamedApp& app : builtin_apps()) {
    os << app.name << " cdfg=" << text::render(core::fingerprint(app.cdfg))
       << " profile=" << text::render(core::fingerprint(app.profile))
       << " app="
       << text::render(core::app_fingerprint(app.cdfg, app.profile))
       << "\n";
  }
  return os.str();
}

std::string golden_path() {
  return std::string(AMDREL_GOLDEN_DIR) + "/fingerprints.golden";
}

TEST(FingerprintDeterminismTest, MatchesCommittedGolden) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with --regen to create it)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), render_fingerprints())
      << "builtin workload fingerprints drifted from " << golden_path()
      << "; if intentional, bump kFingerprintAlgorithmVersion (persistent "
         "caches must not survive an algorithm change), regenerate with "
         "--regen and review the diff";
}

TEST(FingerprintDeterminismTest, RepeatedRendersAreByteIdentical) {
  EXPECT_EQ(render_fingerprints(), render_fingerprints());
}

}  // namespace
}  // namespace amdrel

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      std::ofstream out(amdrel::golden_path(), std::ios::binary);
      out << amdrel::render_fingerprints();
      return out.good() ? 0 : 1;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
