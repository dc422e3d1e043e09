// Golden-file test for the annealing walk outside the paper's additive
// timing flow: the energy and combined objectives, reconfiguration load
// pricing (with and without energy tracking), a non-stopping walk and a
// second seed, on the paper's OFDM and JPEG models at both Table-2/3
// platform areas.
//
// The sweep goldens only pin timing-objective walks with additive
// pricing, and energy_report.golden is greedy-only, so without this
// file nothing pins the walks whose proposals mutate and revert
// floating-point energy sums. Each line prints every StrategyResult
// field of one cell: moved blocks, the four cost terms, the stop index
// and both uphill counters. Regenerate only for a reviewed semantic
// change:
//   ./build/tests/anneal_determinism_test --regen
// then review the diff of tests/golden/anneal_report.golden.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/kernels.h"
#include "core/energy.h"
#include "core/strategy.h"
#include "workloads/paper_models.h"

#ifndef AMDREL_GOLDEN_DIR
#error "AMDREL_GOLDEN_DIR must be defined by the build"
#endif

namespace amdrel {
namespace {

struct Scenario {
  const char* name;
  core::ObjectiveKind objective;
  double reconfig_latency;  ///< bitstream cycles per unit; 0 = additive
  bool stop_when_met;
  std::uint64_t seed;
  core::KernelOrdering ordering;
};

const Scenario kScenarios[] = {
    {"energy", core::ObjectiveKind::kEnergy, 0, true, 1,
     core::KernelOrdering::kWeightDescending},
    {"combined", core::ObjectiveKind::kCombined, 0, true, 1,
     core::KernelOrdering::kWeightDescending},
    {"timing+reconfig", core::ObjectiveKind::kTiming, 3, true, 1,
     core::KernelOrdering::kWeightDescending},
    {"energy+reconfig", core::ObjectiveKind::kEnergy, 3, true, 1,
     core::KernelOrdering::kBenefitDescending},
    {"combined+reconfig nonstop seed7", core::ObjectiveKind::kCombined, 3,
     false, 7, core::KernelOrdering::kWeightDescending},
};

// Limits as fractions of the all-fine solution, so the ladder spans
// cells met within a few steps, cells met late and cells the walk never
// meets (which run the full budget).
const double kFractions[] = {0.9, 0.6, 0.45, 0.3, 0.02, 0.004};

std::string render_anneal_study() {
  std::ostringstream os;
  os.precision(17);
  const workloads::PaperApp apps[] = {workloads::build_ofdm_model(),
                                      workloads::build_jpeg_model()};
  for (const workloads::PaperApp& app : apps) {
    for (const double area : {1500.0, 5000.0}) {
      const platform::Platform p = platform::make_paper_platform(area, 2);
      for (const Scenario& scenario : kScenarios) {
        core::HybridMapper mapper(app.cdfg, p);
        core::MethodologyOptions options;
        options.strategy = core::StrategyKind::kAnnealing;
        options.ordering = scenario.ordering;
        options.cost.objective.kind = scenario.objective;
        options.cost.reconfig.bitstream_cycles_per_unit =
            scenario.reconfig_latency;
        options.cost.reconfig.prefetch_overlap = 0.5;
        options.stop_when_met = scenario.stop_when_met;
        options.random_seed = scenario.seed;

        const std::int64_t cycles = mapper.all_fine_cycles(app.profile);
        const double energy =
            core::estimate_energy(mapper, app.profile, {},
                                  options.cost.objective.energy)
                .total_pj();
        std::vector<core::AxisCell> cells;
        for (const double f : kFractions) {
          cells.push_back({static_cast<std::int64_t>(f * cycles), f * energy});
        }
        std::vector<analysis::KernelInfo> kernels =
            analysis::extract_kernels(app.cdfg, app.profile, options.analysis);
        if (scenario.ordering == core::KernelOrdering::kBenefitDescending) {
          std::stable_sort(kernels.begin(), kernels.end(),
                           [&](const auto& a, const auto& b) {
                             return mapper.move_benefit_cycles(a.block,
                                                               a.exec_freq) >
                                    mapper.move_benefit_cycles(b.block,
                                                               b.exec_freq);
                           });
        }
        const std::vector<core::StrategyResult> results =
            core::run_strategy(core::StrategyKind::kAnnealing,
                               {mapper, app.profile, options, kernels, cells});
        for (std::size_t c = 0; c < cells.size(); ++c) {
          const core::StrategyResult& r = results[c];
          os << app.cdfg.name() << " A=" << area << ' ' << scenario.name
             << " T=" << cells[c].timing_constraint
             << " B=" << cells[c].energy_budget_pj << ": "
             << r.engine_iterations << " step(s), uphill "
             << r.uphill_accepted << '/' << r.uphill_proposed << ", cost "
             << r.cost.t_fpga << '+' << r.cost.t_coarse << '+'
             << r.cost.t_comm << '+' << r.cost.t_reconfig << ", moved";
          if (r.moved.empty()) os << " (none)";
          for (const ir::BlockId block : r.moved) {
            os << ' ' << app.cdfg.block(block).name;
          }
          os << '\n';
        }
      }
    }
  }
  return os.str();
}

std::string golden_path() {
  return std::string(AMDREL_GOLDEN_DIR) + "/anneal_report.golden";
}

TEST(AnnealDeterminismTest, MatchesCommittedGolden) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with --regen to create it)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), render_anneal_study())
      << "annealing walks drifted from " << golden_path()
      << "; every rng draw and comparison must stay the same — "
         "regenerate with --regen only for a reviewed semantic change";
}

}  // namespace
}  // namespace amdrel

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      std::ofstream out(amdrel::golden_path(), std::ios::binary);
      out << amdrel::render_anneal_study();
      return out.good() ? 0 : 1;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
