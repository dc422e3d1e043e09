// The paper's result tables and this repository's ablation and extension
// studies, printed from the analytic OFDM and JPEG models:
//   - Table 1: ordered total weights of the basic blocks,
//   - Tables 2 and 3: OFDM and JPEG partitioning results over the
//     A_FPGA in {1500, 5000} x {two, three} 2x2 CGCs grid,
//   - Ablations A-E: kernel ordering, reconfiguration policy, area sweep,
//     fine-grain mapper and intra-CGC chaining,
//   - extension studies: energy, frame pipelining and the three
//     partitioning strategies.
// Every number is deterministic; the run takes a few tens of milliseconds.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/kernels.h"
#include "core/energy.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/strategy.h"
#include "finegrain/temporal_partitioner.h"
#include "platform/platform.h"
#include "synth/dfg_generator.h"
#include "workloads/paper_models.h"

namespace {

using namespace amdrel;

// ---- Table 1 ---------------------------------------------------------
// The 8 most computationally intensive basic blocks of each workload,
// with execution frequencies, operation weights and total weights
// (equation (1): total_weight = exec_freq * bb_weight; ALU weight 1,
// multiplier weight 2).

void print_table1(const workloads::PaperApp& app, const char* caption) {
  std::printf("%s\n", caption);
  const auto kernels = analysis::extract_kernels(app.cdfg, app.profile);
  core::TextTable table({"Basic Block no.", "Basic Block exec. freq.",
                         "Operations weight", "Total weight"});
  for (std::size_t i = 0; i < kernels.size() && i < 8; ++i) {
    const auto& k = kernels[i];
    table.add_row({app.cdfg.block(k.block).name.substr(2),
                   std::to_string(k.exec_freq),
                   std::to_string(k.op_weight),
                   std::to_string(k.total_weight)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Tables 2 and 3 --------------------------------------------------
// Partitioning results over the paper's grid. (The paper annotates
// Table 3's cycles as "x10^6"; its numbers are consistent only as
// "x10^3".)

/// One column of the paper's Table 2/3 grid: an A_FPGA value and a CGC
/// data-path size.
struct TableConfig {
  double a_fpga;
  int cgc_count;
};

const std::vector<TableConfig>& paper_grid() {
  static const std::vector<TableConfig> grid = {
      {1500, 2}, {1500, 3}, {5000, 2}, {5000, 3}};
  return grid;
}

/// Runs the methodology for one app over the paper's 2x2 experiment grid
/// and prints a table shaped like Table 2/3 (rows: initial cycles, CGC
/// count, cycles in CGC, moved blocks, final cycles, % reduction).
void print_paper_table(const workloads::PaperApp& app,
                              std::int64_t constraint,
                              const char* caption) {
  std::printf("%s (timing constraint: %s cycles)\n", caption,
              core::with_thousands(constraint).c_str());

  std::vector<core::PartitionReport> reports;
  for (const TableConfig& config : paper_grid()) {
    const platform::Platform p =
        platform::make_paper_platform(config.a_fpga, config.cgc_count);
    reports.push_back(
        core::run_methodology(app.cdfg, app.profile, p, constraint));
  }

  auto moved_names = [&](const core::PartitionReport& report) {
    std::string names;
    for (ir::BlockId block : report.moved) {
      if (!names.empty()) names += ", ";
      names += app.cdfg.block(block).name.substr(2);  // strip "BB"
    }
    return names.empty() ? std::string("-") : names;
  };

  core::TextTable table({"", "A=1500 2x2x2", "A=1500 3x2x2", "A=5000 2x2x2",
                         "A=5000 3x2x2"});
  table.add_row({"Initial cycles", core::with_thousands(reports[0].initial_cycles),
                 "(same)", core::with_thousands(reports[2].initial_cycles),
                 "(same)"});
  std::vector<std::string> row_cgc = {"Cycles in CGC"};
  std::vector<std::string> row_bb = {"BB no."};
  std::vector<std::string> row_final = {"Final cycles"};
  std::vector<std::string> row_red = {"% cycles reduction"};
  std::vector<std::string> row_met = {"Constraint met"};
  for (const auto& report : reports) {
    row_cgc.push_back(core::with_thousands(report.cycles_in_cgc));
    row_bb.push_back(moved_names(report));
    row_final.push_back(core::with_thousands(report.final_cycles));
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.1f", report.reduction_percent());
    row_red.push_back(buffer);
    row_met.push_back(report.met ? "yes" : "NO");
  }
  table.add_row(row_cgc);
  table.add_row(row_bb);
  table.add_row(row_final);
  table.add_row(row_red);
  table.add_row(row_met);
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Ablation E: intra-CGC operation chaining ------------------------
// The FPL'04 data-path lets a chain of dependent ops (e.g. multiply-add)
// finish within one T_CGC; disabling it forces every dependence across a
// cycle boundary. Reported: coarse-grain cycles of the paper kernels and
// the resulting Table-2/3 "cycles in CGC" totals.

void print_chaining_ablation(const workloads::PaperApp& app,
                             std::int64_t constraint, const char* caption) {
  std::printf("%s (A_FPGA=1500, two 2x2 CGCs)\n", caption);
  core::TextTable table({"chaining", "cycles in CGC", "final cycles",
                         "% reduction", "kernels moved"});
  for (const bool chaining : {true, false}) {
    platform::Platform p = platform::make_paper_platform(1500, 2);
    p.cgc.enable_chaining = chaining;
    const auto report =
        core::run_methodology(app.cdfg, app.profile, p, constraint);
    char red[32];
    std::snprintf(red, sizeof red, "%.1f", report.reduction_percent());
    table.add_row({chaining ? "on (FPL'04)" : "off",
                   core::with_thousands(report.cycles_in_cgc),
                   core::with_thousands(report.final_cycles), red,
                   std::to_string(report.moved.size())});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void print_per_kernel(const workloads::PaperApp& app, const char* caption,
                      const std::vector<std::string>& labels) {
  std::printf("%s: per-kernel CGC latency (T_CGC cycles / invocation)\n",
              caption);
  core::TextTable table({"kernel", "chaining on", "chaining off", "factor"});
  for (const auto& label : labels) {
    const ir::BlockId block = app.block_by_label(label);
    std::int64_t on = 0, off = 0;
    for (const bool chaining : {true, false}) {
      platform::Platform p = platform::make_paper_platform(1500, 2);
      p.cgc.enable_chaining = chaining;
      const auto mapping =
          coarsegrain::map_block_to_cgc(app.cdfg.block(block).dfg, p);
      (chaining ? on : off) = mapping.schedule.total_cgc_cycles;
    }
    char factor[16];
    std::snprintf(factor, sizeof factor, "%.2fx",
                  static_cast<double>(off) / static_cast<double>(on));
    table.add_row({label, std::to_string(on), std::to_string(off), factor});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Ablation D: fine-grain mapping algorithm ------------------------
// The paper's Figure-3 mapper packs strictly level by level; the
// list-packing alternative pulls ready later-level work into the open
// partition. Compares partition counts and all-FPGA cycles on the paper
// workloads and on synthetic DFG shapes.

void print_mapper_ablation(const workloads::PaperApp& app,
                           const char* caption) {
  std::printf("%s\n", caption);
  core::TextTable table({"A_FPGA", "mapper", "all-FPGA cycles",
                         "partitions (max/block)", "reconfigs/frame"});
  for (const double area : {1000.0, 1500.0, 2600.0}) {
    for (const auto mapper :
         {platform::FineMapper::kFigure3, platform::FineMapper::kListPacking}) {
      platform::Platform p = platform::make_paper_platform(area, 2);
      p.fpga.mapper = mapper;
      core::HybridMapper hybrid(app.cdfg, p);
      int max_partitions = 0;
      std::int64_t reconfigs = 0;
      for (const auto& block : app.cdfg.blocks()) {
        const auto& mapping = hybrid.fine(block.id);
        max_partitions = std::max(max_partitions,
                                  mapping.partitioning.num_partitions);
        reconfigs += mapping.reconfigs_per_invocation *
                     static_cast<std::int64_t>(app.profile.count(block.id));
      }
      table.add_row(
          {std::to_string(static_cast<int>(area)),
           mapper == platform::FineMapper::kFigure3 ? "Figure 3 (paper)"
                                                    : "list packing",
           core::with_thousands(hybrid.all_fine_cycles(app.profile)),
           std::to_string(max_partitions), core::with_thousands(reconfigs)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void print_synthetic_comparison() {
  // Fragmentation stress: multiplier-heavy DFGs on a fabric barely two
  // multipliers wide. When a mid-level multiplier overflows, Figure 3
  // permanently switches to the new partition, stranding small ALU ops
  // that would still have fit; list packing recovers them.
  std::printf("Multiplier-heavy synthetic DFGs, A_FPGA = 150 "
              "(mul area 60, alu area 12), 20 seeds per width:\n");
  core::TextTable table({"width", "Figure 3 partitions (total)",
                         "list packing partitions (total)"});
  platform::FpgaModel fpga;
  fpga.usable_area = 150;
  for (const int width : {2, 4, 8}) {
    int fig3_total = 0;
    int list_total = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      synth::DfgGenConfig config;
      config.alu_ops = 30;
      config.mul_ops = 12;
      config.load_ops = 6;
      config.store_ops = 2;
      config.target_width = width;
      config.seed = seed * 131 + width;
      const ir::Dfg dfg = synth::generate_dfg(config);
      fig3_total += finegrain::partition_dfg(dfg, fpga).num_partitions;
      list_total += finegrain::partition_dfg_list(dfg, fpga).num_partitions;
    }
    table.add_row({std::to_string(width), std::to_string(fig3_total),
                   std::to_string(list_total)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Ablation A: kernel ordering -------------------------------------
// How much does the paper's ordering (decreasing total weight) matter?
// Compares measured-benefit ordering, source order, random orders and
// the exhaustive optimum: kernels moved until the constraint is met and
// the final cycle count.

void print_ordering_ablation(const workloads::PaperApp& app,
                             std::int64_t constraint, const char* caption) {
  const auto p = platform::make_paper_platform(1500, 2);
  std::printf("%s (A_FPGA=1500, two 2x2 CGCs, constraint %s)\n", caption,
              core::with_thousands(constraint).c_str());

  core::TextTable table(
      {"ordering", "kernels moved", "final cycles", "% reduction", "met"});
  auto add = [&](const char* name, const core::PartitionReport& report) {
    char red[32];
    std::snprintf(red, sizeof red, "%.1f", report.reduction_percent());
    table.add_row({name, std::to_string(report.moved.size()),
                   core::with_thousands(report.final_cycles), red,
                   report.met ? "yes" : "no"});
  };

  core::MethodologyOptions options;
  for (const core::KernelOrdering ordering : core::all_kernel_orderings()) {
    options.ordering = ordering;
    if (ordering == core::KernelOrdering::kRandom) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        options.random_seed = seed;
        char name[32];
        std::snprintf(name, sizeof name, "%s (seed %llu)",
                      core::kernel_ordering_name(ordering),
                      static_cast<unsigned long long>(seed));
        add(name, core::run_methodology(app.cdfg, app.profile, p, constraint,
                                        options));
      }
      continue;
    }
    add(core::kernel_ordering_name(ordering),
        core::run_methodology(app.cdfg, app.profile, p, constraint, options));
  }

  // The fewest moves that meet the constraint (ties: fewest cycles) over
  // the 14 heaviest eligible kernels.
  core::MethodologyOptions exhaustive;
  exhaustive.strategy = core::StrategyKind::kExhaustive;
  exhaustive.exhaustive_max_kernels = 14;
  const auto optimal = core::run_methodology(app.cdfg, app.profile, p,
                                             constraint, exhaustive);
  if (optimal.met) add("exhaustive optimum", optimal);
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Ablation B: reconfiguration-charging policies -------------------
// The paper charges full reconfiguration per generated partition; this
// study shows how the all-FPGA baseline and the partitioning outcome move
// under the four policies the library models.

const char* policy_name(platform::ReconfigPolicy policy) {
  switch (policy) {
    case platform::ReconfigPolicy::kNone: return "none (idealized)";
    case platform::ReconfigPolicy::kSwitchOnly: return "switch-only (default)";
    case platform::ReconfigPolicy::kPerPartition: return "per partition";
    case platform::ReconfigPolicy::kAmortizedOnce: return "amortized once";
  }
  return "?";
}

void print_policy_ablation(const workloads::PaperApp& app,
                           std::int64_t constraint, const char* caption) {
  std::printf("%s (A_FPGA=1500, two 2x2 CGCs, constraint %s)\n", caption,
              core::with_thousands(constraint).c_str());
  core::TextTable table({"reconfig policy", "initial cycles", "final cycles",
                         "% reduction", "kernels moved"});
  for (const auto policy :
       {platform::ReconfigPolicy::kNone, platform::ReconfigPolicy::kSwitchOnly,
        platform::ReconfigPolicy::kPerPartition,
        platform::ReconfigPolicy::kAmortizedOnce}) {
    platform::Platform p = platform::make_paper_platform(1500, 2);
    p.fpga.reconfig_policy = policy;
    const auto report =
        core::run_methodology(app.cdfg, app.profile, p, constraint);
    char red[32];
    std::snprintf(red, sizeof red, "%.1f", report.reduction_percent());
    table.add_row({policy_name(policy),
                   core::with_thousands(report.initial_cycles),
                   core::with_thousands(report.final_cycles), red,
                   std::to_string(report.moved.size())});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Ablation C: cycle reduction as a function of A_FPGA -------------
// The paper's observation: "as the FPGA area grows, the reduction of
// clock cycles is smaller".

void print_area_sweep(const workloads::PaperApp& app, std::int64_t constraint,
                      const char* caption) {
  std::printf("%s (two 2x2 CGCs, constraint %s)\n", caption,
              core::with_thousands(constraint).c_str());
  core::TextTable table({"A_FPGA", "initial cycles", "final cycles",
                         "% reduction", "kernels moved", "met"});
  for (const double area :
       {1000.0, 1500.0, 2000.0, 2600.0, 3500.0, 5000.0, 8000.0}) {
    const auto p = platform::make_paper_platform(area, 2);
    const auto report =
        core::run_methodology(app.cdfg, app.profile, p, constraint);
    char red[32];
    std::snprintf(red, sizeof red, "%.1f", report.reduction_percent());
    table.add_row({std::to_string(static_cast<int>(area)),
                   core::with_thousands(report.initial_cycles),
                   core::with_thousands(report.final_cycles), red,
                   std::to_string(report.moved.size()),
                   report.met ? "yes" : "no"});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Extension: energy-constrained partitioning ----------------------
// Paper section 5's future work: the energy breakdown of the all-fine
// solution and of the timing- and energy-driven splits.

std::string njoule(double pj) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", pj / 1000.0);
  return buffer;
}

void print_energy_study(const workloads::PaperApp& app,
                        std::int64_t timing_constraint, const char* caption) {
  std::printf("%s\n", caption);
  core::TextTable table({"A_FPGA", "split", "fine nJ", "coarse nJ",
                         "reconfig nJ", "comm nJ", "total nJ", "vs all-fine"});
  for (const double area : {1500.0, 5000.0}) {
    const auto p = platform::make_paper_platform(area, 2);
    const auto all_fine =
        core::estimate_energy(app.cdfg, app.profile, p, {});

    auto add = [&](const char* name, const core::EnergyBreakdown& e) {
      char ratio[32];
      std::snprintf(ratio, sizeof ratio, "%.1f%%",
                    100.0 * e.total_pj() / all_fine.total_pj());
      table.add_row({std::to_string(static_cast<int>(area)), name,
                     njoule(e.fine_pj), njoule(e.coarse_pj),
                     njoule(e.reconfig_pj), njoule(e.comm_pj),
                     njoule(e.total_pj()), ratio});
    };
    add("all fine-grain", all_fine);

    const auto timing = core::run_methodology(app.cdfg, app.profile, p,
                                              timing_constraint);
    add("timing-driven split",
        core::estimate_energy(app.cdfg, app.profile, p, timing.moved));

    core::MethodologyOptions energy_options;
    energy_options.cost.objective.kind = core::ObjectiveKind::kEnergy;
    energy_options.cost.energy_budget_pj = all_fine.total_pj() * 0.5;
    const auto energy = core::run_methodology(
        app.cdfg, app.profile, p, /*timing_constraint=*/0, energy_options);
    add("energy-driven (50% budget)", energy.energy);
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Extension: frame pipelining -------------------------------------
// Paper section 3's utilization claim / section 5's ongoing work: the
// sequential vs pipelined makespan of the partitioned workloads as the
// frame count grows.

void print_pipeline_study(const workloads::PaperApp& app,
                          std::int64_t constraint, int max_frames,
                          const char* caption) {
  const auto p = platform::make_paper_platform(1500, 2);
  const auto report =
      core::run_methodology(app.cdfg, app.profile, p, constraint);
  std::printf("%s (after partitioning: fine %s + coarse %s + comm %s)\n",
              caption, core::with_thousands(report.cost.t_fpga).c_str(),
              core::with_thousands(report.cost.t_coarse).c_str(),
              core::with_thousands(report.cost.t_comm).c_str());
  core::TextTable table({"frames", "sequential", "pipelined", "speedup",
                         "fine util %", "coarse util %"});
  for (int frames = 1; frames <= max_frames; frames *= 2) {
    const auto estimate = core::estimate_pipeline(report, frames);
    char speedup[16], fu[16], cu[16];
    std::snprintf(speedup, sizeof speedup, "%.2fx", estimate.speedup());
    std::snprintf(fu, sizeof fu, "%.0f",
                  100.0 * estimate.fine_utilization());
    std::snprintf(cu, sizeof cu, "%.0f",
                  100.0 * estimate.coarse_utilization());
    table.add_row({std::to_string(frames),
                   core::with_thousands(estimate.sequential_cycles),
                   core::with_thousands(estimate.pipelined_cycles), speedup,
                   fu, cu});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---- Extension: the three partitioning strategies --------------------
// Solution quality of each PartitionStrategy on both workloads, and the
// number of splits each one priced.

void print_strategy_comparison(const workloads::PaperApp& app,
                               std::int64_t constraint, const char* caption) {
  const auto p = platform::make_paper_platform(1500, 2);
  std::printf("%s (A_FPGA=1500, two 2x2 CGCs, constraint %s)\n", caption,
              core::with_thousands(constraint).c_str());

  core::TextTable table({"strategy", "kernels moved", "final cycles",
                         "% reduction", "met", "splits priced"});
  core::HybridMapper mapper(app.cdfg, p);
  for (const core::StrategyKind strategy : core::all_strategies()) {
    core::MethodologyOptions options;
    options.strategy = strategy;
    const auto report =
        core::run_methodology(mapper, app.profile, constraint, options);
    char reduction[32];
    std::snprintf(reduction, sizeof reduction, "%.1f",
                  report.reduction_percent());
    table.add_row({core::strategy_name(strategy),
                   std::to_string(report.moved.size()),
                   core::with_thousands(report.final_cycles), reduction,
                   report.met ? "yes" : "no",
                   std::to_string(report.engine_iterations)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  const workloads::PaperApp ofdm = workloads::build_ofdm_model();
  const workloads::PaperApp jpeg = workloads::build_jpeg_model();

  std::printf("Table 1: Ordered total weights of basic blocks\n\n");
  print_table1(ofdm, "OFDM transmitter (6 payload symbols)");
  print_table1(jpeg, "JPEG encoder (256x256 image)");

  print_paper_table(ofdm, workloads::kOfdmTimingConstraint,
                    "Table 2: OFDM partitioning results");
  print_paper_table(jpeg, workloads::kJpegTimingConstraint,
                    "Table 3: JPEG partitioning results");

  print_chaining_ablation(ofdm, workloads::kOfdmTimingConstraint,
                          "Ablation E: chaining, OFDM");
  print_chaining_ablation(jpeg, workloads::kJpegTimingConstraint,
                          "Ablation E: chaining, JPEG");
  print_per_kernel(ofdm, "OFDM", {"BB22", "BB12", "BB3"});
  print_per_kernel(jpeg, "JPEG", {"BB6", "BB2", "BB1"});

  print_mapper_ablation(ofdm, "Ablation D: fine-grain mapper, OFDM");
  print_mapper_ablation(jpeg, "Ablation D: fine-grain mapper, JPEG");
  print_synthetic_comparison();

  print_ordering_ablation(ofdm, workloads::kOfdmTimingConstraint,
                          "Ablation A: kernel ordering, OFDM");
  print_ordering_ablation(jpeg, workloads::kJpegTimingConstraint,
                          "Ablation A: kernel ordering, JPEG");

  print_policy_ablation(ofdm, workloads::kOfdmTimingConstraint,
                        "Ablation B: reconfiguration policy, OFDM");
  print_policy_ablation(jpeg, workloads::kJpegTimingConstraint,
                        "Ablation B: reconfiguration policy, JPEG");

  print_area_sweep(ofdm, workloads::kOfdmTimingConstraint,
                   "Ablation C: area sweep, OFDM");
  print_area_sweep(jpeg, workloads::kJpegTimingConstraint,
                   "Ablation C: area sweep, JPEG");

  print_energy_study(ofdm, workloads::kOfdmTimingConstraint,
                     "Energy study, OFDM");
  print_energy_study(jpeg, workloads::kJpegTimingConstraint,
                     "Energy study, JPEG");

  print_pipeline_study(ofdm, workloads::kOfdmTimingConstraint, 64,
                       "Frame pipelining, OFDM (frames = OFDM symbols)");
  print_pipeline_study(jpeg, workloads::kJpegTimingConstraint, 64,
                       "Frame pipelining, JPEG (frames = block rows)");

  print_strategy_comparison(ofdm, workloads::kOfdmTimingConstraint,
                            "Strategy comparison, OFDM");
  print_strategy_comparison(jpeg, workloads::kJpegTimingConstraint,
                            "Strategy comparison, JPEG");
  return 0;
}
