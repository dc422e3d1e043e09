#include "core/sweep_io.h"

#include <ostream>

#include "core/strategy.h"
#include "support/text.h"

namespace amdrel::core {

using text::append;
using text::CsvField;
using text::Fixed;
using text::General;
using text::JsonEscaped;

namespace {

// %.10g keeps integral platform values ("1500", "2076") free of trailing
// zeros while round-tripping any realistic area exactly.
General area(double value) { return {value, 10}; }

// Percentages are strings in the emissions, fixed "%.2f".
Fixed percent(double value) { return {value, 2}; }

// Fixed four-decimal rendering for energy pJ values: enough to show the
// sub-pJ tail the models produce while staying byte-stable (no %g
// precision cliffs on 11-digit JPEG energies).
Fixed energy(double value) { return {value, 4}; }

template <typename T>
void append_index_list(std::string& out, const std::vector<T>& indices) {
  out += '[';
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i) out += ", ";
    append(out, indices[i]);
  }
  out += ']';
}

// The cell fields shared byte-for-byte by the merged artifact
// (sweep_to_json, which appends the pareto markers) and the partial
// NDJSON stream (write_partial_stream_shard, which has none): "app"
// through "engine_iterations", no braces, no trailing separator.
void append_cell_fields(std::string& out, const std::vector<std::string>& apps,
                        const SweepCell& cell) {
  const PartitionReport& r = cell.report;
  append(out, "\"app\": \"", JsonEscaped{apps[cell.app]},
         "\", \"a_fpga\": ", area(cell.a_fpga), ", \"cgcs\": ", cell.cgcs,
         ", \"platform_cost\": ", area(cell.platform_cost),
         ", \"constraint\": ", cell.constraint, ", \"strategy\": \"",
         strategy_name(cell.strategy), "\", \"ordering\": \"",
         kernel_ordering_name(cell.ordering), "\", \"objective\": \"",
         objective_name(r.objective), "\", \"energy_budget_pj\": ",
         energy(cell.energy_budget_pj), ", \"initial_cycles\": ",
         r.initial_cycles, ", \"final_cycles\": ", r.final_cycles,
         ", \"cycles_in_cgc\": ", r.cycles_in_cgc, ", \"t_fpga\": ",
         r.cost.t_fpga, ", \"t_coarse\": ", r.cost.t_coarse,
         ", \"t_comm\": ", r.cost.t_comm, ", \"reconfig_cycles\": ",
         r.cost.t_reconfig, ", \"floorplan_cost\": ", energy(r.floorplan_cost),
         ", \"initial_energy_pj\": ", energy(r.initial_energy_pj),
         ", \"energy_pj\": ", energy(r.energy.total_pj()), ", \"moved\": ",
         r.moved.size(), ", \"moved_blocks\": [");
  for (std::size_t m = 0; m < cell.moved_names.size(); ++m) {
    append(out, m ? ", \"" : "\"", JsonEscaped{cell.moved_names[m]}, '"');
  }
  append(out, "], \"met\": ", r.met, ", \"reduction_percent\": \"",
         percent(r.reduction_percent()), "\", \"energy_reduction_percent\": \"",
         percent(r.energy_reduction_percent()), "\", \"engine_iterations\": ",
         r.engine_iterations);
}

}  // namespace

std::string sweep_to_json(const SweepSummary& summary) {
  std::string out;
  append(out, "{\n  \"schema_version\": ", kSweepSchemaVersion,
         ",\n  \"generator\": \"amdrel\",\n  \"apps\": [");
  for (std::size_t i = 0; i < summary.apps.size(); ++i) {
    append(out, i ? ", \"" : "\"", JsonEscaped{summary.apps[i]}, '"');
  }
  out += "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& cell = summary.cells[i];
    out += "    {";
    append_cell_fields(out, summary.apps, cell);
    append(out, ", \"app_pareto\": ", cell.on_app_pareto,
           ", \"global_pareto\": ", cell.on_global_pareto,
           i + 1 < summary.cells.size() ? "},\n" : "}\n");
  }
  out += "  ],\n  \"app_pareto\": {";
  for (std::size_t app = 0; app < summary.apps.size(); ++app) {
    append(out, app ? ", \"" : "\"", JsonEscaped{summary.apps[app]}, "\": ");
    append_index_list(out, summary.app_pareto[app]);
  }
  out += "},\n  \"global_pareto\": ";
  append_index_list(out, summary.global_pareto);
  out += "\n}\n";
  return out;
}

std::string sweep_to_csv(const SweepSummary& summary) {
  std::string out =
      "app,a_fpga,cgcs,platform_cost,constraint,strategy,ordering,"
      "objective,energy_budget_pj,"
      "initial_cycles,final_cycles,cycles_in_cgc,t_fpga,t_coarse,t_comm,"
      "reconfig_cycles,floorplan_cost,"
      "initial_energy_pj,energy_pj,"
      "moved,moved_blocks,met,reduction_percent,energy_reduction_percent,"
      "engine_iterations,app_pareto,global_pareto\n";
  std::string blocks;
  for (const SweepCell& cell : summary.cells) {
    const PartitionReport& r = cell.report;
    blocks.clear();
    for (const std::string& name : cell.moved_names) {
      if (!blocks.empty()) blocks += ';';
      blocks += name;
    }
    append(out, CsvField{summary.apps[cell.app]}, ',', area(cell.a_fpga), ',',
           cell.cgcs, ',', area(cell.platform_cost), ',', cell.constraint, ',',
           strategy_name(cell.strategy), ',',
           kernel_ordering_name(cell.ordering), ',',
           objective_name(r.objective), ',', energy(cell.energy_budget_pj),
           ',', r.initial_cycles, ',', r.final_cycles, ',', r.cycles_in_cgc,
           ',', r.cost.t_fpga, ',', r.cost.t_coarse, ',', r.cost.t_comm, ',',
           r.cost.t_reconfig, ',', energy(r.floorplan_cost), ',',
           energy(r.initial_energy_pj), ',', energy(r.energy.total_pj()), ',',
           r.moved.size(), ',', CsvField{blocks}, ',', r.met, ',',
           percent(r.reduction_percent()), ',',
           percent(r.energy_reduction_percent()), ',', r.engine_iterations,
           ',', cell.on_app_pareto, ',', cell.on_global_pareto, '\n');
  }
  return out;
}

std::string cache_stats_to_json(const SweepCacheStats& stats) {
  const std::uint64_t lookups = stats.cell_hits + stats.cell_misses;
  const double rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cell_hits) /
                         static_cast<double>(lookups);
  return text::render(
      "{\n  \"schema_version\": ", kSweepCacheSchemaVersion,
      ",\n  \"generator\": \"amdrel\",\n  \"cell_hits\": ", stats.cell_hits,
      ",\n  \"cell_misses\": ", stats.cell_misses,
      ",\n  \"cell_hit_rate\": \"", percent(rate),
      "\",\n  \"mapper_restores\": ", stats.mapper_restores,
      ",\n  \"mapper_builds\": ", stats.mapper_builds,
      ",\n  \"all_fine_hits\": ", stats.all_fine_hits,
      ",\n  \"all_fine_misses\": ", stats.all_fine_misses,
      ",\n  \"cells\": ", stats.cells,
      ",\n  \"entries_loaded\": ", stats.entries_loaded,
      ",\n  \"lock_degraded\": ", stats.lock_degraded, "\n}\n");
}

void write_partial_stream_header(std::ostream& os, std::size_t shards) {
  os << text::render("{\"kind\":\"sweep_partial\",\"schema_version\":",
                     kSweepSchemaVersion,
                     ",\"generator\":\"amdrel\",\"shards\":", shards, "}\n");
  os.flush();
}

void write_partial_stream_shard(std::ostream& os,
                                const std::vector<std::string>& apps,
                                std::size_t shard, const SweepCell* cells,
                                std::size_t used) {
  std::string out;
  append(out, "{\"kind\":\"shard\",\"shard\":", shard, ",\"used\":", used,
         "}\n");
  for (std::size_t slot = 0; slot < used; ++slot) {
    append(out, "{\"kind\":\"cell\",\"shard\":", shard, ",\"slot\":", slot,
           ", ");
    append_cell_fields(out, apps, cells[slot]);
    out += "}\n";
  }
  // One write and a flush per shard: the whole point is that a reader
  // sees finished shards while the sweep is still running.
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  os.flush();
}

}  // namespace amdrel::core
