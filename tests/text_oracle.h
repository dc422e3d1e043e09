// The reference text writers the sweep's appender-based writers are
// tested against: every cache, wire and emission writer as it was when
// each line went through a std::ostream (`<<` chains, snprintf into
// temporary strings, one ostringstream per line), kept verbatim so the
// appender is pinned to the original bytes. The describe() of one
// methodology run, which moved to the appender with them, is here too.
// Only the names changed: the writers live in namespace oracle, and
// SweepCache::save's rendering and ordering are lifted out of the class
// into oracle::cache_file over explicit lines. The cache-file writer
// follows the current schema (no "generation", "gen" stamps, mapper
// lines or eviction).
//
// Two original defects are kept too, so the tests steer around them:
//   - with_thousands negates its argument, so INT64_MIN must never reach
//     it (or describe);
//   - the %.4f / %.2f / %.1f conversions write into 64- and 32-byte
//     buffers, which snprintf truncates for magnitudes past about 1e28
//     (table and percentages) or 1e58 (energies). The appender prints
//     such numbers in full; no sweep produces them.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/explorer.h"
#include "core/json_lines.h"
#include "core/schema.h"
#include "core/strategy.h"
#include "core/sweep_cache.h"
#include "core/wire.h"
#include "ir/cdfg.h"

namespace amdrel::oracle {

using core::CachedCell;
using core::Fingerprint;
using core::PartitionReport;
using core::SweepCacheStats;
using core::SweepCell;
using core::SweepSummary;
using core::jsonl::double_to_bits;

// --- support/strings.h --------------------------------------------------

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- core/fingerprint.cc ------------------------------------------------

inline std::string to_hex(const Fingerprint& fp) {
  char buffer[33];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buffer;
}

// --- core/sweep_cache.cc ------------------------------------------------

template <typename T>
void write_int_array(std::ostream& os, const std::vector<T>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    os << values[i];
  }
  os << ']';
}

inline void write_cell_payload(std::ostream& os, const PartitionReport& r,
                               const std::vector<std::string>& moved_names) {
  os << "\"app\":\"" << json_escape(r.app) << "\","
     << "\"constraint\":" << r.timing_constraint << ","
     << "\"objective\":" << static_cast<int>(r.objective) << ","
     << "\"energy_budget_bits\":" << double_to_bits(r.energy_budget_pj)
     << ","
     << "\"initial_cycles\":" << r.initial_cycles << ","
     << "\"initial_energy_bits\":" << double_to_bits(r.initial_energy_pj)
     << ","
     << "\"initial_meets\":" << (r.initial_meets ? "true" : "false") << ","
     << "\"kernels_found\":" << r.kernels_found << ","
     << "\"moved\":";
  write_int_array(os, r.moved);
  os << ",\"moved_names\":[";
  for (std::size_t i = 0; i < moved_names.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(moved_names[i]) << '"';
  }
  os << "],\"t_fpga\":" << r.cost.t_fpga << ","
     << "\"t_coarse\":" << r.cost.t_coarse << ","
     << "\"t_comm\":" << r.cost.t_comm << ","
     << "\"t_reconfig\":" << r.cost.t_reconfig << ","
     << "\"floorplan_bits\":" << double_to_bits(r.floorplan_cost) << ","
     << "\"final_cycles\":" << r.final_cycles << ","
     << "\"cycles_in_cgc\":" << r.cycles_in_cgc << ","
     << "\"energy_bits\":[" << double_to_bits(r.energy.fine_pj) << ","
     << double_to_bits(r.energy.coarse_pj) << ","
     << double_to_bits(r.energy.reconfig_pj) << ","
     << double_to_bits(r.energy.comm_pj) << "],"
     << "\"met\":" << (r.met ? "true" : "false") << ","
     << "\"engine_iterations\":" << r.engine_iterations;
}

/// One cache entry line as SweepCache::save renders it, with the kind
/// and key its ordering uses.
struct CacheLine {
  int order;  ///< 0 all_fine, 1 cell
  Fingerprint key;
  std::string text;
};

template <typename Write>
CacheLine cache_line(const char* name, int order, const Fingerprint& key,
                     Write&& write) {
  std::ostringstream os;
  os << "{\"kind\":\"" << name << "\",\"key\":\"" << to_hex(key) << "\",";
  write(os);
  os << "}\n";
  return CacheLine{order, key, os.str()};
}

inline CacheLine all_fine_line(const Fingerprint& key, std::int64_t cycles) {
  return cache_line("all_fine", 0, key,
                    [&](std::ostream& os) { os << "\"cycles\":" << cycles; });
}

inline CacheLine cell_line(const Fingerprint& key, const CachedCell& cell) {
  return cache_line("cell", 1, key, [&](std::ostream& os) {
    write_cell_payload(os, cell.report, cell.moved_names);
  });
}

/// The file SweepCache::save writes for these entry lines: the header,
/// then the lines by kind and key.
inline std::string cache_file(std::vector<CacheLine> lines) {
  std::ostringstream header_os;
  header_os << "{\"kind\":\"header\",\"schema_version\":"
            << core::kSweepCacheSchemaVersion << ",\"fingerprint_algorithm\":"
            << core::kFingerprintAlgorithmVersion
            << ",\"generator\":\"amdrel\"}\n";
  std::sort(lines.begin(), lines.end(),
            [](const CacheLine& a, const CacheLine& b) {
              return std::tie(a.order, a.key) < std::tie(b.order, b.key);
            });
  std::string content = header_os.str();
  for (const CacheLine& line : lines) content += line.text;
  return content;
}

// --- core/wire.cc -------------------------------------------------------

inline void encode_header(std::ostream& os, const core::wire::Header& header) {
  os << "{\"kind\":\"wire_header\",\"protocol\":" << header.protocol
     << ",\"schema_version\":" << header.schema_version
     << ",\"fingerprint_algorithm\":" << header.fingerprint_algorithm
     << ",\"shards\":" << header.shards << "}\n";
}

inline void encode_shard_begin(std::ostream& os,
                               const core::wire::ShardBegin& shard) {
  os << "{\"kind\":\"shard\",\"shard\":" << shard.shard
     << ",\"used\":" << shard.used << "}\n";
}

inline void encode_cell(std::ostream& os, std::size_t shard, std::size_t slot,
                        const PartitionReport& report,
                        const std::vector<std::string>& moved_names) {
  os << "{\"kind\":\"cell\",\"shard\":" << shard << ",\"slot\":" << slot
     << ",";
  write_cell_payload(os, report, moved_names);
  os << "}\n";
}

inline void encode_worker_done(std::ostream& os,
                               const core::wire::WorkerDone& done) {
  os << "{\"kind\":\"worker_done\",\"cells\":" << done.cells << "}\n";
}

inline std::string encode_assign(const core::wire::Assign& assign) {
  std::ostringstream os;
  os << "{\"kind\":\"assign\",\"shards\":[";
  for (std::size_t i = 0; i < assign.shards.size(); ++i) {
    if (i) os << ',';
    os << assign.shards[i];
  }
  os << "]}\n";
  return os.str();
}

// --- core/sweep_io.cc ---------------------------------------------------

inline std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

inline std::string format_percent(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

inline std::string format_energy(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.4f", value);
  return buffer;
}

inline std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

template <typename T>
void append_index_list(std::ostringstream& os, const std::vector<T>& indices) {
  os << '[';
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i) os << ", ";
    os << indices[i];
  }
  os << ']';
}

inline void append_cell_fields(std::ostream& os,
                               const std::vector<std::string>& apps,
                               const SweepCell& cell) {
  using core::kernel_ordering_name;
  using core::objective_name;
  using core::strategy_name;
  os << "\"app\": \"" << json_escape(apps[cell.app]) << "\", "
     << "\"a_fpga\": " << format_double(cell.a_fpga) << ", "
     << "\"cgcs\": " << cell.cgcs << ", "
     << "\"platform_cost\": " << format_double(cell.platform_cost) << ", "
     << "\"constraint\": " << cell.constraint << ", "
     << "\"strategy\": \"" << strategy_name(cell.strategy) << "\", "
     << "\"ordering\": \"" << kernel_ordering_name(cell.ordering) << "\", "
     << "\"objective\": \"" << objective_name(cell.report.objective)
     << "\", "
     << "\"energy_budget_pj\": " << format_energy(cell.energy_budget_pj)
     << ", "
     << "\"initial_cycles\": " << cell.report.initial_cycles << ", "
     << "\"final_cycles\": " << cell.report.final_cycles << ", "
     << "\"cycles_in_cgc\": " << cell.report.cycles_in_cgc << ", "
     << "\"t_fpga\": " << cell.report.cost.t_fpga << ", "
     << "\"t_coarse\": " << cell.report.cost.t_coarse << ", "
     << "\"t_comm\": " << cell.report.cost.t_comm << ", "
     << "\"reconfig_cycles\": " << cell.report.cost.t_reconfig << ", "
     << "\"floorplan_cost\": " << format_energy(cell.report.floorplan_cost)
     << ", "
     << "\"initial_energy_pj\": "
     << format_energy(cell.report.initial_energy_pj) << ", "
     << "\"energy_pj\": " << format_energy(cell.report.energy.total_pj())
     << ", "
     << "\"moved\": " << cell.report.moved.size() << ", "
     << "\"moved_blocks\": [";
  for (std::size_t m = 0; m < cell.moved_names.size(); ++m) {
    if (m) os << ", ";
    os << '"' << json_escape(cell.moved_names[m]) << '"';
  }
  os << "], "
     << "\"met\": " << (cell.report.met ? "true" : "false") << ", "
     << "\"reduction_percent\": \""
     << format_percent(cell.report.reduction_percent()) << "\", "
     << "\"energy_reduction_percent\": \""
     << format_percent(cell.report.energy_reduction_percent()) << "\", "
     << "\"engine_iterations\": " << cell.report.engine_iterations;
}

inline std::string sweep_to_json(const SweepSummary& summary) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << core::kSweepSchemaVersion << ",\n";
  os << "  \"generator\": \"amdrel\",\n";
  os << "  \"apps\": [";
  for (std::size_t i = 0; i < summary.apps.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json_escape(summary.apps[i]) << '"';
  }
  os << "],\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& cell = summary.cells[i];
    os << "    {";
    append_cell_fields(os, summary.apps, cell);
    os << ", "
       << "\"app_pareto\": " << (cell.on_app_pareto ? "true" : "false")
       << ", "
       << "\"global_pareto\": " << (cell.on_global_pareto ? "true" : "false")
       << '}' << (i + 1 < summary.cells.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"app_pareto\": {";
  for (std::size_t app = 0; app < summary.apps.size(); ++app) {
    if (app) os << ", ";
    os << '"' << json_escape(summary.apps[app]) << "\": ";
    append_index_list(os, summary.app_pareto[app]);
  }
  os << "},\n";
  os << "  \"global_pareto\": ";
  append_index_list(os, summary.global_pareto);
  os << "\n}\n";
  return os.str();
}

inline std::string sweep_to_csv(const SweepSummary& summary) {
  using core::kernel_ordering_name;
  using core::objective_name;
  using core::strategy_name;
  std::ostringstream os;
  os << "app,a_fpga,cgcs,platform_cost,constraint,strategy,ordering,"
        "objective,energy_budget_pj,"
        "initial_cycles,final_cycles,cycles_in_cgc,t_fpga,t_coarse,t_comm,"
        "reconfig_cycles,floorplan_cost,"
        "initial_energy_pj,energy_pj,"
        "moved,moved_blocks,met,reduction_percent,energy_reduction_percent,"
        "engine_iterations,app_pareto,global_pareto\n";
  for (const SweepCell& cell : summary.cells) {
    std::string blocks;
    for (const std::string& name : cell.moved_names) {
      if (!blocks.empty()) blocks += ';';
      blocks += name;
    }
    blocks = csv_escape(blocks);
    os << csv_escape(summary.apps[cell.app]) << ','
       << format_double(cell.a_fpga) << ','
       << cell.cgcs << ',' << format_double(cell.platform_cost) << ','
       << cell.constraint << ',' << strategy_name(cell.strategy) << ','
       << kernel_ordering_name(cell.ordering) << ','
       << objective_name(cell.report.objective) << ','
       << format_energy(cell.energy_budget_pj) << ','
       << cell.report.initial_cycles << ',' << cell.report.final_cycles << ','
       << cell.report.cycles_in_cgc << ',' << cell.report.cost.t_fpga << ','
       << cell.report.cost.t_coarse << ',' << cell.report.cost.t_comm << ','
       << cell.report.cost.t_reconfig << ','
       << format_energy(cell.report.floorplan_cost) << ','
       << format_energy(cell.report.initial_energy_pj) << ','
       << format_energy(cell.report.energy.total_pj()) << ','
       << cell.report.moved.size() << ',' << blocks << ','
       << (cell.report.met ? "true" : "false") << ','
       << format_percent(cell.report.reduction_percent()) << ','
       << format_percent(cell.report.energy_reduction_percent()) << ','
       << cell.report.engine_iterations << ','
       << (cell.on_app_pareto ? "true" : "false") << ','
       << (cell.on_global_pareto ? "true" : "false") << '\n';
  }
  return os.str();
}

inline std::string cache_stats_to_json(const SweepCacheStats& stats) {
  const std::uint64_t lookups = stats.cell_hits + stats.cell_misses;
  const double rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cell_hits) /
                         static_cast<double>(lookups);
  char rate_text[32];
  std::snprintf(rate_text, sizeof rate_text, "%.2f", rate);
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << core::kSweepCacheSchemaVersion << ",\n";
  os << "  \"generator\": \"amdrel\",\n";
  os << "  \"cell_hits\": " << stats.cell_hits << ",\n";
  os << "  \"cell_misses\": " << stats.cell_misses << ",\n";
  os << "  \"cell_hit_rate\": \"" << rate_text << "\",\n";
  os << "  \"mapper_restores\": " << stats.mapper_restores << ",\n";
  os << "  \"mapper_builds\": " << stats.mapper_builds << ",\n";
  os << "  \"all_fine_hits\": " << stats.all_fine_hits << ",\n";
  os << "  \"all_fine_misses\": " << stats.all_fine_misses << ",\n";
  os << "  \"cells\": " << stats.cells << ",\n";
  os << "  \"entries_loaded\": " << stats.entries_loaded << ",\n";
  os << "  \"lock_degraded\": " << stats.lock_degraded << "\n";
  os << "}\n";
  return os.str();
}

inline void write_partial_stream_header(std::ostream& os, std::size_t shards) {
  os << "{\"kind\":\"sweep_partial\",\"schema_version\":"
     << core::kSweepSchemaVersion
     << ",\"generator\":\"amdrel\",\"shards\":" << shards << "}\n";
  os.flush();
}

inline void write_partial_stream_shard(std::ostream& os,
                                       const std::vector<std::string>& apps,
                                       std::size_t shard,
                                       const SweepCell* cells,
                                       std::size_t used) {
  os << "{\"kind\":\"shard\",\"shard\":" << shard << ",\"used\":" << used
     << "}\n";
  for (std::size_t slot = 0; slot < used; ++slot) {
    os << "{\"kind\":\"cell\",\"shard\":" << shard << ",\"slot\":" << slot
       << ", ";
    append_cell_fields(os, apps, cells[slot]);
    os << "}\n";
  }
  os.flush();
}

// --- core/report.cc -----------------------------------------------------

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header) {
    rows_.push_back(std::move(header));
  }
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  std::string to_string() const {
    std::vector<std::size_t> width;
    for (const auto& row : rows_) {
      if (width.size() < row.size()) width.resize(row.size(), 0);
      for (std::size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    std::ostringstream os;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        os << rows_[r][c];
        if (c + 1 < rows_[r].size()) {
          os << std::string(width[c] - rows_[r][c].size() + 2, ' ');
        }
      }
      os << "\n";
      if (r == 0) {
        std::size_t total = 0;
        for (std::size_t c = 0; c < width.size(); ++c) {
          total += width[c] + (c + 1 < width.size() ? 2 : 0);
        }
        os << std::string(total, '-') << "\n";
      }
    }
    return os.str();
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

inline std::string with_thousands(std::int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

inline std::string describe(const PartitionReport& report,
                            const ir::Cdfg& cdfg) {
  using core::ObjectiveKind;
  using core::objective_name;
  std::ostringstream os;
  os << "application: " << report.app << "\n";
  const bool energy_aware = report.objective != ObjectiveKind::kTiming;
  if (energy_aware) {
    char budget[64];
    std::snprintf(budget, sizeof budget, "%.1f",
                  report.energy_budget_pj / 1000.0);
    os << "objective: " << objective_name(report.objective) << "\n";
    os << "energy budget: " << budget << " nJ\n";
  }
  os << "timing constraint: " << with_thousands(report.timing_constraint)
     << " cycles\n";
  os << "all-fine-grain (initial): " << with_thousands(report.initial_cycles)
     << " cycles" << (report.initial_meets ? "  [already meets constraint]" : "")
     << "\n";
  if (!report.initial_meets) {
    os << "kernels found: " << report.kernels_found << "\n";
    os << "moved to CGC data-path:";
    for (ir::BlockId block : report.moved) {
      os << " " << cdfg.block(block).name;
    }
    os << "\n";
    os << "final: " << with_thousands(report.final_cycles)
       << " cycles  (t_FPGA " << with_thousands(report.cost.t_fpga)
       << " + t_coarse " << with_thousands(report.cost.t_coarse)
       << " + t_comm " << with_thousands(report.cost.t_comm);
    if (report.cost.t_reconfig != 0) {
      os << " + t_reconfig " << with_thousands(report.cost.t_reconfig);
    }
    os << ")\n";
    if (report.floorplan_cost != 0) {
      char floorplan[64];
      std::snprintf(floorplan, sizeof floorplan, "%.4f",
                    report.floorplan_cost);
      os << "floorplan cost: " << floorplan << "\n";
    }
    os << "cycle reduction: ";
    os.precision(3);
    os << report.reduction_percent() << "%\n";
    os << "constraint " << (report.met ? "met" : "NOT met") << " after "
       << report.engine_iterations << " engine iteration(s)\n";
  }
  if (energy_aware) {
    auto nj = [](double pj) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.1f", pj / 1000.0);
      return std::string(buffer);
    };
    os << "energy: " << nj(report.energy.total_pj()) << " nJ (fine "
       << nj(report.energy.fine_pj) << " + coarse "
       << nj(report.energy.coarse_pj) << " + reconfig "
       << nj(report.energy.reconfig_pj) << " + comm "
       << nj(report.energy.comm_pj) << "), all-fine "
       << nj(report.initial_energy_pj) << " nJ\n";
    os << "energy reduction: ";
    os.precision(3);
    os << report.energy_reduction_percent() << "%\n";
    os << (report.objective == ObjectiveKind::kCombined
               ? "combined objective "
               : "energy budget ")
       << (report.met ? "met" : "NOT met") << "\n";
  }
  return os.str();
}

// --- core/explorer.cc ---------------------------------------------------

inline std::string describe(const SweepSummary& summary) {
  using core::kernel_ordering_name;
  using core::strategy_name;
  TextTable table({"app", "A_FPGA", "CGCs", "constraint", "strategy",
                   "ordering", "moved", "final cycles", "% reduction",
                   "energy nJ", "met", "pareto"});
  std::size_t on_app_front = 0;
  for (const SweepCell& cell : summary.cells) {
    on_app_front += cell.on_app_pareto ? 1 : 0;
    char area[32];
    std::snprintf(area, sizeof area, "%g", cell.a_fpga);
    char reduction[32];
    std::snprintf(reduction, sizeof reduction, "%.1f",
                  cell.report.reduction_percent());
    char energy[32];
    std::snprintf(energy, sizeof energy, "%.1f",
                  cell.report.energy.total_pj() / 1000.0);
    table.add_row({summary.apps[cell.app], area, std::to_string(cell.cgcs),
                   with_thousands(cell.constraint),
                   strategy_name(cell.strategy),
                   kernel_ordering_name(cell.ordering),
                   std::to_string(cell.report.moved.size()),
                   with_thousands(cell.report.final_cycles), reduction,
                   energy, cell.report.met ? "yes" : "no",
                   cell.on_global_pareto ? "**"
                   : cell.on_app_pareto  ? "*"
                                         : ""});
  }
  std::ostringstream os;
  os << table.to_string();
  os << on_app_front << " of " << summary.cells.size()
     << " cells on a per-app pareto front, " << summary.global_pareto.size()
     << " on the merged global front "
     << "(final cycles vs kernels moved vs platform cost vs energy)\n";
  return os.str();
}

}  // namespace amdrel::oracle
