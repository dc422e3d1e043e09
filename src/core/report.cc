#include "core/report.h"

#include <algorithm>

namespace amdrel::core {

using text::append;
using text::Fixed;
using text::General;
using text::Thousands;

TextTable::TextTable(const std::vector<std::string>& header) {
  add_row(header);
}

void TextTable::add_row(const std::vector<std::string>& row) {
  for (const std::string& text : row) cell(text);
  end_row();
}

std::string TextTable::to_string() const {
  auto begin = [&](std::size_t c) { return c == 0 ? 0 : cell_end_[c - 1]; };
  std::vector<std::size_t> width;
  std::size_t first = 0;
  for (const std::size_t last : row_end_) {
    if (width.size() < last - first) width.resize(last - first, 0);
    for (std::size_t c = first; c < last; ++c) {
      width[c - first] = std::max(width[c - first], cell_end_[c] - begin(c));
    }
    first = last;
  }
  std::string out;
  first = 0;
  for (std::size_t r = 0; r < row_end_.size(); ++r) {
    const std::size_t last = row_end_[r];
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t size = cell_end_[c] - begin(c);
      out.append(text_, begin(c), size);
      if (c + 1 < last) out.append(width[c - first] - size + 2, ' ');
    }
    out += '\n';
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t c = 0; c < width.size(); ++c) {
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
      }
      out.append(total, '-');
      out += '\n';
    }
    first = last;
  }
  return out;
}

std::string with_thousands(std::int64_t value) {
  return text::render(Thousands{value});
}

std::string describe(const PartitionReport& report, const ir::Cdfg& cdfg) {
  auto nj = [](double pj) { return Fixed{pj / 1000.0, 1}; };
  std::string out;
  append(out, "application: ", report.app, '\n');
  // Timing-objective reports keep the original byte-pinned layout; the
  // energy lines appear only when the run searched under an
  // energy-aware objective.
  const bool energy_aware = report.objective != ObjectiveKind::kTiming;
  if (energy_aware) {
    append(out, "objective: ", objective_name(report.objective),
           "\nenergy budget: ", nj(report.energy_budget_pj), " nJ\n");
  }
  append(out, "timing constraint: ", Thousands{report.timing_constraint},
         " cycles\nall-fine-grain (initial): ",
         Thousands{report.initial_cycles}, " cycles",
         report.initial_meets ? "  [already meets constraint]" : "", '\n');
  if (!report.initial_meets) {
    append(out, "kernels found: ", report.kernels_found,
           "\nmoved to CGC data-path:");
    for (ir::BlockId block : report.moved) {
      append(out, ' ', cdfg.block(block).name);
    }
    // The reconfiguration term appears only when a cost model priced it:
    // the additive model's reports — and every pre-v3 golden — keep the
    // exact three-term breakdown byte-for-byte.
    append(out, "\nfinal: ", Thousands{report.final_cycles},
           " cycles  (t_FPGA ", Thousands{report.cost.t_fpga},
           " + t_coarse ", Thousands{report.cost.t_coarse}, " + t_comm ",
           Thousands{report.cost.t_comm});
    if (report.cost.t_reconfig != 0) {
      append(out, " + t_reconfig ", Thousands{report.cost.t_reconfig});
    }
    out += ")\n";
    if (report.floorplan_cost != 0) {
      append(out, "floorplan cost: ", Fixed{report.floorplan_cost, 4}, '\n');
    }
    append(out, "cycle reduction: ", General{report.reduction_percent(), 3},
           "%\nconstraint ", report.met ? "met" : "NOT met", " after ",
           report.engine_iterations, " engine iteration(s)\n");
  }
  if (energy_aware) {
    append(out, "energy: ", nj(report.energy.total_pj()), " nJ (fine ",
           nj(report.energy.fine_pj), " + coarse ",
           nj(report.energy.coarse_pj), " + reconfig ",
           nj(report.energy.reconfig_pj), " + comm ",
           nj(report.energy.comm_pj), "), all-fine ",
           nj(report.initial_energy_pj), " nJ\nenergy reduction: ",
           General{report.energy_reduction_percent(), 3}, "%\n",
           report.objective == ObjectiveKind::kCombined
               ? "combined objective "
               : "energy budget ",
           report.met ? "met" : "NOT met", '\n');
  }
  return out;
}

}  // namespace amdrel::core
