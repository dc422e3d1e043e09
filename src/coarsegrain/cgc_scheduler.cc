#include "coarsegrain/cgc_scheduler.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::coarsegrain {

namespace {

using ir::Dfg;
using ir::NodeId;
using ir::OpClass;
using ir::OpKind;

bool is_compute(OpKind kind) {
  const OpClass cls = ir::op_class(kind);
  return cls == OpClass::kAlu || cls == OpClass::kMul;
}

bool is_mem(OpKind kind) { return ir::op_class(kind) == OpClass::kMem; }

/// Occupancy grid of every CGC for the cycle currently being filled.
class CycleState {
 public:
  explicit CycleState(const platform::CgcModel& cgc)
      : cgc_(cgc),
        used_(static_cast<std::size_t>(cgc.count) * cgc.rows * cgc.cols,
              false) {}

  /// Finds a free cell with row >= min_row in CGC `c`; returns {row, col}
  /// 1-based or {-1, -1}. Prefers the shallowest row so later chained
  /// successors keep room to grow downwards.
  std::pair<int, int> find_cell(int c, int min_row) const {
    for (int row = min_row; row <= cgc_.rows; ++row) {
      for (int col = 1; col <= cgc_.cols; ++col) {
        if (!used_[index(c, row, col)]) return {row, col};
      }
    }
    return {-1, -1};
  }

  void occupy(int c, int row, int col) { used_[index(c, row, col)] = true; }

 private:
  std::size_t index(int c, int row, int col) const {
    return (static_cast<std::size_t>(c) * cgc_.rows + (row - 1)) * cgc_.cols +
           (col - 1);
  }

  const platform::CgcModel& cgc_;
  std::vector<bool> used_;
};

}  // namespace

CgcSchedule schedule_dfg_on_cgc(const ir::Dfg& dfg,
                                const platform::CgcModel& cgc) {
  require(!dfg.has_division(),
          "CGC scheduling: DFG contains a division/modulo, which the CGC "
          "data-path cannot execute");
  require(cgc.count > 0 && cgc.rows > 0 && cgc.cols > 0,
          "CGC scheduling: empty data-path");

  CgcSchedule sched;
  sched.start.assign(dfg.size(), -1);
  sched.finish.assign(dfg.size(), 0);
  sched.placement.assign(dfg.size(), CgcPlacement{});

  std::vector<bool> scheduled(dfg.size(), false);
  std::vector<NodeId> priority;      // ops needing a slot or port, by rank
  std::vector<NodeId> passthrough;   // copies, outputs, DMA-drained stores

  for (NodeId id = 0; id < dfg.size(); ++id) {
    const OpKind kind = dfg.node(id).kind;
    if (kind == OpKind::kConst || kind == OpKind::kInput) {
      scheduled[id] = true;
      sched.finish[id] = 0;
    } else if (kind == OpKind::kCopy || kind == OpKind::kOutput) {
      passthrough.push_back(id);
    } else if (is_compute(kind)) {
      priority.push_back(id);
    } else if (is_mem(kind)) {
      require(cgc.mem_ports > 0,
              "CGC scheduling: memory operation but the data-path has no "
              "shared-memory ports");
      sched.mem_accesses++;
      if (cgc.dma_memory) {
        if (kind == OpKind::kLoad) {
          // DMA-prefetched into the register bank before the kernel runs.
          scheduled[id] = true;
          sched.start[id] = 0;
          sched.finish[id] = 0;
        } else {
          // Stores drain afterwards; the value just has to be produced.
          passthrough.push_back(id);
        }
      } else {
        priority.push_back(id);
      }
    }
  }

  // Priority: smaller mobility (alap - asap) first, then shallower asap
  // level, then id — the classic critical-path list-scheduling order.
  const std::vector<int> asap = dfg.asap_levels();
  const std::vector<int> alap = dfg.alap_levels();
  std::sort(priority.begin(), priority.end(), [&](NodeId a, NodeId b) {
    const int ma = alap[a] - asap[a];
    const int mb = alap[b] - asap[b];
    if (ma != mb) return ma < mb;
    if (asap[a] != asap[b]) return asap[a] < asap[b];
    return a < b;
  });

  auto resolve_passthrough = [&] {
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId id : passthrough) {
        if (scheduled[id]) continue;
        const Dfg::Node& node = dfg.node(id);
        bool ready = true;
        std::int64_t t = 0;
        for (NodeId pred : node.operands()) {
          if (!scheduled[pred]) {
            ready = false;
            break;
          }
          t = std::max(t, sched.finish[pred]);
        }
        if (ready) {
          scheduled[id] = true;
          sched.start[id] = t;
          sched.finish[id] = t;
          changed = true;
        }
      }
    }
  };
  resolve_passthrough();

  std::vector<std::int64_t> port_free(
      static_cast<std::size_t>(std::max(cgc.mem_ports, 1)), 0);
  std::size_t remaining = priority.size();

  std::int64_t cycle = 0;
  constexpr std::int64_t kCycleGuard = 1 << 26;
  while (remaining > 0) {
    require(cycle < kCycleGuard,
            "CGC scheduling: cycle guard exceeded (dependency deadlock?)");
    CycleState state(cgc);

    for (NodeId id : priority) {
      if (scheduled[id]) continue;
      const Dfg::Node& node = dfg.node(id);

      // Readiness at `cycle`: every operand either finished by now, or —
      // for compute ops only — is a compute op started this very cycle we
      // can chain below (all such operands must sit in one CGC).
      bool ready = true;
      int chain_cgc = -1;
      int chain_min_row = 1;
      for (NodeId pred : node.operands()) {
        if (!scheduled[pred]) {
          ready = false;
          break;
        }
        if (sched.finish[pred] <= cycle) continue;
        const bool pred_chainable = cgc.enable_chaining &&
                                    is_compute(dfg.node(pred).kind) &&
                                    sched.start[pred] == cycle &&
                                    sched.placement[pred].bound();
        if (!is_compute(node.kind) || !pred_chainable) {
          ready = false;
          break;
        }
        const CgcPlacement& p = sched.placement[pred];
        if (chain_cgc == -1) chain_cgc = p.cgc;
        if (chain_cgc != p.cgc) {
          ready = false;  // cannot chain across two CGCs at once
          break;
        }
        chain_min_row = std::max(chain_min_row, p.row + 1);
      }
      if (!ready) continue;
      if (chain_min_row > cgc.rows) continue;  // chain too deep this cycle

      if (is_compute(node.kind)) {
        int placed_cgc = -1;
        std::pair<int, int> cell{-1, -1};
        if (chain_cgc != -1) {
          cell = state.find_cell(chain_cgc, chain_min_row);
          placed_cgc = chain_cgc;
        } else {
          for (int c = 0; c < cgc.count && cell.first == -1; ++c) {
            cell = state.find_cell(c, 1);
            placed_cgc = c;
          }
        }
        if (cell.first == -1) continue;  // no slot this cycle
        state.occupy(placed_cgc, cell.first, cell.second);
        scheduled[id] = true;
        sched.start[id] = cycle;
        sched.finish[id] = cycle + 1;
        sched.placement[id] = {placed_cgc, cell.first, cell.second};
        --remaining;
      } else {  // port-scheduled memory access (dma_memory == false)
        auto port = std::min_element(port_free.begin(), port_free.end());
        if (*port > cycle) continue;  // all ports busy
        scheduled[id] = true;
        sched.start[id] = cycle;
        sched.finish[id] = cycle + cgc.mem_access_cgc_cycles;
        *port = sched.finish[id];
        --remaining;
      }
    }
    resolve_passthrough();
    ++cycle;
  }
  resolve_passthrough();

  std::int64_t compute_latency = 0;
  for (NodeId id = 0; id < dfg.size(); ++id) {
    compute_latency = std::max(compute_latency, sched.finish[id]);
  }
  sched.total_cgc_cycles = compute_latency;
  if (cgc.dma_memory && sched.mem_accesses > 0) {
    const std::int64_t bursts =
        (sched.mem_accesses + cgc.mem_ports - 1) / cgc.mem_ports;
    sched.total_cgc_cycles += bursts * cgc.mem_access_cgc_cycles;
  }

  return sched;
}

}  // namespace amdrel::coarsegrain
