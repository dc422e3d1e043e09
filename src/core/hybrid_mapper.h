#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coarsegrain/cgc_mapper.h"
#include "core/objective.h"
#include "finegrain/fpga_mapper.h"
#include "ir/cdfg.h"
#include "ir/profile.h"
#include "platform/platform.h"
#include "support/bitset.h"

namespace amdrel::core {

/// Cost of one fine/coarse split of the application: the three terms of
/// the paper's equation (2), all in FPGA clock cycles, plus the
/// configuration-load charge a platform::ReconfigModel adds on top of
/// the paper's additive pricing. t_reconfig is 0 when the model prices
/// no load latency, so total() — and every golden derived from it — is
/// unchanged when reconfiguration pricing is off.
struct SplitCost {
  std::int64_t t_fpga = 0;
  std::int64_t t_coarse = 0;
  std::int64_t t_comm = 0;
  std::int64_t t_reconfig = 0;
  std::int64_t total() const {
    return t_fpga + t_coarse + t_comm + t_reconfig;
  }
};

/// Snapshot of a HybridMapper's computed mappings, detached from the
/// (cdfg, platform) it was derived from. Only perfbench/perf_trace.cc
/// and tests take and restore these (SweepCache::find_mapper); the
/// sweep does not, and they go with ROADMAP item 2. Coarse mappings are
/// dense, indexed by block id; unscheduled blocks hold an empty
/// optional.
struct MapperState {
  std::vector<finegrain::FpgaBlockMapping> fine;
  std::vector<std::optional<coarsegrain::CgcBlockMapping>> coarse;
};

/// What a mapper knows of each block of one app regardless of the
/// platform, block-id indexed: Dfg::op_mix(), live_in_count() +
/// live_out_count(), size(), and the finegrain::LevelOrder both fine
/// mappers walk. One per app, shared by its mappers on every platform.
struct BlockFacts {
  explicit BlockFacts(const ir::Cdfg& cdfg);

  std::vector<ir::OpMix> op_mix;
  std::vector<std::int64_t> live_words;  ///< live-in + live-out count
  std::vector<ir::NodeId> node_count;
  std::vector<finegrain::LevelOrder> level_orders;
};

/// Every block's fine-grain mapping (paper Figure 3) on one FPGA and
/// memory model, with the invocation cycles and amortized
/// reconfiguration charge derived from it. Reads nothing of the CGC, so
/// one table serves every CGC count of an A_FPGA.
struct FineTables {
  /// Maps every block over facts' level orders. Throws Error when an
  /// operation exceeds fpga.usable_area.
  FineTables(const ir::Cdfg& cdfg, const BlockFacts& facts,
             const platform::FpgaModel& fpga,
             const platform::MemoryModel& memory);
  /// Adopts mappings computed earlier (the MapperState restore).
  FineTables(std::vector<finegrain::FpgaBlockMapping> mappings,
             const platform::FpgaModel& fpga);

  std::vector<finegrain::FpgaBlockMapping> fine;
  std::vector<std::int64_t> inv_cycles;        ///< cycles_per_invocation
  std::vector<std::int64_t> amortized_charge;  ///< amortized reconfig cycles
};

/// CGC schedules of one app's blocks on one CGC data-path, filled
/// lazily as blocks are first priced on the CGC. Reads nothing of the
/// FPGA, so one table serves every A_FPGA of a CGC count.
struct CoarseTables {
  explicit CoarseTables(std::size_t blocks)
      : coarse(blocks), inv_cycles(blocks, -1) {}

  std::vector<std::optional<coarsegrain::CgcBlockMapping>> coarse;
  std::vector<std::int64_t> inv_cycles;  ///< memo; -1 = unscheduled
};

/// Caches the fine-grain and coarse-grain mappings of every basic block of
/// one application on one platform, and prices arbitrary splits. The
/// partitioning engine re-evaluates the split after every kernel movement
/// (paper section 3.4); caching keeps that loop cheap and deterministic.
///
/// A mapper is a view over three tables: the app's BlockFacts, the
/// FineTables of its FPGA and memory, and the CoarseTables of its CGC
/// data-path, plus each block's communication cycles, the one array it
/// derives per platform. The two constructors below build all three
/// for this mapper alone. A sweep thread's core::AxisMemo instead
/// builds each table once per app and hands every platform of the app
/// a view over them (AxisMemo::mapper), so a block is mapped once per
/// FPGA and scheduled once per CGC count however many platforms share
/// them. Views share their CoarseTables, so a block one view schedules
/// is scheduled for all; the schedule is a function of the block and
/// the CGC model alone, so no price changes. Not copyable: a copy
/// would share those schedules without saying so.
///
/// Every per-block quantity the engine hot paths need is in a dense
/// array indexed by block id. Execution counts come from
/// ir::ProfileData, which is block-id indexed too, so split and energy
/// pricing never walk IR nodes or search a map.
class HybridMapper {
 public:
  HybridMapper(const ir::Cdfg& cdfg, const platform::Platform& platform);

  /// Restores a mapper from a state() snapshot taken for the SAME
  /// (cdfg, platform) content — the caller vouches via the snapshot's
  /// cache key; the block count and every block's per-node vector
  /// shapes are re-checked here, so a snapshot handed to the wrong
  /// mapper fails loudly instead of indexing out of bounds. Skips the
  /// per-block fine-grain mapping entirely, so construction is a copy.
  /// Not used by the sweep (see MapperState).
  HybridMapper(const ir::Cdfg& cdfg, const platform::Platform& platform,
               const MapperState& state);

  HybridMapper(const HybridMapper&) = delete;
  HybridMapper& operator=(const HybridMapper&) = delete;
  HybridMapper(HybridMapper&&) = default;
  HybridMapper& operator=(HybridMapper&&) = default;

  /// Copies out every computed mapping (fine mappings are complete after
  /// construction; coarse ones cover the blocks scheduled so far).
  MapperState state() const { return {fine_->fine, coarse_->coarse}; }

  const ir::Cdfg& cdfg() const { return *cdfg_; }
  const platform::Platform& platform() const { return *platform_; }

  /// The block's BlockFacts entries: Dfg::op_mix(), live_in_count() +
  /// live_out_count(), and size(). Each throws Error for a bad block id.
  const ir::OpMix& op_mix(ir::BlockId block) const {
    check_block(block, "op_mix");
    return facts_->op_mix[static_cast<std::size_t>(block)];
  }
  std::int64_t live_words(ir::BlockId block) const {
    check_block(block, "live_words");
    return facts_->live_words[static_cast<std::size_t>(block)];
  }
  ir::NodeId node_count(ir::BlockId block) const {
    check_block(block, "node_count");
    return facts_->node_count[static_cast<std::size_t>(block)];
  }

  const finegrain::FpgaBlockMapping& fine(ir::BlockId block) const;

  /// Lazily schedules `block` on the CGC data-path. Throws Error for a
  /// bad block id and for blocks the CGC cannot execute (divisions).
  const coarsegrain::CgcBlockMapping& coarse(ir::BlockId block);

  /// False for blocks holding a division, which the CGC cannot execute.
  /// Throws Error for a bad block id.
  bool cgc_eligible(ir::BlockId block) const { return op_mix(block).div == 0; }

  std::int64_t fine_cycles_per_invocation(ir::BlockId block) const;
  std::int64_t coarse_cycles_per_invocation(ir::BlockId block);

  /// Data moved between the two hardware types through the shared memory
  /// when `block` runs on the CGC: its live-ins and live-outs, per
  /// invocation (the t_comm contribution). Throws Error for a bad block
  /// id.
  std::int64_t comm_cycles_per_invocation(ir::BlockId block) const;

  /// The block's whole contribution to equation (4): invocation cycles
  /// times execution count plus its amortized reconfiguration charge.
  /// all_fine_cycles() is exactly the sum of this over every block, which
  /// is what makes O(1) split deltas exact.
  std::int64_t fine_contribution_cycles(ir::BlockId block,
                                        const ir::ProfileData& profile) const;

  /// Cycles saved by running `block` on the CGC for `exec_freq`
  /// invocations (fine minus coarse minus communication). The shared
  /// benefit model behind kBenefitDescending ordering and the search
  /// strategies' candidate ranking; zero for CGC-ineligible blocks.
  /// Throws Error for a bad block id.
  std::int64_t move_benefit_cycles(ir::BlockId block, std::uint64_t exec_freq);

  /// Cycles of the all-fine-grain solution (paper step 2).
  std::int64_t all_fine_cycles(const ir::ProfileData& profile) const;

 private:
  friend class AxisMemo;

  /// A view over tables built for `cdfg` and for `platform`'s FPGA,
  /// memory and CGC models (AxisMemo::mapper).
  HybridMapper(const ir::Cdfg& cdfg, const platform::Platform& platform,
               std::shared_ptr<const BlockFacts> facts,
               std::shared_ptr<const FineTables> fine,
               std::shared_ptr<CoarseTables> coarse);

  /// Throws Error naming `caller` unless `block` is an id of the CDFG.
  void check_block(ir::BlockId block, const char* caller) const {
    if (block < 0 || block >= cdfg_->size()) fail_bad_block(block, caller);
  }
  [[noreturn]] static void fail_bad_block(ir::BlockId block,
                                          const char* caller);

  const ir::Cdfg* cdfg_;
  const platform::Platform* platform_;
  std::shared_ptr<const BlockFacts> facts_;
  std::shared_ptr<const FineTables> fine_;
  std::shared_ptr<CoarseTables> coarse_;
  std::vector<std::int64_t> comm_inv_cycles_;  ///< live words * transfer cost
};

/// Incrementally-priced fine/coarse split. Starts at the all-fine-grain
/// solution and applies O(1) cost deltas on every move()/unmove(), so an
/// engine loop pays O(blocks) once at construction instead of per
/// candidate. cost() is bit-identical to pricing the same moved set from
/// scratch (all terms are integer and per-block additive).
///
/// The split state is a SmallBitset over block ids plus a movement-order
/// list; every per-block term (execution count, fine contribution,
/// communication cycles, lazily-resolved coarse cycles, energy) is
/// flattened into a dense array at construction, so move()/unmove() are
/// a handful of array reads and integer adds. The annealing walk prices
/// a flip with propose_flip() and settles it with accept_flip() or
/// reject_flip(); on the integer-exact path a proposal reads those
/// arrays without mutating the split.
///
/// Constructed with an objective that needs_energy(), the split also
/// tracks an EnergyBreakdown with the same O(1) per-move deltas: every
/// block's fine- and coarse-side contributions are priced once up front
/// (core/energy.h block_energy) and added/subtracted on movement. The
/// energy terms are per-block additive like the cycle terms, so the
/// incremental total equals a full estimate_energy repricing up to
/// floating-point summation order (within ulps; the property tests pin
/// this). Final reports always reprice via estimate_energy, so emitted
/// numbers are byte-deterministic regardless of the search path.
///
/// When spec.reconfig prices load latency (bitstream_cycles_per_unit >
/// 0) the split also maintains cost().t_reconfig, the charge defined in
/// platform/reconfig_model.h; otherwise it is the additive fast path
/// with no repricing work at all. The charge is NOT per-block additive
/// (region residency couples moved blocks), so each move/unmove exactly
/// reprices it over the moved-set window: the per-block load*iterations
/// sum stays incremental and only the top-R residency discount is
/// recomputed, O(|moved| log |moved|). A property test pins the result
/// against a from-scratch evaluation under random move/unmove churn.
class IncrementalSplit {
 public:
  /// Copies spec.objective; the split keeps no reference to `spec`.
  IncrementalSplit(HybridMapper& mapper, const ir::ProfileData& profile,
                   const ObjectiveSpec& spec = {});

  const SplitCost& cost() const { return cost_; }

  /// Running energy of the split; all-zero unless energy tracking was
  /// requested at construction.
  const EnergyBreakdown& energy() const { return energy_; }

  /// The scalar the construction objective minimizes for the current
  /// split (timing objective by default).
  double objective_value() const {
    return objective_.value(cost_.total(), energy_.total_pj());
  }

  /// The construction objective's constraint test on the current split.
  bool meets(std::int64_t timing_constraint, double energy_budget_pj) const {
    return objective_.met(cost_.total(), energy_.total_pj(),
                          timing_constraint, energy_budget_pj);
  }
  bool is_moved(ir::BlockId block) const;
  std::size_t moved_count() const { return order_.size(); }

  /// The moved blocks. Movement order is preserved as long as unmove()
  /// always targets the most recent move (the greedy engine's pattern);
  /// an unmove from the middle swaps the last entry into the gap, which
  /// keeps both operations O(1) for accepted annealing flips.
  const std::vector<ir::BlockId>& moved() const { return order_; }

  /// Reassigns `block` to the CGC data-path. Throws Error when the block
  /// is already moved or cannot execute on the CGC.
  void move(ir::BlockId block);

  /// Returns `block` to the fine-grain hardware. Throws Error when the
  /// block is not currently moved.
  void unmove(ir::BlockId block);

  /// Prices flipping `block` to the other side and returns the
  /// objective_value() the split would have after the flip; settle it
  /// with exactly one accept_flip() or reject_flip() before any other
  /// call. A block's coarse price resolves at its first proposal, as in
  /// move(). On the integer-exact path (no energy tracking, no
  /// reconfiguration load pricing) the proposal is
  /// total +/- (coarse + comm - fine contribution) and leaves the split
  /// untouched, so a rejected flip costs nothing. Otherwise it moves or
  /// unmoves now and reject_flip() reverts, so the energy sums pick up
  /// the same rounding a move-then-revert always has.
  double propose_flip(ir::BlockId block) {
    const auto b = static_cast<std::size_t>(block);
    pending_ = block;
    if (!exact_) {
      flip(block);
      return objective_value();
    }
    std::int64_t coarse = coarse_total_[b];
    if (coarse < 0) coarse = coarse_total_cycles(block);
    const std::int64_t delta = coarse + comm_total_[b] - fine_contrib_[b];
    // The exact path is the timing objective, whose value is the cycle
    // total as a double.
    return static_cast<double>(cost_.total() +
                               (moved_.test(b) ? -delta : delta));
  }

  /// Commits the pending flip.
  void accept_flip() {
    if (exact_) flip(pending_);
  }

  /// Drops the pending flip, leaving the split as before the proposal.
  void reject_flip() {
    if (!exact_) flip(pending_);
  }

  /// Appends the split-wide terms a walk reads, as raw bits: the
  /// starting cost and energy, the objective kind and weights, the
  /// resident PR regions and the block count.
  void append_walk_header(std::vector<std::uint64_t>& out) const;

  /// Appends, as raw bits, every per-block term a walk reads when it
  /// first moves or proposes `block`: fine contribution, communication,
  /// coarse total and execution count, then the block's energy terms
  /// when energy is tracked and its load and re-load saving when load
  /// latency is priced. Resolves the coarse price as move() does.
  void append_block_row(ir::BlockId block, std::vector<std::uint64_t>& out);

 private:
  /// unmove() when `block` is moved, move() otherwise.
  void flip(ir::BlockId block);

  std::int64_t coarse_total_cycles(ir::BlockId block);

  /// Recomputes the residency discount over the moved set and refreshes
  /// cost_.t_reconfig. Only called when the split prices reconfiguration.
  void reprice_reconfig();

  HybridMapper* mapper_;
  CostObjective objective_;
  SplitCost cost_;
  EnergyBreakdown energy_;
  std::vector<BlockEnergy> block_energy_;  ///< per block; empty when untracked

  // Dense per-block pricing tables, built once at construction.
  std::vector<std::int64_t> iters_;         ///< profile execution counts
  std::vector<std::int64_t> fine_contrib_;  ///< equation (4) contribution
  std::vector<std::int64_t> comm_total_;    ///< comm cycles * iterations
  std::vector<std::int64_t> coarse_total_;  ///< memo; -1 = not yet priced

  // Reconfiguration pricing tables, built only when the spec prices load
  // latency (all empty on the additive fast path).
  int resident_regions_ = 0;  ///< PR regions; 0 = additive pricing
  std::vector<std::int64_t> reconfig_load_;    ///< load cycles per block
  std::vector<std::int64_t> reconfig_saving_;  ///< load * (iterations - 1)
  std::int64_t reconfig_sum_ = 0;  ///< sum of load * iterations over moved
  std::vector<std::int64_t> reconfig_scratch_;  ///< top-R selection buffer

  SmallBitset moved_;                 ///< membership, block-id indexed
  std::vector<std::int32_t> pos_;     ///< position in order_; -1 = fine
  std::vector<ir::BlockId> order_;

  bool exact_ = false;        ///< proposals priced without mutating
  ir::BlockId pending_ = -1;  ///< block of the unsettled propose_flip()
};

}  // namespace amdrel::core
