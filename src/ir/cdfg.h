#pragma once

#include <string>
#include <vector>

#include "ir/basic_block.h"

namespace amdrel::ir {

/// A natural loop discovered from a back edge latch->header.
struct Loop {
  BlockId header = kNoBlock;
  BlockId latch = kNoBlock;
  std::vector<BlockId> body;  ///< includes header and latch, sorted by id
};

/// Control-data flow graph: the model of computation the methodology
/// consumes (paper step 1). Blocks carry their DFGs; control edges connect
/// blocks. analyze_loops() computes immediate dominators, natural loops and
/// per-block nesting depth, which the analysis step uses to restrict
/// kernels to loop-resident blocks.
class Cdfg {
 public:
  explicit Cdfg(std::string name = "cdfg") : name_(std::move(name)) {}

  /// Appends an (empty) block and returns its id.
  BlockId add_block(std::string block_name = {});

  /// Makes room for `blocks` more blocks without reallocating.
  void reserve(BlockId blocks);

  /// Adds a control edge from -> to. Parallel edges are ignored.
  void add_edge(BlockId from, BlockId to);

  void set_entry(BlockId entry);
  BlockId entry() const { return entry_; }

  const std::string& name() const { return name_; }

  BlockId size() const { return static_cast<BlockId>(blocks_.size()); }
  BasicBlock& block(BlockId id);
  const BasicBlock& block(BlockId id) const;
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  const std::vector<BlockId>& successors(BlockId id) const;
  const std::vector<BlockId>& predecessors(BlockId id) const;

  /// Immediate dominator of every block (Cooper, Harvey & Kennedy, "A
  /// Simple, Fast Dominance Algorithm", over the reverse post-order).
  /// idom[entry] == entry; blocks unreachable from the entry get kNoBlock.
  std::vector<BlockId> immediate_dominators() const;

  /// Detects natural loops (back edge u->h with h dominating u) and fills
  /// every block's loop_depth with its nesting level. Returns the loops,
  /// sorted by header id. Call again after mutating the graph.
  const std::vector<Loop>& analyze_loops();
  const std::vector<Loop>& loops() const { return loops_; }

  /// Reverse post-order over blocks reachable from the entry.
  std::vector<BlockId> reverse_post_order() const;

  /// Throws Error if edges reference bad ids, the entry is unset/invalid,
  /// or any block's DFG fails validation.
  void validate() const;

 private:
  std::string name_;
  std::vector<BasicBlock> blocks_;
  std::vector<std::vector<BlockId>> succs_;
  std::vector<std::vector<BlockId>> preds_;
  std::vector<Loop> loops_;
  BlockId entry_ = kNoBlock;
};

}  // namespace amdrel::ir
