#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/op.h"

namespace amdrel::ir {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Per-class operation counts of a DFG; the analysis step turns this into
/// the paper's bb_weight.
struct OpMix {
  std::int64_t alu = 0;
  std::int64_t mul = 0;
  std::int64_t div = 0;
  std::int64_t mem = 0;
  std::int64_t meta = 0;
};

/// Data-flow graph of one basic block. Nodes are operations; edges are
/// value dependencies (operand lists). The graph is a DAG by construction:
/// operands must reference already-created nodes, so node ids form a
/// topological order.
class Dfg {
 public:
  struct Node {
    OpKind kind = OpKind::kConst;
    std::vector<NodeId> operands;
    std::string label;              ///< debugging aid (variable name, ...)
    std::int64_t imm = 0;           ///< value for kConst nodes
    int bit_width = 32;
  };

  /// Appends a node. Every operand id must be < the new node's id (this is
  /// what keeps the graph acyclic); violating it throws.
  NodeId add_node(OpKind kind, std::vector<NodeId> operands = {},
                  std::string label = {});

  /// Convenience: appends a kConst node with the given immediate value.
  NodeId add_const(std::int64_t value, std::string label = {});

  NodeId size() const { return static_cast<NodeId>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }
  const Node& node(NodeId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Ids of nodes that use `id` as an operand.
  const std::vector<NodeId>& users(NodeId id) const;

  /// ASAP level per node (paper section 3.2): schedulable nodes with no
  /// schedulable predecessor get level 1; otherwise 1 + max(pred level).
  /// Structural nodes (input/const/output) get level 0. All nodes at the
  /// same level are free of mutual dependencies and may run in parallel.
  std::vector<int> asap_levels() const;

  /// ALAP level per node, in the same 1..max ASAP level range; the
  /// difference alap-asap is a node's mobility (list-scheduling priority).
  std::vector<int> alap_levels() const;

  OpMix op_mix() const;

  /// Count of kInput nodes: values this block consumes from outside
  /// (used for the fine<->coarse communication cost model).
  int live_in_count() const;

  /// Count of nodes marked as producing values consumed outside the block
  /// (kOutput markers).
  int live_out_count() const;

  /// True if the block contains a division/modulo, which the CGC
  /// data-path cannot execute (its nodes hold a multiplier and an ALU).
  bool has_division() const;

  /// Throws Error when internal invariants are broken (bad operand ids,
  /// output markers with != 1 operand, ...). Cheap; used liberally in
  /// tests and at module boundaries.
  void validate() const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> users_;
};

}  // namespace amdrel::ir
