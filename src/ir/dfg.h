#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
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
///
/// Storage is flat per graph, with no heap block per node. A Node is a
/// trivially copyable record holding its (at most two) operand ids
/// inline. Labels live in one character pool, read through label(id).
/// Each node's users form a list threaded through its operand slots
/// (slot 2*user+k is operand k of `user`) in a per-node UseLinks array.
/// add_node appends to the lists, so users(id) walks them in ascending
/// user id. Nothing is filled lazily: a const Dfg is safe to read from
/// many threads.
class Dfg {
  /// A node's place in the use lists: the first and last operand slot that
  /// reads it, and for each of its own operand slots the next slot that
  /// reads the same value (kNoNode ends a list).
  struct UseLinks {
    NodeId first_use = kNoNode;
    NodeId last_use = kNoNode;
    NodeId next_use[2] = {kNoNode, kNoNode};
  };

 public:
  /// A contiguous run of node ids (a node's operands).
  class NodeIds {
   public:
    using value_type = NodeId;
    using iterator = const NodeId*;
    using const_iterator = const NodeId*;

    NodeIds(const NodeId* first, const NodeId* last)
        : first_(first), last_(last) {}
    const NodeId* begin() const { return first_; }
    const NodeId* end() const { return last_; }
    friend bool operator==(NodeIds a, NodeIds b);

   private:
    const NodeId* first_;
    const NodeId* last_;
  };

  struct Node {
    OpKind kind = OpKind::kConst;
    std::uint8_t operand_count = 0;
    int bit_width = 32;
    NodeId operand_ids[2] = {kNoNode, kNoNode};  ///< first operand_count used
    std::int64_t imm = 0;                        ///< value for kConst nodes

    NodeIds operands() const {
      return {operand_ids, operand_ids + operand_count};
    }
  };

  /// The users of one node in ascending id; a node that reads the same
  /// value twice appears twice.
  class Users {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = NodeId;

      iterator(const UseLinks* links, NodeId slot)
          : links_(links), slot_(slot) {}
      NodeId operator*() const { return slot_ >> 1; }
      iterator& operator++() {
        slot_ = links_[slot_ >> 1].next_use[slot_ & 1];
        return *this;
      }
      bool operator==(const iterator& o) const { return slot_ == o.slot_; }
      bool operator!=(const iterator& o) const { return slot_ != o.slot_; }

     private:
      const UseLinks* links_;
      NodeId slot_;
    };
    using value_type = NodeId;
    using const_iterator = iterator;

    Users(const UseLinks* links, NodeId first_slot)
        : links_(links), first_slot_(first_slot) {}
    iterator begin() const { return {links_, first_slot_}; }
    iterator end() const { return {links_, kNoNode}; }
    bool empty() const { return first_slot_ == kNoNode; }
    std::size_t size() const;
    friend bool operator==(const Users& a, const Users& b);

   private:
    const UseLinks* links_;
    NodeId first_slot_;
  };

  /// Appends a node. It takes at most two operands, and every operand id
  /// must be < the new node's id (this is what keeps the graph acyclic);
  /// violating either throws and leaves the graph unchanged.
  NodeId add_node(OpKind kind, std::initializer_list<NodeId> operands = {},
                  std::string_view label = {});

  /// Convenience: appends a kConst node with the given immediate value.
  NodeId add_const(std::int64_t value, std::string_view label = {});

  /// Makes room for `nodes` more nodes and `label_chars` more label
  /// characters without reallocating.
  void reserve(std::size_t nodes, std::size_t label_chars);

  NodeId size() const { return static_cast<NodeId>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }
  const Node& node(NodeId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Debugging aid (variable name, ...); empty when the node has none.
  std::string_view label(NodeId id) const;

  /// Ids of nodes that use `id` as an operand, in ascending order. The
  /// view, like label(id)'s, is valid until the next add_node.
  Users users(NodeId id) const;

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
  std::vector<UseLinks> links_;           ///< per node
  std::vector<std::uint32_t> label_end_;  ///< end of node i's label
  std::string label_chars_;               ///< every label, back to back
};

}  // namespace amdrel::ir
