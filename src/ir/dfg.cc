#include "ir/dfg.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::ir {

NodeId Dfg::add_node(OpKind kind, std::vector<NodeId> operands,
                     std::string label) {
  const NodeId id = size();
  for (NodeId operand : operands) {
    require(operand >= 0 && operand < id,
            "Dfg::add_node: operand ", operand,
            " out of range for new node ", id);
  }
  Node node;
  node.kind = kind;
  node.operands = std::move(operands);
  node.label = std::move(label);
  nodes_.push_back(std::move(node));
  users_.emplace_back();
  for (NodeId operand : nodes_.back().operands) {
    users_[operand].push_back(id);
  }
  return id;
}

NodeId Dfg::add_const(std::int64_t value, std::string label) {
  const NodeId id = add_node(OpKind::kConst, {}, std::move(label));
  nodes_[id].imm = value;
  return id;
}

const Dfg::Node& Dfg::node(NodeId id) const {
  require(id >= 0 && id < size(), "Dfg::node: bad id ", id);
  return nodes_[id];
}

const std::vector<NodeId>& Dfg::users(NodeId id) const {
  require(id >= 0 && id < size(), "Dfg::users: bad id ", id);
  return users_[id];
}

std::vector<int> Dfg::asap_levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (NodeId id = 0; id < size(); ++id) {
    const Node& n = nodes_[id];
    if (!is_schedulable(n.kind)) continue;
    int max_pred = 0;
    for (NodeId operand : n.operands) {
      max_pred = std::max(max_pred, level[operand]);
    }
    level[id] = max_pred + 1;
  }
  return level;
}

std::vector<int> Dfg::alap_levels() const {
  const std::vector<int> asap = asap_levels();
  const int depth =
      asap.empty() ? 0 : *std::max_element(asap.begin(), asap.end());
  std::vector<int> level(nodes_.size(), 0);
  // Walk in reverse topological (= reverse id) order.
  for (NodeId id = size() - 1; id >= 0; --id) {
    const Node& n = nodes_[id];
    if (!is_schedulable(n.kind)) continue;
    int min_succ = depth + 1;
    for (NodeId user : users_[id]) {
      if (!is_schedulable(nodes_[user].kind)) continue;
      min_succ = std::min(min_succ, level[user]);
    }
    level[id] = min_succ - 1;
  }
  return level;
}

OpMix Dfg::op_mix() const {
  OpMix mix;
  for (const Node& n : nodes_) {
    switch (op_class(n.kind)) {
      case OpClass::kAlu: mix.alu++; break;
      case OpClass::kMul: mix.mul++; break;
      case OpClass::kDiv: mix.div++; break;
      case OpClass::kMem: mix.mem++; break;
      case OpClass::kMeta: mix.meta++; break;
    }
  }
  return mix;
}

int Dfg::live_in_count() const {
  int count = 0;
  for (const Node& n : nodes_) {
    if (n.kind == OpKind::kInput) count++;
  }
  return count;
}

int Dfg::live_out_count() const {
  int count = 0;
  for (const Node& n : nodes_) {
    if (n.kind == OpKind::kOutput) count++;
  }
  return count;
}

bool Dfg::has_division() const {
  return std::any_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return op_class(n.kind) == OpClass::kDiv;
  });
}

void Dfg::validate() const {
  for (NodeId id = 0; id < size(); ++id) {
    const Node& n = nodes_[id];
    for (NodeId operand : n.operands) {
      require(operand >= 0 && operand < id,
              "Dfg::validate: node ", id, " has bad operand ", operand);
    }
    switch (n.kind) {
      case OpKind::kConst:
      case OpKind::kInput:
        require(n.operands.empty(),
                "Dfg::validate: source node ", id, " has operands");
        break;
      case OpKind::kOutput:
        require(n.operands.size() == 1,
                "Dfg::validate: output node ", id,
                " must have exactly one operand");
        break;
      case OpKind::kNot:
      case OpKind::kNeg:
      case OpKind::kCopy:
        require(n.operands.size() == 1,
                "Dfg::validate: unary node ", id, " arity != 1");
        break;
      case OpKind::kLoad:
        require(n.operands.size() == 1,
                "Dfg::validate: load node ", id,
                " must have exactly one (address) operand");
        break;
      case OpKind::kStore:
        require(n.operands.size() == 2,
                "Dfg::validate: store node ", id,
                " must have (address, value) operands");
        break;
      default:
        require(n.operands.size() == 2,
                "Dfg::validate: binary node ", id, " arity != 2");
        break;
    }
  }
}

}  // namespace amdrel::ir
