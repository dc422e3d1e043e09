#include "ir/dfg.h"

#include <algorithm>
#include <type_traits>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::ir {

static_assert(std::is_trivially_copyable_v<Dfg::Node>);

bool operator==(Dfg::NodeIds a, Dfg::NodeIds b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::size_t Dfg::Users::size() const {
  return static_cast<std::size_t>(std::distance(begin(), end()));
}

bool operator==(const Dfg::Users& a, const Dfg::Users& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

NodeId Dfg::add_node(OpKind kind, std::initializer_list<NodeId> operands,
                     std::string_view label) {
  const NodeId id = size();
  require(operands.size() <= 2, "Dfg::add_node: ", operands.size(),
          " operands for new node ", id, "; a node takes at most 2");
  for (NodeId operand : operands) {
    require(operand >= 0 && operand < id,
            "Dfg::add_node: operand ", operand,
            " out of range for new node ", id);
  }
  Node node;
  node.kind = kind;
  node.operand_count = static_cast<std::uint8_t>(operands.size());
  std::copy(operands.begin(), operands.end(), node.operand_ids);
  nodes_.push_back(node);
  links_.emplace_back();
  for (int k = 0; k < node.operand_count; ++k) {
    const NodeId slot = 2 * id + k;
    UseLinks& operand = links_[node.operand_ids[k]];
    if (operand.last_use == kNoNode) {
      operand.first_use = slot;
    } else {
      links_[operand.last_use >> 1].next_use[operand.last_use & 1] = slot;
    }
    operand.last_use = slot;
  }
  label_chars_.append(label);
  label_end_.push_back(static_cast<std::uint32_t>(label_chars_.size()));
  return id;
}

NodeId Dfg::add_const(std::int64_t value, std::string_view label) {
  const NodeId id = add_node(OpKind::kConst, {}, label);
  nodes_[id].imm = value;
  return id;
}

void Dfg::reserve(std::size_t nodes, std::size_t label_chars) {
  nodes_.reserve(nodes_.size() + nodes);
  links_.reserve(links_.size() + nodes);
  label_end_.reserve(label_end_.size() + nodes);
  label_chars_.reserve(label_chars_.size() + label_chars);
}

const Dfg::Node& Dfg::node(NodeId id) const {
  require(id >= 0 && id < size(), "Dfg::node: bad id ", id);
  return nodes_[id];
}

std::string_view Dfg::label(NodeId id) const {
  require(id >= 0 && id < size(), "Dfg::label: bad id ", id);
  const std::uint32_t begin = id == 0 ? 0 : label_end_[id - 1];
  return std::string_view(label_chars_).substr(begin, label_end_[id] - begin);
}

Dfg::Users Dfg::users(NodeId id) const {
  require(id >= 0 && id < size(), "Dfg::users: bad id ", id);
  return {links_.data(), links_[id].first_use};
}

std::vector<int> Dfg::asap_levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (NodeId id = 0; id < size(); ++id) {
    const Node& n = nodes_[id];
    if (!is_schedulable(n.kind)) continue;
    int max_pred = 0;
    for (NodeId operand : n.operands()) {
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
    for (NodeId user : users(id)) {
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
    for (NodeId operand : n.operands()) {
      require(operand >= 0 && operand < id,
              "Dfg::validate: node ", id, " has bad operand ", operand);
    }
    switch (n.kind) {
      case OpKind::kConst:
      case OpKind::kInput:
        require(n.operand_count == 0,
                "Dfg::validate: source node ", id, " has operands");
        break;
      case OpKind::kOutput:
        require(n.operand_count == 1,
                "Dfg::validate: output node ", id,
                " must have exactly one operand");
        break;
      case OpKind::kNot:
      case OpKind::kNeg:
      case OpKind::kCopy:
        require(n.operand_count == 1,
                "Dfg::validate: unary node ", id, " arity != 1");
        break;
      case OpKind::kLoad:
        require(n.operand_count == 1,
                "Dfg::validate: load node ", id,
                " must have exactly one (address) operand");
        break;
      case OpKind::kStore:
        require(n.operand_count == 2,
                "Dfg::validate: store node ", id,
                " must have (address, value) operands");
        break;
      default:
        require(n.operand_count == 2,
                "Dfg::validate: binary node ", id, " arity != 2");
        break;
    }
  }
}

}  // namespace amdrel::ir
