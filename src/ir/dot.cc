#include "ir/dot.h"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace amdrel::ir {

namespace {

std::string escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const Dfg& dfg, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph \"" << escape(graph_name) << "\" {\n";
  os << "  rankdir=TB;\n  node [fontsize=10];\n";
  for (NodeId id = 0; id < dfg.size(); ++id) {
    const Dfg::Node& node = dfg.node(id);
    std::string label{op_name(node.kind)};
    if (node.kind == OpKind::kConst) {
      label = "#" + std::to_string(node.imm);
    }
    if (const std::string_view name = dfg.label(id); !name.empty()) {
      label += "\\n" + escape(name);
    }
    const bool structural = !is_schedulable(node.kind);
    os << "  n" << id << " [label=\"" << label << "\", shape="
       << (structural ? "box" : "ellipse");
    if (op_class(node.kind) == OpClass::kMul) os << ", style=bold";
    if (op_class(node.kind) == OpClass::kMem) os << ", style=filled";
    os << "];\n";
  }
  for (NodeId id = 0; id < dfg.size(); ++id) {
    for (NodeId operand : dfg.node(id).operands()) {
      os << "  n" << operand << " -> n" << id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const Cdfg& cdfg) {
  std::ostringstream os;
  os << "digraph \"" << escape(cdfg.name()) << "\" {\n";
  os << "  node [shape=box, fontsize=10];\n";
  for (const BasicBlock& block : cdfg.blocks()) {
    const OpMix mix = block.dfg.op_mix();
    os << "  b" << block.id << " [label=\"" << escape(block.name)
       << "\\nalu " << mix.alu << ", mul " << mix.mul << ", mem " << mix.mem;
    if (block.loop_depth > 0) os << "\\nloop depth " << block.loop_depth;
    os << "\"";
    if (block.id == cdfg.entry()) os << ", penwidth=2";
    os << "];\n";
  }
  for (const BasicBlock& block : cdfg.blocks()) {
    for (const BlockId succ : cdfg.successors(block.id)) {
      os << "  b" << block.id << " -> b" << succ;
      if (succ <= block.id) os << " [style=dashed]";  // likely a back edge
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace amdrel::ir
