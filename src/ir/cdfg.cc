#include "ir/cdfg.h"

#include <algorithm>
#include <set>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::ir {

BlockId Cdfg::add_block(std::string block_name) {
  const BlockId id = size();
  BasicBlock bb;
  bb.id = id;
  bb.name = block_name.empty() ? cat("bb", id) : std::move(block_name);
  blocks_.push_back(std::move(bb));
  succs_.emplace_back();
  preds_.emplace_back();
  if (entry_ == kNoBlock) entry_ = id;
  return id;
}

void Cdfg::add_edge(BlockId from, BlockId to) {
  require(from >= 0 && from < size() && to >= 0 && to < size(),
          "Cdfg::add_edge: bad edge ", from, " -> ", to);
  auto& out = succs_[from];
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  preds_[to].push_back(from);
}

void Cdfg::set_entry(BlockId entry) {
  require(entry >= 0 && entry < size(), "Cdfg::set_entry: bad block id");
  entry_ = entry;
}

BasicBlock& Cdfg::block(BlockId id) {
  require(id >= 0 && id < size(), "Cdfg::block: bad id ", id);
  return blocks_[id];
}

const BasicBlock& Cdfg::block(BlockId id) const {
  require(id >= 0 && id < size(), "Cdfg::block: bad id ", id);
  return blocks_[id];
}

const std::vector<BlockId>& Cdfg::successors(BlockId id) const {
  require(id >= 0 && id < size(), "Cdfg::successors: bad id ", id);
  return succs_[id];
}

const std::vector<BlockId>& Cdfg::predecessors(BlockId id) const {
  require(id >= 0 && id < size(), "Cdfg::predecessors: bad id ", id);
  return preds_[id];
}

std::vector<std::vector<BlockId>> Cdfg::dominators() const {
  require(entry_ != kNoBlock, "Cdfg::dominators: no entry block");
  const BlockId n = size();
  // dom_sets[b] as sorted vectors; start with "all blocks" except entry.
  std::vector<BlockId> all(n);
  for (BlockId i = 0; i < n; ++i) all[i] = i;
  std::vector<std::vector<BlockId>> dom(n, all);
  dom[entry_] = {entry_};

  const std::vector<BlockId> rpo = reverse_post_order();
  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : rpo) {
      if (b == entry_) continue;
      std::vector<BlockId> meet;
      bool first = true;
      for (BlockId p : preds_[b]) {
        if (first) {
          meet = dom[p];
          first = false;
        } else {
          std::vector<BlockId> tmp;
          std::set_intersection(meet.begin(), meet.end(), dom[p].begin(),
                                dom[p].end(), std::back_inserter(tmp));
          meet = std::move(tmp);
        }
      }
      // Insert b itself.
      auto it = std::lower_bound(meet.begin(), meet.end(), b);
      if (it == meet.end() || *it != b) meet.insert(it, b);
      if (meet != dom[b]) {
        dom[b] = std::move(meet);
        changed = true;
      }
    }
  }
  return dom;
}

bool Cdfg::dominates(const std::vector<std::vector<BlockId>>& dom, BlockId a,
                     BlockId b) const {
  const auto& set = dom[b];
  return std::binary_search(set.begin(), set.end(), a);
}

const std::vector<Loop>& Cdfg::analyze_loops() {
  loops_.clear();
  for (auto& bb : blocks_) bb.loop_depth = 0;
  if (entry_ == kNoBlock) return loops_;

  const auto dom = dominators();
  // Restrict to blocks reachable from the entry.
  std::vector<bool> reachable(size(), false);
  for (BlockId b : reverse_post_order()) reachable[b] = true;

  for (BlockId u = 0; u < size(); ++u) {
    if (!reachable[u]) continue;
    for (BlockId h : succs_[u]) {
      if (!dominates(dom, h, u)) continue;  // not a back edge
      // Natural loop of back edge u->h: h plus all blocks that reach u
      // without passing through h.
      std::set<BlockId> body = {h, u};
      std::vector<BlockId> work = {u};
      while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        if (b == h) continue;
        for (BlockId p : preds_[b]) {
          if (reachable[p] && body.insert(p).second) work.push_back(p);
        }
      }
      Loop loop;
      loop.header = h;
      loop.latch = u;
      loop.body.assign(body.begin(), body.end());
      loops_.push_back(std::move(loop));
    }
  }
  std::sort(loops_.begin(), loops_.end(), [](const Loop& a, const Loop& b) {
    if (a.header != b.header) return a.header < b.header;
    return a.latch < b.latch;
  });
  // Nesting depth: number of loops whose body contains the block. Two
  // loops sharing a header count once (they are the same loop split over
  // two latches), so deduplicate by header.
  std::set<BlockId> seen_headers;
  for (const Loop& loop : loops_) {
    if (!seen_headers.insert(loop.header).second) continue;
    // Union of bodies over all loops with this header.
    std::set<BlockId> body;
    for (const Loop& other : loops_) {
      if (other.header == loop.header) {
        body.insert(other.body.begin(), other.body.end());
      }
    }
    for (BlockId b : body) blocks_[b].loop_depth++;
  }
  return loops_;
}

std::vector<BlockId> Cdfg::reverse_post_order() const {
  require(entry_ != kNoBlock, "Cdfg::reverse_post_order: no entry block");
  std::vector<BlockId> post;
  std::vector<int> state(size(), 0);  // 0 = unvisited, 1 = open, 2 = done
  // Iterative DFS to avoid recursion depth limits on long CFG chains.
  std::vector<std::pair<BlockId, std::size_t>> stack;
  stack.emplace_back(entry_, 0);
  state[entry_] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    if (next < succs_[b].size()) {
      const BlockId s = succs_[b][next++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[b] = 2;
      post.push_back(b);
      stack.pop_back();
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

void Cdfg::validate() const {
  require(entry_ != kNoBlock, "Cdfg::validate: no entry block");
  require(entry_ >= 0 && entry_ < size(), "Cdfg::validate: bad entry id");
  for (BlockId b = 0; b < size(); ++b) {
    require(blocks_[b].id == b, "Cdfg::validate: block ", b,
            " has mismatched id ", blocks_[b].id);
    blocks_[b].dfg.validate();
    for (BlockId s : succs_[b]) {
      require(s >= 0 && s < size(),
              "Cdfg::validate: bad successor ", s, " of block ", b);
    }
  }
}

}  // namespace amdrel::ir
