#include "ir/cdfg.h"

#include <algorithm>

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

void Cdfg::reserve(BlockId blocks) {
  const auto total = static_cast<std::size_t>(size() + blocks);
  blocks_.reserve(total);
  succs_.reserve(total);
  preds_.reserve(total);
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

namespace {

/// RPO position of every block, -1 for blocks unreachable from the entry.
std::vector<int> rpo_positions(const std::vector<BlockId>& rpo, BlockId n) {
  std::vector<int> order(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    order[rpo[i]] = static_cast<int>(i);
  }
  return order;
}

}  // namespace

std::vector<BlockId> Cdfg::immediate_dominators() const {
  require(entry_ != kNoBlock, "Cdfg::immediate_dominators: no entry block");
  // Walk the RPO, meeting each block's processed predecessors by climbing
  // their idom chains to the common ancestor, until nothing changes.
  const std::vector<BlockId> rpo = reverse_post_order();
  const std::vector<int> order = rpo_positions(rpo, size());
  std::vector<BlockId> idom(size(), kNoBlock);
  idom[entry_] = entry_;
  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (order[a] > order[b]) a = idom[a];
      while (order[b] > order[a]) b = idom[b];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BlockId b : rpo) {
      if (b == entry_) continue;
      BlockId meet = kNoBlock;
      for (const BlockId p : preds_[b]) {
        if (idom[p] == kNoBlock) continue;  // unreachable or not yet seen
        meet = meet == kNoBlock ? p : intersect(p, meet);
      }
      if (idom[b] != meet) {
        idom[b] = meet;
        changed = true;
      }
    }
  }
  return idom;
}

const std::vector<Loop>& Cdfg::analyze_loops() {
  loops_.clear();
  for (auto& bb : blocks_) bb.loop_depth = 0;
  if (entry_ == kNoBlock) return loops_;

  const std::vector<BlockId> idom = immediate_dominators();
  const std::vector<int> order = rpo_positions(reverse_post_order(), size());
  // A dominator precedes the blocks it dominates in RPO, so the idom
  // climb from b stops as soon as it passes a's position.
  auto dominates = [&](BlockId a, BlockId b) {
    while (order[b] > order[a]) b = idom[b];
    return a == b;
  };

  // mark[b] is the index of the last loop whose body took b.
  std::vector<int> mark(size(), -1);
  std::vector<BlockId> work;
  for (BlockId u = 0; u < size(); ++u) {
    if (order[u] < 0) continue;  // restrict to blocks reachable from entry
    for (BlockId h : succs_[u]) {
      if (!dominates(h, u)) continue;  // not a back edge
      // Natural loop of back edge u->h: h plus all blocks that reach u
      // without passing through h.
      const int stamp = static_cast<int>(loops_.size());
      Loop loop;
      loop.header = h;
      loop.latch = u;
      auto take = [&](BlockId b) {
        mark[b] = stamp;
        loop.body.push_back(b);
        work.push_back(b);
      };
      mark[h] = stamp;
      loop.body.push_back(h);
      if (u != h) take(u);
      while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        for (BlockId p : preds_[b]) {
          if (order[p] >= 0 && mark[p] != stamp) take(p);
        }
      }
      std::sort(loop.body.begin(), loop.body.end());
      loops_.push_back(std::move(loop));
    }
  }
  std::sort(loops_.begin(), loops_.end(), [](const Loop& a, const Loop& b) {
    if (a.header != b.header) return a.header < b.header;
    return a.latch < b.latch;
  });
  // Nesting depth: number of loops whose body contains the block. Two
  // loops sharing a header count once (they are the same loop split over
  // two latches); the sort made them adjacent, so counted[b] only has to
  // remember the header that last counted b.
  std::vector<BlockId> counted(size(), kNoBlock);
  for (const Loop& loop : loops_) {
    for (BlockId b : loop.body) {
      if (counted[b] == loop.header) continue;
      counted[b] = loop.header;
      blocks_[b].loop_depth++;
    }
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
