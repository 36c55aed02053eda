#include "analysis/cfg.hpp"

#include <algorithm>
#include <utility>

namespace asipfb::analysis {

using ir::BlockId;

std::vector<std::vector<BlockId>> predecessors(const ir::Function& fn) {
  std::vector<std::vector<BlockId>> preds(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (BlockId s : fn.blocks[b].successors()) {
      preds[s].push_back(static_cast<BlockId>(b));
    }
  }
  return preds;
}

std::vector<BlockId> reverse_post_order(const ir::Function& fn) {
  if (fn.blocks.empty()) return {};
  std::vector<bool> visited(fn.blocks.size(), false);
  std::vector<BlockId> order;
  order.reserve(fn.blocks.size());
  // Depth-first in the recursive visit order, but on an explicit stack of
  // (block, next successor index) so long block chains cannot overflow.
  std::vector<std::pair<BlockId, std::size_t>> stack{{0, 0}};
  visited[0] = true;
  while (!stack.empty()) {
    auto& [block, next] = stack.back();
    const auto succs = fn.blocks[block].successors();
    if (next == succs.size()) {
      order.push_back(block);
      stack.pop_back();
      continue;
    }
    const BlockId s = succs[next++];
    if (visited[s]) continue;
    visited[s] = true;
    stack.emplace_back(s, 0);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<bool> reachable_blocks(const ir::Function& fn) {
  std::vector<bool> visited(fn.blocks.size(), false);
  if (fn.blocks.empty()) return visited;
  std::vector<BlockId> work{0};
  visited[0] = true;
  while (!work.empty()) {
    const BlockId b = work.back();
    work.pop_back();
    for (BlockId s : fn.blocks[b].successors()) {
      if (!visited[s]) {
        visited[s] = true;
        work.push_back(s);
      }
    }
  }
  return visited;
}

}  // namespace asipfb::analysis
