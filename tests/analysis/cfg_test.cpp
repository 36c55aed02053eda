#include "analysis/cfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "ir/builder.hpp"
#include "opt/unroll.hpp"
#include "pipeline/driver.hpp"
#include "workloads/suite.hpp"

namespace asipfb::analysis {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Reg;
using ir::Type;

/// Diamond: entry -> {left, right} -> merge(ret).
Function diamond() {
  Function fn;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId left = b.create_block("left");
  const BlockId right = b.create_block("right");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, left, right);
  b.set_insert_point(left);
  b.emit_br(merge);
  b.set_insert_point(right);
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(p);
  return fn;
}

TEST(Cfg, PredecessorsOfDiamond) {
  const Function fn = diamond();
  const auto preds = predecessors(fn);
  EXPECT_TRUE(preds[0].empty());
  EXPECT_EQ(preds[1], std::vector<BlockId>{0});
  EXPECT_EQ(preds[2], std::vector<BlockId>{0});
  EXPECT_EQ(preds[3], (std::vector<BlockId>{1, 2}));
}

TEST(Cfg, ReversePostOrderStartsAtEntryEndsAtExit) {
  const Function fn = diamond();
  const auto rpo = reverse_post_order(fn);
  ASSERT_EQ(rpo.size(), 4u);
  EXPECT_EQ(rpo.front(), 0u);
  EXPECT_EQ(rpo.back(), 3u) << "merge is last in RPO of a diamond";
}

TEST(Cfg, UnreachableBlockExcludedFromRpo) {
  Function fn = diamond();
  Builder b(fn);
  const BlockId dead = b.create_block("dead");
  b.set_insert_point(dead);
  b.emit_ret_value(fn.params[0]);
  const auto rpo = reverse_post_order(fn);
  EXPECT_EQ(rpo.size(), 4u);
  const auto reach = reachable_blocks(fn);
  EXPECT_FALSE(reach[dead]);
  EXPECT_TRUE(reach[0]);
}

TEST(Cfg, SelfLoopHandled) {
  Function fn;
  fn.return_type = Type::Void;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId spin = b.create_block("spin");
  b.set_insert_point(entry);
  b.emit_br(spin);
  b.set_insert_point(spin);
  b.emit_cond_br(p, spin, spin);
  const auto preds = predecessors(fn);
  EXPECT_EQ(preds[spin].size(), 2u);  // entry + itself (dedup'd successors).
  EXPECT_EQ(reverse_post_order(fn).size(), 2u);
}

TEST(Cfg, ReversePostOrderOfLongChainOnThread) {
  // A straight chain this long overflowed a recursive depth-first search on
  // a std::thread's default stack.
  constexpr std::size_t kBlocks = 200000;
  Function fn;
  fn.return_type = Type::Void;
  Builder b(fn);
  for (std::size_t i = 0; i < kBlocks; ++i) b.create_block("b");
  for (std::size_t i = 0; i + 1 < kBlocks; ++i) {
    b.set_insert_point(static_cast<BlockId>(i));
    b.emit_br(static_cast<BlockId>(i + 1));
  }
  b.set_insert_point(static_cast<BlockId>(kBlocks - 1));
  b.emit_ret();

  std::vector<BlockId> rpo;
  std::thread worker([&] { rpo = reverse_post_order(fn); });
  worker.join();
  ASSERT_EQ(rpo.size(), kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    ASSERT_EQ(rpo[i], static_cast<BlockId>(i)) << "position " << i;
  }
}

void recursive_post_order(const Function& fn, BlockId block,
                          std::vector<bool>& visited, std::vector<BlockId>& order) {
  visited[block] = true;
  for (BlockId s : fn.blocks[block].successors()) {
    if (!visited[s]) recursive_post_order(fn, s, visited, order);
  }
  order.push_back(block);
}

TEST(Cfg, ReversePostOrderMatchesRecursiveSearchOverSuite) {
  // Dominators, loops and unrolling depend on the exact order, so the
  // explicit-stack search must visit successors as the recursive one did.
  for (const auto& w : wl::suite()) {
    auto module = pipeline::prepare(w.source, w.name, w.input).module;
    for (auto& fn : module.functions) {
      for (const bool unrolled : {false, true}) {
        if (unrolled) opt::unroll_loops(fn);
        std::vector<bool> visited(fn.blocks.size(), false);
        std::vector<BlockId> expected;
        recursive_post_order(fn, 0, visited, expected);
        std::reverse(expected.begin(), expected.end());
        EXPECT_EQ(reverse_post_order(fn), expected) << w.name << " " << fn.name;
      }
    }
  }
}

}  // namespace
}  // namespace asipfb::analysis
