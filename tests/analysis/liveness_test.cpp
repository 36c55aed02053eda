#include "analysis/liveness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "ir/builder.hpp"
#include "opt/rename.hpp"
#include "opt/unroll.hpp"
#include "pipeline/driver.hpp"
#include "tests/analysis/liveness_reference.hpp"
#include "tests/workloads/ladder_source.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::analysis {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Reg;
using ir::Type;

TEST(Liveness, ValueLiveAcrossBlock) {
  // entry: x = 1; br next.  next: ret x.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  b.emit_br(next);
  b.set_insert_point(next);
  b.emit_ret_value(x);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_out(entry, x));
  EXPECT_TRUE(live.live_in(next, x));
  EXPECT_FALSE(live.live_in(entry, x)) << "defined before any use in entry";
}

TEST(Liveness, DeadAfterLastUse) {
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  const Reg y = b.emit_unary(ir::Opcode::Neg, Type::I32, x);  // Last use of x.
  b.emit_br(next);
  b.set_insert_point(next);
  b.emit_ret_value(y);

  const Liveness live(fn);
  EXPECT_FALSE(live.live_out(entry, x));
  EXPECT_TRUE(live.live_out(entry, y));
}

TEST(Liveness, LiveOnOneBranchOnly) {
  // entry: x=1; condbr p, use_x, skip.  use_x: ret x.  skip: ret p.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId use_x = b.create_block("use_x");
  const BlockId skip = b.create_block("skip");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  b.emit_cond_br(p, use_x, skip);
  b.set_insert_point(use_x);
  b.emit_ret_value(x);
  b.set_insert_point(skip);
  b.emit_ret_value(p);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(use_x, x));
  EXPECT_FALSE(live.live_in(skip, x));
  EXPECT_TRUE(live.live_out(entry, x));
}

TEST(Liveness, LoopCarriedValueLiveAroundBackEdge) {
  // entry: i=0; br header. header: c = i<10; condbr c, body, exit.
  // body: i=i+1; br header. exit: ret i.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId header = b.create_block("header");
  const BlockId body = b.create_block("body");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  const Reg i = fn.new_reg(Type::I32);
  b.emit(ir::make::movi(i, 0));
  b.emit_br(header);
  b.set_insert_point(header);
  const Reg ten = b.emit_movi(10);
  const Reg c = b.emit_binary(ir::Opcode::CmpLt, Type::I32, i, ten);
  b.emit_cond_br(c, body, exit);
  b.set_insert_point(body);
  const Reg one = b.emit_movi(1);
  b.emit(ir::make::binary(ir::Opcode::Add, i, i, one));
  b.emit_br(header);
  b.set_insert_point(exit);
  b.emit_ret_value(i);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(header, i));
  EXPECT_TRUE(live.live_out(body, i));
  EXPECT_TRUE(live.live_in(exit, i));
  EXPECT_FALSE(live.live_in(header, c)) << "condition recomputed each iteration";
}

TEST(Liveness, UseBeforeDefInSameBlockIsLiveIn) {
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg q = b.emit_unary(ir::Opcode::Neg, Type::I32, p);
  b.emit_ret_value(q);
  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(0, p));
}

/// Every live-in and live-out bit of `live` equals the dense blocks x
/// registers fixpoint that the per-register solver replaced.
void expect_matches_dense(const Liveness& live, const Function& fn) {
  const reference::DenseLiveness dense(fn);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto block = static_cast<BlockId>(b);
    for (std::uint32_t r = 0; r < fn.reg_types.size(); ++r) {
      ASSERT_EQ(live.live_in(block, Reg{r}), dense.live_in(block, Reg{r}))
          << "live-in of r" << r << " at block " << b;
      ASSERT_EQ(live.live_out(block, Reg{r}), dense.live_out(block, Reg{r}))
          << "live-out of r" << r << " at block " << b;
    }
  }
}

/// Every live-in and live-out bit of `live` equals a fresh Liveness(fn),
/// and both equal the dense fixpoint.
void expect_matches_fresh(const Liveness& live, const Function& fn) {
  const Liveness fresh(fn);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto block = static_cast<BlockId>(b);
    for (std::uint32_t r = 0; r < fn.reg_types.size(); ++r) {
      ASSERT_EQ(live.live_in(block, Reg{r}), fresh.live_in(block, Reg{r}))
          << "live-in of r" << r << " at block " << b;
      ASSERT_EQ(live.live_out(block, Reg{r}), fresh.live_out(block, Reg{r}))
          << "live-out of r" << r << " at block " << b;
    }
  }
  expect_matches_dense(live, fn);
}

/// Per block, the registers live into it.
std::vector<std::vector<std::uint32_t>> live_in_sets(const Liveness& live,
                                                     const Function& fn) {
  std::vector<std::vector<std::uint32_t>> sets(fn.blocks.size());
  for (std::uint32_t r = 0; r < fn.reg_types.size(); ++r) {
    for (BlockId b : live.live_in_blocks(Reg{r})) sets[b].push_back(r);
  }
  return sets;
}

/// Moves instruction `index` of block `from` to the end of block `to`
/// (before its terminator), updates `live`, and checks the result against
/// a fresh analysis, including the reported set of changed live-ins.
void move_and_check(Function& fn, Liveness& live, BlockId from, std::size_t index,
                    BlockId to) {
  const auto before = live_in_sets(live, fn);
  auto& src = fn.blocks[from].instrs;
  const ir::Instr moved = src[index];
  src.erase(src.begin() + static_cast<std::ptrdiff_t>(index));
  auto& dst = fn.blocks[to].instrs;
  dst.insert(dst.end() - 1, moved);

  std::vector<Reg> regs = moved.args;
  if (moved.dst) regs.push_back(*moved.dst);
  const BlockId edited[] = {from, to};
  const auto changed = live.update(fn, edited, regs);
  expect_matches_fresh(live, fn);

  const auto after = live_in_sets(live, fn);
  std::vector<BlockId> expected_changed;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (after[b] != before[b]) expected_changed.push_back(static_cast<BlockId>(b));
  }
  EXPECT_EQ(changed, expected_changed);
}

/// Compares a fresh Liveness with the dense fixpoint on every function of
/// the prepared program, after unrolling and again after renaming.
void expect_program_matches_dense(const std::string& source, const std::string& name,
                                  const pipeline::WorkloadInput& input) {
  SCOPED_TRACE(name);
  auto module = pipeline::prepare(source, name, input).module;
  for (auto& fn : module.functions) {
    opt::unroll_loops(fn);
    expect_matches_dense(Liveness(fn), fn);
    opt::rename_registers(fn);
    expect_matches_dense(Liveness(fn), fn);
  }
}

TEST(Liveness, MatchesDenseFixpointOverSuite) {
  for (const auto& w : wl::suite()) {
    expect_program_matches_dense(w.source, w.name, w.input);
    if (HasFatalFailure()) return;
  }
}

TEST(Liveness, MatchesDenseFixpointOverDefaultCorpus) {
  for (const auto& w : wl::default_corpus()) {
    expect_program_matches_dense(w.source, w.name, w.input);
    if (HasFatalFailure()) return;
  }
}

// The population scales with ASIPFB_FUZZ_COUNT; each scenario also gets
// one stack of three mutations.
TEST(Liveness, MatchesDenseFixpointOverEnvCorpusAndMutants) {
  const auto corpus = wl::corpus(wl::env_corpus_spec());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& w = corpus[i];
    expect_program_matches_dense(w.source, w.name, w.input);
    const auto mutant = wl::mutate(w.source, 0x9E3779B9u + i, 3);
    expect_program_matches_dense(mutant.source, w.name + "_mut", w.input);
    if (HasFatalFailure()) return;
  }
}

TEST(Liveness, MatchesDenseFixpointOverLadder) {
  for (const int n : {50, 100, 200, 400, 800}) {
    expect_program_matches_dense(wl::ladder_source(n), "ladder" + std::to_string(n), {});
    if (HasFatalFailure()) return;
  }
}

TEST(Liveness, UpdateKillsValueAroundBackEdge) {
  // entry: x=1; br header.  header: condbr p, latch, exit.
  // latch: br header.  exit: y = x+x; ret y.
  // x is live around the header/latch cycle only because exit reads it.
  // Moving that read into entry kills x on the cycle; a patch that only
  // re-derives the edited blocks would find header and latch still
  // supporting each other and keep x live there.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId header = b.create_block("header");
  const BlockId latch = b.create_block("latch");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  b.emit_br(header);
  b.set_insert_point(header);
  b.emit_cond_br(p, latch, exit);
  b.set_insert_point(latch);
  b.emit_br(header);
  b.set_insert_point(exit);
  const Reg y = b.emit_binary(ir::Opcode::Add, Type::I32, x, x);
  b.emit_ret_value(y);

  Liveness live(fn);
  ASSERT_TRUE(live.live_in(header, x));
  ASSERT_TRUE(live.live_in(latch, x));

  move_and_check(fn, live, exit, 0, entry);
  EXPECT_FALSE(live.live_in(header, x));
  EXPECT_FALSE(live.live_out(latch, x));
  EXPECT_TRUE(live.live_in(latch, y));
}

TEST(Liveness, UpdateMatchesFreshAlongMotionSequence) {
  // A deterministic sequence of hoist-shaped motions over the suite after
  // unrolling and renaming: a block's first op moves to the end of its
  // unique conditional-branch predecessor, repeatedly, lowest block first.
  // Update's contract does not depend on the motion being legal.
  int total_motions = 0;
  for (const auto& w : wl::suite()) {
    SCOPED_TRACE(w.name);
    auto module = pipeline::prepare(w.source, w.name, w.input).module;
    for (auto& fn : module.functions) {
      opt::unroll_loops(fn);
      opt::rename_registers(fn);
      const auto preds = predecessors(fn);
      Liveness live(fn);
      int motions = 0;
      for (std::size_t n = 1; n < fn.blocks.size() && motions < 40; ++n) {
        if (preds[n].size() != 1 || preds[n][0] == n) continue;
        const BlockId m = preds[n][0];
        if (fn.blocks[m].terminator().op != ir::Opcode::CondBr) continue;
        while (fn.blocks[n].instrs.size() > 1 && motions < 40) {
          move_and_check(fn, live, static_cast<BlockId>(n), 0, m);
          if (HasFatalFailure()) return;
          ++motions;
        }
      }
      total_motions += motions;
    }
  }
  EXPECT_GT(total_motions, 500);
}

}  // namespace
}  // namespace asipfb::analysis
