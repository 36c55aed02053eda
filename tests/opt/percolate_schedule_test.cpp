// Byte identity of the worklist percolation scheduler (opt::percolate)
// against the restart-from-block-0 reference it replaced
// (tests/opt/percolate_reference.*): equal cache::serialize output and equal
// work counters over the suite, the default corpus, an ASIPFB_FUZZ_COUNT /
// ASIPFB_FUZZ_SEED corpus slice with stacked mutants, the N-`if` scaling
// ladder, and the option corners optimize() never selects.
#include <gtest/gtest.h>

#include <string>

#include "cache/serialize.hpp"
#include "ir/builder.hpp"
#include "opt/optimizer.hpp"
#include "opt/rename.hpp"
#include "opt/unroll.hpp"
#include "pipeline/driver.hpp"
#include "tests/opt/percolate_reference.hpp"
#include "tests/workloads/ladder_source.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
namespace {

bool same_stats(const PercolationStats& a, const PercolationStats& b) {
  return a.blocks_merged == b.blocks_merged && a.ops_hoisted == b.ops_hoisted &&
         a.passes == b.passes;
}

bool same_stats(const OptimizeStats& a, const OptimizeStats& b) {
  return a.loops_unrolled == b.loops_unrolled &&
         a.repair_copies == b.repair_copies && a.dce_removed == b.dce_removed &&
         same_stats(a.percolation, b.percolation);
}

/// Optimizes `source` at O1 and O2 with both schedulers; returns the
/// number of (level) runs whose module bytes or counters differ.
int optimize_mismatches(const std::string& source, const std::string& name,
                        const pipeline::WorkloadInput& input) {
  const auto prepared = pipeline::prepare(source, name, input);
  int mismatches = 0;
  for (const OptLevel level : {OptLevel::O1, OptLevel::O2}) {
    ir::Module worklist = prepared.module;
    ir::Module rescan = prepared.module;
    const OptimizeStats a = optimize(worklist, level);
    const OptimizeStats b = reference::optimize(rescan, level);
    if (!same_stats(a, b) || cache::serialize(worklist) != cache::serialize(rescan)) {
      ADD_FAILURE() << name << " at " << to_string(level)
                    << ": worklist scheduler diverges from the reference";
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(PercolateSchedule, SuiteMatchesReference) {
  int mismatches = 0;
  for (const auto& w : wl::suite()) {
    mismatches += optimize_mismatches(w.source, w.name, w.input);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PercolateSchedule, DefaultCorpusMatchesReference) {
  int mismatches = 0;
  for (const auto& w : wl::default_corpus()) {
    mismatches += optimize_mismatches(w.source, w.name, w.input);
  }
  EXPECT_EQ(mismatches, 0);
}

// The population scales with ASIPFB_FUZZ_COUNT (the nightly job runs
// thousands); each scenario also gets one stack of three mutations.
TEST(PercolateSchedule, EnvCorpusAndMutantsMatchReference) {
  const auto corpus = wl::corpus(wl::env_corpus_spec());
  int mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& w = corpus[i];
    mismatches += optimize_mismatches(w.source, w.name, w.input);
    const auto mutant = wl::mutate(w.source, 0x9E3779B9u + i, 3);
    mismatches += optimize_mismatches(mutant.source, w.name + "_mut", w.input);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PercolateSchedule, LadderMatchesReference) {
  int mismatches = 0;
  for (const int n : {50, 100, 200}) {
    mismatches +=
        optimize_mismatches(wl::ladder_source(n), "ladder" + std::to_string(n), {});
  }
  EXPECT_EQ(mismatches, 0);
}

// A hoist can unblock a sibling the scan already passed.  entry branches
// to `keep` (lower index) and `leave`.  `keep` writes x, which `leave`
// reads, so keep's write cannot speculate; once leave's read moves above
// the branch, x is dead into `leave` and keep's write becomes movable.  The
// reference rescans from block 0 and hoists it in the same sweep, so the
// worklist must reopen `keep` although it was already clean.
TEST(PercolateSchedule, HoistReopensEarlierSiblingLikeReference) {
  ir::Function fn;
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  const ir::Reg c = fn.new_reg(ir::Type::I32);
  const ir::Reg x = fn.new_reg(ir::Type::I32);
  fn.params = {c, x};
  ir::Builder b(fn);
  const ir::BlockId entry = b.create_block("entry");
  const ir::BlockId keep = b.create_block("keep");
  const ir::BlockId leave = b.create_block("leave");
  const ir::BlockId join = b.create_block("join");
  b.set_insert_point(entry);
  b.emit_cond_br(c, keep, leave);
  b.set_insert_point(keep);
  b.emit(ir::make::movi(x, 5));
  b.emit_br(join);
  b.set_insert_point(leave);
  const ir::Reg one = b.emit_movi(1);
  b.emit_ret_value(b.emit_binary(ir::Opcode::Add, ir::Type::I32, x, one));
  b.set_insert_point(join);
  b.emit_ret_value(x);

  PercolationOptions options;
  options.chain_preserving = false;
  ir::Module worklist;
  worklist.functions.push_back(fn);
  ir::Module rescan = worklist;
  const auto a = percolate(worklist.functions[0], options);
  const auto r = reference::percolate(rescan.functions[0], options);
  EXPECT_EQ(r.ops_hoisted, 3) << "the reference hoists keep's write too";
  EXPECT_EQ(r.passes, 2) << "and needs no extra pass to find it";
  EXPECT_TRUE(same_stats(a, r));
  EXPECT_EQ(cache::serialize(worklist), cache::serialize(rescan));
}

// optimize() ties chain_preserving to the level and never turns off load
// speculation or shortens the pass budget; percolate() itself takes them.
TEST(PercolateSchedule, OptionCornersMatchReference) {
  std::vector<PercolationOptions> corners(4);
  corners[0].speculate_loads = false;
  corners[1].chain_preserving = true;
  corners[2].chain_preserving = false;
  corners[3].max_passes = 1;
  int mismatches = 0;
  for (const auto& w : wl::suite()) {
    const auto prepared = pipeline::prepare(w.source, w.name, w.input);
    for (const bool rename : {false, true}) {
      ir::Module base = prepared.module;
      for (auto& fn : base.functions) {
        unroll_loops(fn);
        if (rename) rename_registers(fn);
      }
      for (std::size_t c = 0; c < corners.size(); ++c) {
        ir::Module worklist = base;
        ir::Module rescan = base;
        bool same = true;
        for (std::size_t f = 0; f < base.functions.size(); ++f) {
          same &= same_stats(percolate(worklist.functions[f], corners[c]),
                             reference::percolate(rescan.functions[f], corners[c]));
        }
        if (!same || cache::serialize(worklist) != cache::serialize(rescan)) {
          ADD_FAILURE() << w.name << " rename=" << rename << " corner " << c
                        << ": worklist scheduler diverges from the reference";
          ++mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace asipfb::opt
