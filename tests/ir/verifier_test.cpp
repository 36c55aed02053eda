#include "ir/verifier.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "frontend/compile.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "ir/builder.hpp"
#include "tests/ir/definite_assignment_reference.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::ir {
namespace {

/// Minimal valid module: int main() { return 0; }
Module valid_module() {
  Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  b.emit_ret_value(b.emit_movi(0));
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(Verifier, AcceptsValidModule) {
  const Module m = valid_module();
  EXPECT_TRUE(verify(m).empty());
  EXPECT_NO_THROW(verify_or_throw(m));
}

TEST(Verifier, RejectsEmptyFunction) {
  Module m = valid_module();
  m.functions[0].blocks.clear();
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsEmptyBlock) {
  Module m = valid_module();
  m.functions[0].blocks.push_back(BasicBlock{"dangling", {}});
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsMissingTerminator) {
  Module m = valid_module();
  m.functions[0].blocks[0].instrs.pop_back();  // Drop the ret.
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsTerminatorMidBlock) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  auto& instrs = fn.blocks[0].instrs;
  Instr extra = make::ret();
  fn.assign_id(extra);
  instrs.insert(instrs.begin(), extra);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsBranchOutOfRange) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.blocks[0].instrs.back() = make::br(42);
  fn.assign_id(fn.blocks[0].instrs.back());
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsWrongArity) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr bad = make::binary(Opcode::Add, fn.new_reg(Type::I32), Reg{0}, Reg{0});
  bad.args.pop_back();
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsTypeMismatch) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  const Reg f = fn.new_reg(Type::F32);
  const Reg i = fn.new_reg(Type::I32);
  // fadd on an integer operand.
  Instr mf = make::movf(f, 1.0f);
  fn.assign_id(mf);
  Instr mi = make::movi(i, 1);
  fn.assign_id(mi);
  Instr bad = make::binary(Opcode::FAdd, fn.new_reg(Type::F32), f, i);
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, mf);
  instrs.insert(instrs.end() - 1, mi);
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsUndefinedRegisterUse) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  const Reg ghost = fn.new_reg(Type::I32);
  Instr bad = make::unary(Opcode::Neg, fn.new_reg(Type::I32), ghost);
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  const auto errors = verify(m);
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const auto& e : errors) {
    if (e.find("possibly-undefined") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Verifier, AcceptsDefinitionOnAllPaths) {
  // if (p) x = 1; else x = 2; use x;  -- defined on both paths.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  const Reg x = fn.new_reg(Type::I32);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId then_b = b.create_block("then");
  const BlockId else_b = b.create_block("else");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, then_b, else_b);
  b.set_insert_point(then_b);
  b.emit(make::movi(x, 1));
  b.emit_br(merge);
  b.set_insert_point(else_b);
  b.emit(make::movi(x, 2));
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(x);
  m.functions.push_back(std::move(fn));
  EXPECT_TRUE(verify(m).empty());
}

TEST(Verifier, RejectsDefinitionOnOnePathOnly) {
  // if (p) x = 1; use x;  -- undefined when p is false.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  const Reg x = fn.new_reg(Type::I32);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId then_b = b.create_block("then");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, then_b, merge);
  b.set_insert_point(then_b);
  b.emit(make::movi(x, 1));
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(x);
  m.functions.push_back(std::move(fn));
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsDuplicateInstrIds) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr dup = make::movi(fn.new_reg(Type::I32), 3);
  dup.id = fn.blocks[0].instrs[0].id;  // Collide.
  dup.origin = dup.id;
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, dup);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsGlobalIndexOutOfRange) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr bad = make::addr_global(fn.new_reg(Type::I32), 5);  // No globals exist.
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsCallArgumentMismatch) {
  Module m = valid_module();
  Function callee;
  callee.name = "g";
  callee.return_type = Type::Void;
  callee.params.push_back(callee.new_reg(Type::I32));
  Builder cb(callee);
  cb.set_insert_point(cb.create_block("entry"));
  cb.emit_ret();
  m.functions.push_back(std::move(callee));

  auto& fn = m.functions[0];
  Instr bad = make::call(std::nullopt, 1, {});  // Needs one argument.
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsVoidCallResultCapture) {
  Module m = valid_module();
  Function callee;
  callee.name = "g";
  callee.return_type = Type::Void;
  Builder cb(callee);
  cb.set_insert_point(cb.create_block("entry"));
  cb.emit_ret();
  m.functions.push_back(std::move(callee));

  auto& fn = m.functions[0];
  Instr bad = make::call(fn.new_reg(Type::I32), 1, {});
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsReturnTypeMismatch) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.return_type = Type::Void;  // But ret carries a value.
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, ThrowListsFunctionName) {
  Module m = valid_module();
  m.functions[0].blocks[0].instrs.pop_back();
  try {
    verify_or_throw(m);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("main"), std::string::npos);
  }
}

TEST(Verifier, RejectsCopyRegisterOutOfRange) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr bad = make::copy(Reg{40}, Reg{41});
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  const auto errors = verify(m);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("register out of range"), std::string::npos);
}

/// Parse + sema + lowering of `source`, without the verifier.
Module lower_unverified(std::string_view source) {
  DiagnosticEngine diags;
  fe::TranslationUnit unit = fe::parse(source, diags);
  diags.check();
  const fe::SemaResult sema = fe::analyze(unit, diags);
  diags.check();
  return fe::lower(unit, sema, "test");
}

TEST(Verifier, UninitializedLocalsMatchReference) {
  // Locals read before any write on some or all paths: straight-line,
  // branches, loops (the read reaching around a back edge), and a callee.
  const char* const sources[] = {
      R"(int main() { int x; return x; })",
      R"(int main() { int x; int y; if (y > 0) x = 1; return x + y; })",
      R"(int main() {
           int s; int i;
           for (i = 0; i < 10; i++) s = s + i;
           return s;
         })",
      R"(int g[4];
         int main() {
           int x; int y; int z; float f; int i;
           if (g[0] > 0) x = 1; else y = 2;
           for (i = 0; i < 4; i++) {
             if (i > 1) z = x + y;
             g[i] = z + i;
           }
           return x + y + z + (int)f;
         })",
      R"(int g[4];
         int helper(int n) {
           int t; int k;
           while (n > 0) { t = t + n; n = n - 1; }
           if (n == 0) k = 3;
           return t + k;
         }
         int main() { int x; return x + helper(g[1]); })",
      R"(int g[4];
         int main() {
           int a; int b; int i;
           a = 0;
           for (i = 0; i < 4; i++) {
             if (g[i] > 2) { b = a; } else { a = b + 1; }
             while (a < i) { a = a + b; }
           }
           return a;
         })",
  };
  for (const char* source : sources) {
    const Module m = lower_unverified(source);
    const auto errors = verify(m);
    EXPECT_FALSE(errors.empty()) << source;
    EXPECT_EQ(errors, reference::definite_assignment_errors(m)) << source;
  }
}

TEST(Verifier, DeletedDefinitionMutantsMatchReference) {
  // Every module below verifies; deleting one instruction that writes a
  // register leaves its readers possibly undefined on some paths.  The
  // corpus is sampled at a stride to bound the run time.
  std::vector<Module> modules;
  for (const auto& w : wl::suite()) modules.push_back(fe::compile_benchc(w.source, w.name));
  const auto& corpus = wl::default_corpus();
  for (std::size_t i = 0; i < corpus.size(); i += 4) {
    modules.push_back(fe::compile_benchc(corpus[i].source, corpus[i].name));
  }
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  for (const Module& base : modules) {
    ASSERT_TRUE(verify(base).empty()) << base.name;
    for (std::size_t f = 0; f < base.functions.size(); ++f) {
      const auto& fn = base.functions[f];
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
          if (!fn.blocks[b].instrs[i].dst) continue;
          Module mutant = base;
          auto& instrs = mutant.functions[f].blocks[b].instrs;
          instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(i));
          const auto errors = verify(mutant);
          ASSERT_EQ(errors, reference::definite_assignment_errors(mutant))
              << base.name << " function " << fn.name << " block " << b
              << " instruction " << i;
          ++mutants;
          if (!errors.empty()) ++rejected;
        }
      }
    }
  }
  EXPECT_GT(mutants, 1000u);
  EXPECT_GT(rejected, mutants / 2) << "most deletions should expose a read";
}

}  // namespace
}  // namespace asipfb::ir
