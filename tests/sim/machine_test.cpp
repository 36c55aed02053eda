#include "sim/machine.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"

namespace asipfb::sim {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Opcode;
using ir::Reg;
using ir::Type;

/// Builds main() { return <op>(a, b); } directly in IR.
ir::Module binary_op_module(Opcode op, std::int32_t a, std::int32_t b) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder builder(fn);
  builder.set_insert_point(builder.create_block("entry"));
  const Reg ra = builder.emit_movi(a);
  const Reg rb = builder.emit_movi(b);
  const Reg rc = builder.emit_binary(op, Type::I32, ra, rb);
  builder.emit_ret_value(rc);
  m.functions.push_back(std::move(fn));
  return m;
}

std::int32_t run_binary(Opcode op, std::int32_t a, std::int32_t b) {
  ir::Module m = binary_op_module(op, a, b);
  Machine machine(m);
  return machine.run().exit_code;
}

TEST(Machine, IntegerArithmetic) {
  EXPECT_EQ(run_binary(Opcode::Add, 20, 22), 42);
  EXPECT_EQ(run_binary(Opcode::Sub, 10, 30), -20);
  EXPECT_EQ(run_binary(Opcode::Mul, -6, 7), -42);
  EXPECT_EQ(run_binary(Opcode::Div, 43, 7), 6);
  EXPECT_EQ(run_binary(Opcode::Rem, 43, 7), 1);
}

TEST(Machine, IntegerWraparoundIsDefined) {
  EXPECT_EQ(run_binary(Opcode::Add, 2147483647, 1), -2147483648);
  EXPECT_EQ(run_binary(Opcode::Mul, 1 << 30, 4), 0);
}

TEST(Machine, DivisionIntMinByMinusOneDoesNotTrap) {
  EXPECT_EQ(run_binary(Opcode::Div, -2147483648, -1), -2147483648);
}

TEST(Machine, Shifts) {
  EXPECT_EQ(run_binary(Opcode::Shl, 3, 4), 48);
  EXPECT_EQ(run_binary(Opcode::Shr, -16, 2), -4) << "arithmetic right shift";
  EXPECT_EQ(run_binary(Opcode::Shl, 1, 33), 2) << "shift amount masked to 5 bits";
}

TEST(Machine, Logic) {
  EXPECT_EQ(run_binary(Opcode::And, 12, 10), 8);
  EXPECT_EQ(run_binary(Opcode::Or, 12, 10), 14);
  EXPECT_EQ(run_binary(Opcode::Xor, 12, 10), 6);
}

TEST(Machine, Comparisons) {
  EXPECT_EQ(run_binary(Opcode::CmpLt, -5, 3), 1);
  EXPECT_EQ(run_binary(Opcode::CmpGe, -5, 3), 0);
  EXPECT_EQ(run_binary(Opcode::CmpEq, 9, 9), 1);
  EXPECT_EQ(run_binary(Opcode::CmpNe, 9, 9), 0);
}

TEST(Machine, DivideByZeroTraps) {
  ir::Module m = binary_op_module(Opcode::Div, 1, 0);
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

TEST(Machine, RemainderByZeroTraps) {
  ir::Module m = binary_op_module(Opcode::Rem, 1, 0);
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

/// Float behaviour via BenchC for brevity.
std::int32_t run_source(const char* src) {
  ir::Module m = fe::compile_benchc(src, "m");
  Machine machine(m);
  return machine.run().exit_code;
}

TEST(Machine, FloatArithmetic) {
  EXPECT_EQ(run_source("int main() { return (int)((1.5 + 2.5) * 4.0 / 2.0 - 1.0); }"), 7);
}

TEST(Machine, FloatNegation) {
  EXPECT_EQ(run_source("int main() { float f = 2.5; return (int)(-f * 2.0); }"), -5);
}

TEST(Machine, FpToIntOutOfRangeIsZero) {
  EXPECT_EQ(run_source("int main() { float f = 1e20; return (int)f; }"), 0);
  EXPECT_EQ(run_source("int main() { float f = 1e20; return (int)(f - f * 1.0 + 5.0); }"), 5);
}

TEST(Machine, GlobalsInitializedOnConstruction) {
  ir::Module m = fe::compile_benchc("int a[3] = {5, 6, 7}; int main() { return a[1]; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 6);
  EXPECT_EQ(machine.read_global_i32("a"), (std::vector<std::int32_t>{5, 6, 7}));
}

TEST(Machine, WriteGlobalBeforeRun) {
  ir::Module m = fe::compile_benchc("int x[4]; int main() { return x[0] + x[3]; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{10, 0, 0, 32};
  machine.write_global("x", data);
  EXPECT_EQ(machine.run().exit_code, 42);
}

TEST(Machine, WriteGlobalFloat) {
  ir::Module m = fe::compile_benchc("float x[2]; int main() { return (int)(x[0] * x[1]); }", "g");
  Machine machine(m);
  const std::vector<float> data{2.0f, 21.0f};
  machine.write_global("x", data);
  EXPECT_EQ(machine.run().exit_code, 42);
  const auto back = machine.read_global_f32("x");
  EXPECT_FLOAT_EQ(back[1], 21.0f);
}

TEST(Machine, UnknownGlobalThrows) {
  ir::Module m = fe::compile_benchc("int main() { return 0; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{1};
  EXPECT_THROW(machine.write_global("nope", data), SimError);
  EXPECT_THROW(machine.read_global_i32("nope"), SimError);
}

TEST(Machine, OversizedWriteThrows) {
  ir::Module m = fe::compile_benchc("int x[2]; int main() { return 0; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{1, 2, 3};
  EXPECT_THROW(machine.write_global("x", data), SimError);
}

TEST(Machine, ResetMemoryRestoresInitialImage) {
  ir::Module m = fe::compile_benchc(
      "int a[2] = {1, 2}; int main() { a[0] = 99; return a[0]; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 99);
  machine.reset_memory();
  EXPECT_EQ(machine.read_global_i32("a"), (std::vector<std::int32_t>{1, 2}));
}

TEST(Machine, OutOfBoundsLoadReturnsZeroAndCounts) {
  // Negative index wraps to a huge unsigned address -> speculative 0.
  ir::Module m = fe::compile_benchc(
      "int a[4]; int main() { int i = -1000000000; return a[i]; }", "g");
  Machine machine(m);
  const auto result = machine.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.oob_loads, 1u);
}

TEST(Machine, StepCountMatchesProfileSum) {
  ir::Module m = fe::compile_benchc(
      "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }",
      "g");
  SimResult r = profile_run(m);
  EXPECT_EQ(r.exit_code, 45);
  EXPECT_EQ(r.steps, m.total_dynamic_ops());
}

TEST(Machine, ProfileCountsLoopBodyTimes) {
  ir::Module m = fe::compile_benchc(
      "int g; int main() { int i; for (i = 0; i < 7; i++) g = g + 1; return g; }", "g");
  profile_run(m);
  // Some instruction must have executed exactly 7 times (the body).
  bool found7 = false;
  for (const auto& block : m.functions[0].blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.exec_count == 7) found7 = true;
    }
  }
  EXPECT_TRUE(found7);
}

TEST(Machine, ClearProfileZeroes) {
  ir::Module m = fe::compile_benchc("int main() { return 1; }", "g");
  profile_run(m);
  EXPECT_GT(m.total_dynamic_ops(), 0u);
  clear_profile(m);
  EXPECT_EQ(m.total_dynamic_ops(), 0u);
}

TEST(Machine, StepLimitEnforced) {
  ir::Module m = fe::compile_benchc("int main() { while (1) {} return 0; }", "g");
  Machine machine(m);
  SimOptions options;
  options.max_steps = 1000;
  EXPECT_THROW(machine.run(options), SimError);
}

TEST(Machine, MissingEntryThrows) {
  ir::Module m = fe::compile_benchc("int helper() { return 1; }", "g");
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

TEST(Machine, CustomEntryFunction) {
  ir::Module m = fe::compile_benchc(
      "int helper() { return 31; } int main() { return 1; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run({}, "helper").exit_code, 31);
}

TEST(Machine, IntrinsicsEvaluate) {
  EXPECT_EQ(run_source("int main() { return (int)(expf(0.0) + logf(1.0)); }"), 1);
  EXPECT_EQ(run_source("int main() { return (int)(sqrtf(2.0) * sqrtf(2.0) + 0.001); }"), 2);
}

TEST(Machine, FrameIsolationBetweenCalls) {
  // Each call gets a fresh frame; locals do not alias across calls.
  EXPECT_EQ(run_source(R"(
    int probe(int v) {
      int t[4];
      t[0] = v;
      return t[0];
    }
    int main() {
      int a = probe(5);
      int b = probe(9);
      return a * 10 + b;
    })"), 59);
}

TEST(Machine, RecursionUsesDistinctFrames) {
  EXPECT_EQ(run_source(R"(
    int sum(int n) {
      int local[2];
      local[0] = n;
      if (n == 0) return 0;
      return local[0] + sum(n - 1);
    }
    int main() { return sum(5); })"), 15);
}

// The default frame region is 4 MiB (1,024 pages).  It is a lazily zeroed
// mapping, so a Machine that runs a small program faults in only the pages
// it touches; a zero-filled region would cost one fault per page.
TEST(MachineMemory, SmallModuleLifetimeTouchesFewPages) {
  ir::Module m = fe::compile_benchc(R"(
    int g[4];
    int main() {
      int a[8];
      a[3] = 5;
      g[1] = a[3];
      return g[1];
    })", "pages");
  auto lifetime = [&m] {
    Machine machine(m);
    SimOptions options;
    options.profile = true;
    return machine.run(options).exit_code;
  };
  ASSERT_EQ(lifetime(), 5);  // Warms allocator arenas and the JIT's code pages.
  rusage before{};
  rusage after{};
  getrusage(RUSAGE_SELF, &before);
  const int exit_code = lifetime();
  getrusage(RUSAGE_SELF, &after);
  EXPECT_EQ(exit_code, 5);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 256);
}

TEST(MachineMemory, StoresAfterFaultSeeZeroedFrames) {
  // The faulting run dirties a frame, then the fault releases the region;
  // a local read before it is written must read zero on the next run.
  ir::Module m = fe::compile_benchc(R"(
    int g[1];
    int main() {
      int a[1024];
      int i;
      if (g[0] == 1) return a[700];
      for (i = 0; i < 1024; i++) a[i] = i + 1;
      return a[700] / g[0];
    })", "fault");
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);  // Division by zero.
  machine.write_global("g", std::vector<std::int32_t>{1});
  EXPECT_EQ(machine.run().exit_code, 0);
}

TEST(WordMemory, ZeroClearsExactlyTheRange) {
  const std::size_t words = 5000;  // Several pages and a partial tail page.
  WordMemory memory(words);
  for (std::size_t i = 0; i < words; ++i) memory[i] = static_cast<std::uint32_t>(i + 1);
  memory.zero(3, 4097);
  memory.zero(4500, words);
  for (std::size_t i = 0; i < words; ++i) {
    const bool cleared = (i >= 3 && i < 4097) || i >= 4500;
    ASSERT_EQ(memory[i], cleared ? 0u : static_cast<std::uint32_t>(i + 1)) << i;
  }
  WordMemory moved = std::move(memory);
  EXPECT_EQ(memory.size(), 0u);
  EXPECT_EQ(moved.size(), words);
  EXPECT_EQ(moved[2], 3u);
}

}  // namespace
}  // namespace asipfb::sim
