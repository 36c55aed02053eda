// compile_benchc's verification step seen from the source: the exact
// diagnostics for locals read before any write, and bounded time and
// memory on a large inline source (the service accepts sources this big).
#include "frontend/compile.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <stdexcept>
#include <string>

#include "tests/workloads/ladder_source.hpp"

namespace asipfb::fe {
namespace {

TEST(CompileVerify, UninitializedLocalsGiveExactDiagnostics) {
  const char* const source = R"(int g[4];
int main() {
  int x;
  int y;
  int z;
  float f;
  int i;
  if (g[0] > 0) x = 1; else y = 2;
  for (i = 0; i < 4; i++) {
    if (i > 1) z = x + y;
    g[i] = z + i;
  }
  return x + y + z + (int)f;
}
)";
  try {
    (void)compile_benchc(source, "uninit");
    FAIL() << "expected a verification failure";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "IR verification failed for module 'uninit':\n"
              "  function 'main': use of possibly-undefined register r0 in 'r20 = add r0, r1'\n"
              "  function 'main': use of possibly-undefined register r1 in 'r20 = add r0, r1'\n"
              "  function 'main': use of possibly-undefined register r2 in 'r21 = add r20, r2'\n"
              "  function 'main': use of possibly-undefined register r3 in 'r22 = ftoi r3'\n"
              "  function 'main': use of possibly-undefined register r0 in 'r2 = add r0, r1'\n"
              "  function 'main': use of possibly-undefined register r1 in 'r2 = add r0, r1'\n"
              "  function 'main': use of possibly-undefined register r2 in 'r17 = add r2, r4'");
  }
}

// Errors in one function must not hide those of the functions after it.
TEST(CompileVerify, EveryFunctionWithUninitializedLocalsIsReported) {
  const char* const source = R"(int g[4];
int helper(int n) {
  int t;
  return t + n;
}
int main() {
  int x;
  return x + helper(g[1]);
}
)";
  try {
    (void)compile_benchc(source, "uninit2");
    FAIL() << "expected a verification failure";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "IR verification failed for module 'uninit2':\n"
              "  function 'helper': use of possibly-undefined register r1 in 'r2 = add r1, r0'\n"
              "  function 'main': use of possibly-undefined register r0 in 'r6 = add r0, r5'");
  }
}

TEST(CompileVerify, TwentyThousandIfLadderCompilesInBoundedMemory) {
  // ~0.9 MB of source, 40,001 blocks and 120,281 registers.  A dense
  // blocks x registers dataflow over this function needs ~600 MB for one
  // bit matrix and took about a minute.
  const std::string source = wl::ladder_source(20000);
  const ir::Module module = compile_benchc(source, "ladder20000");
  ASSERT_EQ(module.functions.size(), 1u);
  EXPECT_EQ(module.functions[0].blocks.size(), 40001u);

  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const long peak_mb = usage.ru_maxrss / 1024;  // ru_maxrss is in KiB on Linux.
#if defined(__SANITIZE_ADDRESS__)
  constexpr long kBoundMb = 1024;  // Shadow memory and the free quarantine.
#else
  constexpr long kBoundMb = 256;
#endif
  EXPECT_LT(peak_mb, kBoundMb) << "peak RSS " << peak_mb << " MB";
}

}  // namespace
}  // namespace asipfb::fe
