// One inline source must not pin a worker: the N=800 `if`-ladder, whose O2
// percolation is the most expensive stage of a cold request, completes on a
// one-worker Server, which then still answers.  Under the cubic
// restart-from-block-0 scheduler this request ran for over 300 s; the ctest
// TIMEOUT on this binary (CMakeLists.txt) turns a regression into a fast
// failure.
#include <gtest/gtest.h>

#include <string>

#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "service/server.hpp"
#include "tests/workloads/ladder_source.hpp"

namespace asipfb::service {
namespace {

TEST(ServiceLadder, N800DetectAtO2CompletesAndServerStillAnswers) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  Request ladder;
  ladder.id = 1;
  ladder.kind = Kind::kDetection;
  ladder.workload = "ladder800";
  ladder.source = wl::ladder_source(800);
  ladder.level = opt::OptLevel::O2;
  const Response result = server.call(ladder);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.sequences, 0u);

  Request ping;
  ping.id = 2;
  ping.kind = Kind::kCompile;
  ping.workload = "ping";
  ping.source = "int main() { return 7; }\n";
  const Response pong = server.call(ping);
  ASSERT_TRUE(pong.ok()) << pong.error;
  EXPECT_EQ(pong.exit_code, 7);
  EXPECT_EQ(server.workers(), 1u);
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(ServiceLadder, N800HoistCountIsPinned) {
  auto module = pipeline::prepare(wl::ladder_source(800), "ladder800", {}).module;
  const auto stats = opt::optimize(module, opt::OptLevel::O2);
  EXPECT_EQ(stats.percolation.ops_hoisted, 3365);
  EXPECT_EQ(stats.percolation.passes, 2);
  EXPECT_EQ(stats.repair_copies, 802);
}

}  // namespace
}  // namespace asipfb::service
