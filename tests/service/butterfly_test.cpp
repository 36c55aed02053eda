// Sequence length is the one request option that grows analysis cost
// exponentially: on the butterfly every op has two chain predecessors, so
// paths per op double with each step of `max`.  `max` is bounded at
// chain::kMaxSequenceLength, the longest length still completes quickly
// in bounded memory, a request past the coverage path-table cap gets a
// fixed, latched error, and out-of-range lengths get deterministic errors.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>

#include "chain/coverage.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "tests/workloads/butterfly_source.hpp"

namespace asipfb::service {
namespace {

Request butterfly_request(std::uint64_t id, Kind kind, int levels, int max_length) {
  Request r;
  r.id = id;
  r.kind = kind;
  r.workload = "butterfly" + std::to_string(levels);
  r.source = wl::butterfly_source(levels);
  r.level = opt::OptLevel::O1;
  r.detector.max_length = max_length;
  r.coverage.max_length = max_length;
  return r;
}

// Defined first: ru_maxrss is a process-wide high-water mark, so this
// must run before the cap test when the binary runs all tests in one
// process.  The same two requests peaked at 7.8 MB with per-round path
// searches and 5.7 MB with the single path table (Release, standalone).
TEST(ServiceButterfly, LongestLengthCompletesInBoundedMemory) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  const Response detect =
      server.call(butterfly_request(1, Kind::kDetection, 40, chain::kMaxSequenceLength));
  ASSERT_TRUE(detect.ok()) << detect.error;
  EXPECT_GT(detect.sequences, 0u);
  const Response coverage =
      server.call(butterfly_request(2, Kind::kCoverage, 40, chain::kMaxSequenceLength));
  ASSERT_TRUE(coverage.ok()) << coverage.error;
  EXPECT_GT(coverage.total_coverage, 0.0);
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const long peak_mb = usage.ru_maxrss / 1024;  // ru_maxrss is in KiB on Linux.
#if defined(__SANITIZE_ADDRESS__)
  constexpr long kBoundMb = 256;  // Shadow memory and the free quarantine.
#else
  constexpr long kBoundMb = 32;
#endif
  EXPECT_LT(peak_mb, kBoundMb) << "peak RSS " << peak_mb << " MB";
}

TEST(ServiceButterfly, PathTableCapIsALatchedRequestError) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  // 2,500 levels at max=8: ~1.27 million paths, past the 2^20 cap.
  const Request request = butterfly_request(1, Kind::kCoverage, 2500, 8);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Response r = server.call(request);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, chain::kCoveragePathsExceeded);
  }
  // The worker survives and the same Session still answers detection.
  const Response detect = server.call(butterfly_request(2, Kind::kDetection, 2500, 8));
  ASSERT_TRUE(detect.ok()) << detect.error;
}

TEST(ServiceButterfly, MaxOutsideRangeGetsTheSameErrorLineEveryTime) {
  const std::string want_detect =
      R"({"id": 1, "kind": "detect", "workload": "fir", "ok": false, )"
      R"("error": "max_length 9 outside [1, 8]"})";
  const std::string want_coverage =
      R"({"id": 2, "kind": "coverage", "workload": "fir", "ok": false, )"
      R"("error": "max_length 9 outside [1, 8]"})";
  for (int run = 0; run < 2; ++run) {
    Server server;
    for (int attempt = 0; attempt < 2; ++attempt) {
      Request detect;
      detect.id = 1;
      detect.kind = Kind::kDetection;
      detect.workload = "fir";
      detect.detector.max_length = 9;
      EXPECT_EQ(render_response(server.call(detect), false), want_detect);
      Request coverage;
      coverage.id = 2;
      coverage.kind = Kind::kCoverage;
      coverage.workload = "fir";
      coverage.coverage.max_length = 9;
      EXPECT_EQ(render_response(server.call(coverage), false), want_coverage);
    }
  }
}

}  // namespace
}  // namespace asipfb::service
