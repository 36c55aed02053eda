// Chain-analysis output pin: FNV-1a digests of cache::serialize of sequence
// detection at O0/O1/O2, coverage at O0/O1/O2 and the extension proposal at
// O1, over the suite, the default corpus, and the N-`if` scaling ladder.
// The digests were taken from the per-path std::map aggregation with a
// fresh covered-pruned path search per coverage round and per candidate, so
// any change to enumeration order, aggregation, tie-breaking or greedy
// matching that moves a single output byte fails here.  An intentional
// output change updates the table from the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "cache/serialize.hpp"
#include "pipeline/session.hpp"
#include "tests/workloads/ladder_source.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::chain {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over the bytes of `text`, continuing from `h`.
std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Folds name + '\n' + the serialized analyses of one program.
std::uint64_t fold(std::uint64_t h, const std::string& source,
                   const std::string& name, const pipeline::WorkloadInput& input) {
  const pipeline::Session session(source, name, input);
  h = fnv1a(name + "\n", h);
  for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    h = fnv1a(cache::serialize(session.detection(level)), h);
    h = fnv1a(cache::serialize(session.coverage(level)), h);
  }
  return fnv1a(cache::serialize(session.extension(opt::OptLevel::O1)), h);
}

std::map<std::string, std::uint64_t> digests() {
  std::map<std::string, std::uint64_t> out;
  std::uint64_t h = kFnvOffset;
  for (const auto& w : wl::suite()) h = fold(h, w.source, w.name, w.input);
  out["suite"] = h;
  h = kFnvOffset;
  for (const auto& w : wl::default_corpus()) h = fold(h, w.source, w.name, w.input);
  out["corpus"] = h;
  for (const int n : {50, 100, 200, 400}) {
    const std::string name = "ladder" + std::to_string(n);
    out[name] = fold(kFnvOffset, wl::ladder_source(n), name, {});
  }
  return out;
}

TEST(ChainGolden, SerializedDetectionCoverageExtensionIsPinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"corpus", 0xb61ee22894453c48ull},
      {"ladder100", 0x734116ceaabc475ull},
      {"ladder200", 0xcb0462f0f5a05e73ull},
      {"ladder400", 0x7903a424888dda27ull},
      {"ladder50", 0x737e10a60e4c7fbeull},
      {"suite", 0x1cc40796cdc19211ull},
  };

  const auto actual = digests();
  std::string replacement;
  for (const auto& [name, hash] : actual) {
    char row[96];
    std::snprintf(row, sizeof row, "      {\"%s\", 0x%llxull},\n", name.c_str(),
                  static_cast<unsigned long long>(hash));
    replacement += row;
  }
  ASSERT_EQ(actual.size(), golden.size())
      << "digest set changed; the table should read:\n"
      << replacement;
  for (const auto& [name, hash] : golden) {
    EXPECT_EQ(actual.at(name), hash)
        << "analysis output for '" << name
        << "' changed bytes.  If intentional, replace the golden table with:\n"
        << replacement;
  }
}

}  // namespace
}  // namespace asipfb::chain
