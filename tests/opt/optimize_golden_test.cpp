// Optimizer output pin: FNV-1a digests of cache::serialize of every module
// optimized at O1 and O2, over the suite, the default corpus, and the
// N-`if` scaling ladder.  The digests were taken from the restart-from-
// block-0 percolation scheduler with dense liveness, so any change to hoist
// order, renaming, or liveness that moves a single output byte fails here.
// An intentional output change updates the table from the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "cache/serialize.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "tests/workloads/ladder_source.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
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

/// Folds name + '\n' + the serialized O1 and O2 modules of one program.
std::uint64_t fold(std::uint64_t h, const std::string& source,
                   const std::string& name, const pipeline::WorkloadInput& input) {
  const auto prepared = pipeline::prepare(source, name, input);
  h = fnv1a(name + "\n", h);
  for (const OptLevel level : {OptLevel::O1, OptLevel::O2}) {
    ir::Module module = prepared.module;
    optimize(module, level);
    h = fnv1a(cache::serialize(module), h);
  }
  return h;
}

std::map<std::string, std::uint64_t> digests() {
  std::map<std::string, std::uint64_t> out;
  std::uint64_t h = kFnvOffset;
  for (const auto& w : wl::suite()) h = fold(h, w.source, w.name, w.input);
  out["suite"] = h;
  h = kFnvOffset;
  for (const auto& w : wl::default_corpus()) h = fold(h, w.source, w.name, w.input);
  out["corpus"] = h;
  for (const int n : {50, 100, 200, 400, 800}) {
    const std::string name = "ladder" + std::to_string(n);
    out[name] = fold(kFnvOffset, wl::ladder_source(n), name, {});
  }
  return out;
}

TEST(OptimizeGolden, SerializedO1O2OutputIsPinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"corpus", 0x75b621634d3229c3ull},
      {"ladder100", 0xe64d452e875f3e4aull},
      {"ladder200", 0x1df4b8b9194255f7ull},
      {"ladder400", 0xcc5244e36ab0fc56ull},
      {"ladder50", 0x3701e6e3356a9eeaull},
      {"ladder800", 0x3341060f160b11b8ull},
      {"suite", 0x40b20bc9ab41fb12ull},
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
        << "optimized output for '" << name
        << "' changed bytes.  If intentional, replace the golden table with:\n"
        << replacement;
  }
}

}  // namespace
}  // namespace asipfb::opt
