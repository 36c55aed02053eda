// Packed-signature detection and single-enumeration coverage against the
// per-path std::map reference (tests/chain/chain_reference.hpp): region
// graphs must be equal and cache::serialize bytes identical at O0/O1/O2
// over the suite, the default corpus and the environment-sized corpus plus
// one mutant per scenario, under every option the service exposes.
#include "tests/chain/chain_reference.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/serialize.hpp"
#include "pipeline/session.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::chain {
namespace {

std::vector<DetectorOptions> detector_variants() {
  std::vector<DetectorOptions> out;
  for (int min = 2; min <= 5; ++min) {
    for (int max = min; max <= 5; ++max) {
      DetectorOptions d;
      d.min_length = min;
      d.max_length = max;
      out.push_back(d);
    }
  }
  for (const double prune : {1.5, 5.0}) {
    DetectorOptions d;
    d.prune_percent = prune;
    out.push_back(d);
  }
  for (const bool adjacency : {false, true}) {
    DetectorOptions d;
    d.require_adjacency = adjacency;
    out.push_back(d);
  }
  DetectorOptions valve;
  valve.max_occurrences = 1000;
  out.push_back(valve);
  valve.prune_percent = 1.5;
  out.push_back(valve);
  return out;
}

std::vector<CoverageOptions> coverage_variants() {
  std::vector<CoverageOptions> out;
  for (int min = 2; min <= 5; ++min) {
    for (int max = min; max <= 5; ++max) {
      CoverageOptions c;
      c.min_length = min;
      c.max_length = max;
      out.push_back(c);
    }
  }
  for (const bool adjacency : {false, true}) {
    CoverageOptions c;
    c.require_adjacency = adjacency;
    out.push_back(c);
  }
  for (const double floor : {2.0, 4.0, 8.0}) {
    for (const int rounds : {1, 12}) {
      CoverageOptions c;
      c.floor_percent = floor;
      c.max_rounds = rounds;
      out.push_back(c);
    }
  }
  return out;
}

bool same_regions(const std::vector<RegionGraph>& a, const std::vector<RegionGraph>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].func != b[r].func || a[r].blocks != b[r].blocks ||
        a[r].succs != b[r].succs || a[r].nodes.size() != b[r].nodes.size()) {
      return false;
    }
    for (std::size_t n = 0; n < a[r].nodes.size(); ++n) {
      const RegionNode& x = a[r].nodes[n];
      const RegionNode& y = b[r].nodes[n];
      if (x.instr_id != y.instr_id || x.chain_class != y.chain_class ||
          x.exec_count != y.exec_count || x.adjacent_pred != y.adjacent_pred) {
        return false;
      }
    }
  }
  return true;
}

/// Mismatching (level, analysis, variant) triples for one program; each is
/// also reported as a test failure naming the program.
int mismatches(const std::string& source, const std::string& name,
               const pipeline::WorkloadInput& input) {
  static const auto detectors = detector_variants();
  static const auto coverages = coverage_variants();
  const pipeline::Session session(source, name, input);
  const std::uint64_t total = session.total_cycles();
  int bad = 0;
  for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    const ir::Module& module = session.optimized(level);
    const std::string where = name + " at " + std::string(opt::to_string(level));
    if (!same_regions(build_region_graphs(module), reference::build_region_graphs(module))) {
      ADD_FAILURE() << "region graphs differ: " << where;
      ++bad;
    }
    for (std::size_t v = 0; v < detectors.size(); ++v) {
      if (cache::serialize(detect_sequences(module, detectors[v], total)) !=
          cache::serialize(reference::detect_sequences(module, detectors[v], total))) {
        ADD_FAILURE() << "detection differs: " << where << ", variant " << v;
        ++bad;
      }
    }
    for (std::size_t v = 0; v < coverages.size(); ++v) {
      if (cache::serialize(coverage_analysis(module, coverages[v], total)) !=
          cache::serialize(reference::coverage_analysis(module, coverages[v], total))) {
        ADD_FAILURE() << "coverage differs: " << where << ", variant " << v;
        ++bad;
      }
    }
  }
  return bad;
}

TEST(ChainReference, SuiteMatchesReference) {
  int bad = 0;
  for (const auto& w : wl::suite()) bad += mismatches(w.source, w.name, w.input);
  EXPECT_EQ(bad, 0);
}

TEST(ChainReference, DefaultCorpusMatchesReference) {
  int bad = 0;
  for (const auto& w : wl::default_corpus()) bad += mismatches(w.source, w.name, w.input);
  EXPECT_EQ(bad, 0);
}

// The population scales with ASIPFB_FUZZ_COUNT; each scenario also gets
// one stack of three mutations.
TEST(ChainReference, EnvCorpusAndMutantsMatchReference) {
  const auto corpus = wl::corpus(wl::env_corpus_spec());
  int bad = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& w = corpus[i];
    bad += mismatches(w.source, w.name, w.input);
    const auto mutant = wl::mutate(w.source, 0x9E3779B9u + i, 3);
    bad += mismatches(mutant.source, w.name + "_mut", w.input);
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace asipfb::chain
