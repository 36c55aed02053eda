#include "chain/coverage.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace asipfb::chain {

namespace {

/// One data-flow path of length [min,max] with nonzero weight.  `ops` are
/// dense operation indices (see OpTable); `sig` is the SignatureIndex id of
/// the path's packed signature.
struct PathEntry {
  std::uint64_t weight = 0;
  std::uint32_t sig = 0;
  std::uint32_t length = 0;
  std::array<std::uint32_t, kMaxSequenceLength> ops{};
};

/// Dense numbering of the (func, instr_id) operations of the region nodes.
/// Numbered by value, not by node, so two nodes naming the same
/// instruction share one covered bit, as OpRef equality requires.
struct OpTable {
  std::vector<OpRef> refs;                          ///< By dense index.
  std::vector<std::vector<std::uint32_t>> of_node;  ///< [region][node].

  explicit OpTable(const std::vector<RegionGraph>& regions) {
    for (const auto& region : regions) {
      for (const auto& node : region.nodes) refs.emplace_back(region.func, node.instr_id);
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    of_node.reserve(regions.size());
    for (const auto& region : regions) {
      auto& ops = of_node.emplace_back();
      ops.reserve(region.nodes.size());
      for (const auto& node : region.nodes) {
        const OpRef ref{region.func, node.instr_id};
        ops.push_back(static_cast<std::uint32_t>(
            std::lower_bound(refs.begin(), refs.end(), ref) - refs.begin()));
      }
    }
  }
};

/// Enumerates every path once, in depth-first order (regions, then start
/// nodes, then successors in edge order), into `table`.
class PathEnumerator {
public:
  PathEnumerator(const CoverageOptions& options, SignatureIndex& index,
                 std::vector<PathEntry>& table)
      : options_(options), index_(index), table_(table) {}

  void run(const RegionGraph& region, const std::vector<std::uint32_t>& ops) {
    region_ = &region;
    ops_ = &ops;
    for (std::size_t start = 0; start < region.nodes.size(); ++start) {
      extend(start, UINT64_MAX, 0, 0);
    }
  }

private:
  void extend(std::size_t node, std::uint64_t weight_so_far, std::size_t depth,
              PackedSignature prefix) {
    const RegionNode& n = region_->nodes[node];
    const std::uint64_t weight = std::min(weight_so_far, n.exec_count);
    if (weight == 0) return;
    path_.ops[depth] = (*ops_)[node];
    const std::size_t length = depth + 1;
    const PackedSignature key = prefix + pack_class(n.chain_class, depth);
    if (length >= static_cast<std::size_t>(options_.min_length)) {
      if (table_.size() >= kMaxCoveragePaths) {
        throw std::runtime_error(kCoveragePathsExceeded);
      }
      path_.weight = weight;
      path_.sig = index_.id(key);
      path_.length = static_cast<std::uint32_t>(length);
      table_.push_back(path_);
    }
    if (length < static_cast<std::size_t>(options_.max_length)) {
      for (std::size_t succ : region_->succs[node]) {
        if (options_.require_adjacency &&
            region_->nodes[succ].adjacent_pred != node) {
          continue;
        }
        extend(succ, weight, length, key);
      }
    }
  }

  const CoverageOptions& options_;
  SignatureIndex& index_;
  std::vector<PathEntry>& table_;
  const RegionGraph* region_ = nullptr;
  const std::vector<std::uint32_t>* ops_ = nullptr;
  PathEntry path_;  ///< The path being extended; ops past its length are stale.
};

}  // namespace

CoverageResult coverage_analysis(const ir::Module& module,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  check_max_length(options.max_length);
  CoverageResult result;
  result.total_cycles =
      total_cycles != 0 ? total_cycles : module.total_dynamic_ops();
  if (result.total_cycles == 0) return result;

  const auto regions = build_region_graphs(module);
  const OpTable ops(regions);
  SignatureIndex index;
  std::vector<PathEntry> table;
  {
    PathEnumerator enumerator(options, index, table);
    for (std::size_t r = 0; r < regions.size(); ++r) {
      enumerator.run(regions[r], ops.of_node[r]);
    }
  }
  const std::vector<PackedSignature>& keys = index.keys();

  auto frequency = [&](std::uint64_t cycles) {
    return 100.0 * static_cast<double>(cycles) /
           static_cast<double>(result.total_cycles);
  };

  // A round sees exactly the paths whose operations are all uncovered:
  // those are the paths a covered-pruned search would yield, in the same
  // order.  `live` holds them; covering only grows, so it only shrinks.
  std::vector<std::uint32_t> live(table.size());
  for (std::uint32_t e = 0; e < live.size(); ++e) live[e] = e;
  std::vector<char> covered(ops.refs.size(), 0);
  // taken[op] == stamp marks an op matched by the current candidate.
  std::vector<std::uint32_t> taken(ops.refs.size(), 0);
  std::uint32_t stamp = 0;

  std::vector<std::uint64_t> aggregate(keys.size());
  std::vector<std::uint32_t> count(keys.size());
  std::vector<std::uint32_t> bucket_start(keys.size() + 1);
  std::vector<std::uint32_t> by_sig;
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> occurrences;
  std::vector<std::uint32_t> chosen;
  std::vector<std::uint32_t> best_chosen;

  for (int round = 0; round < options.max_rounds; ++round) {
    if (live.empty()) break;
    // Phase 1: aggregate remaining frequency per signature.
    std::fill(aggregate.begin(), aggregate.end(), 0);
    std::fill(count.begin(), count.end(), 0);
    for (const std::uint32_t e : live) {
      const PathEntry& p = table[e];
      aggregate[p.sig] += p.weight * p.length;
      ++count[p.sig];
    }

    // The top candidates in descending aggregate order, ties by signature.
    candidates.clear();
    for (std::uint32_t s = 0; s < keys.size(); ++s) {
      if (count[s] != 0) candidates.push_back(s);
    }
    const std::size_t candidate_limit = std::min<std::size_t>(16, candidates.size());
    std::partial_sort(candidates.begin(), candidates.begin() + candidate_limit,
                      candidates.end(), [&](std::uint32_t a, std::uint32_t b) {
                        if (aggregate[a] != aggregate[b]) {
                          return aggregate[a] > aggregate[b];
                        }
                        return keys[a] < keys[b];
                      });

    // Bucket the live paths by signature, keeping path order in each.
    bucket_start[0] = 0;
    for (std::size_t s = 0; s < keys.size(); ++s) {
      bucket_start[s + 1] = bucket_start[s] + count[s];
    }
    by_sig.resize(live.size());
    std::fill(count.begin(), count.end(), 0);
    for (const std::uint32_t e : live) {
      const std::uint32_t s = table[e].sig;
      by_sig[bucket_start[s] + count[s]++] = e;
    }

    // Phase 2: realize (greedy non-overlapping matching) each of the top
    // aggregate candidates and commit the one with the highest realized
    // coverage.  Aggregate frequencies over-count overlapping paths of long
    // signatures, so ranking must use realized values.
    constexpr std::uint32_t kNoCandidate = UINT32_MAX;
    std::uint32_t best_sig = kNoCandidate;
    std::uint64_t best_cycles = 0;
    best_chosen.clear();
    for (std::size_t ci = 0; ci < candidate_limit; ++ci) {
      const std::uint32_t s = candidates[ci];
      if (frequency(aggregate[s]) < options.floor_percent) break;
      if (aggregate[s] <= best_cycles) break;  // Aggregate bounds realized.

      occurrences.assign(by_sig.begin() + bucket_start[s],
                         by_sig.begin() + bucket_start[s + 1]);
      std::stable_sort(occurrences.begin(), occurrences.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return table[a].weight > table[b].weight;
                       });

      ++stamp;
      chosen.clear();
      std::uint64_t cycles = 0;
      for (const std::uint32_t e : occurrences) {
        const PathEntry& p = table[e];
        bool disjoint = true;
        for (std::uint32_t k = 0; k < p.length; ++k) {
          if (taken[p.ops[k]] == stamp) disjoint = false;
        }
        if (!disjoint) continue;
        for (std::uint32_t k = 0; k < p.length; ++k) taken[p.ops[k]] = stamp;
        chosen.push_back(e);
        cycles += p.weight * p.length;
      }
      if (cycles > best_cycles) {
        best_sig = s;
        best_cycles = cycles;
        std::swap(best_chosen, chosen);
      }
    }

    if (frequency(best_cycles) < options.floor_percent) break;

    CoverageStep step;
    if (best_sig != kNoCandidate) step.signature = unpack(keys[best_sig]);
    step.cycles = best_cycles;
    step.frequency = frequency(best_cycles);
    step.occurrences_taken = best_chosen.size();
    step.matches.reserve(best_chosen.size());
    for (const std::uint32_t e : best_chosen) {
      const PathEntry& p = table[e];
      auto& match = step.matches.emplace_back();
      match.reserve(p.length);
      for (std::uint32_t k = 0; k < p.length; ++k) {
        covered[p.ops[k]] = 1;
        match.push_back(ops.refs[p.ops[k]]);
      }
    }
    result.total_coverage += step.frequency;
    result.steps.push_back(std::move(step));

    std::erase_if(live, [&](std::uint32_t e) {
      const PathEntry& p = table[e];
      for (std::uint32_t k = 0; k < p.length; ++k) {
        if (covered[p.ops[k]] != 0) return true;
      }
      return false;
    });
  }
  return result;
}

}  // namespace asipfb::chain
