#include "tests/chain/chain_reference.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "analysis/traces.hpp"

namespace asipfb::chain::reference {

std::vector<RegionGraph> build_region_graphs(const ir::Module& module) {
  std::vector<RegionGraph> regions;

  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const auto& fn = module.functions[f];
    const auto traces = analysis::form_traces(fn);

    for (const auto& trace : traces) {
      RegionGraph region;
      region.func = static_cast<ir::FuncId>(f);
      region.blocks = trace;

      // Latest definition of each register so far; values are indices into
      // region.nodes, or -1 for a definition by a non-chainable op.
      std::map<std::uint32_t, int> latest_def;
      // Most recent chainable op with only constants after it (see
      // RegionNode::adjacent_pred).
      std::size_t adjacent_candidate = SIZE_MAX;

      for (ir::BlockId b : trace) {
        for (const auto& instr : fn.blocks[b].instrs) {
          int this_node = -1;
          if (ir::chainable(instr.op)) {
            RegionNode node;
            node.instr_id = instr.id;
            node.chain_class = instr.chain_class();
            node.exec_count = instr.exec_count;
            node.adjacent_pred = adjacent_candidate;
            this_node = static_cast<int>(region.nodes.size());
            region.nodes.push_back(node);
            region.succs.emplace_back();

            // Chain edges from the latest chainable producers of operands
            // (deduplicated: one edge even if both operands match).
            int last_producer = -1;
            for (ir::Reg a : instr.args) {
              const auto def = latest_def.find(a.id);
              if (def == latest_def.end()) continue;
              const int producer = def->second;
              if (producer < 0 || producer == last_producer) continue;
              region.succs[static_cast<std::size_t>(producer)].push_back(
                  static_cast<std::size_t>(this_node));
              last_producer = producer;
            }
          }
          if (instr.dst) latest_def[instr.dst->id] = this_node;

          // Track textual adjacency: a chainable op becomes the candidate
          // for its textual successor; any other instruction (constant
          // materialization, copies, branches, ...) breaks the run — the
          // unscheduled 3-address stream executes strictly in order, so a
          // wedged instruction prevents single-instruction fusion.
          adjacent_candidate =
              this_node >= 0 ? static_cast<std::size_t>(this_node) : SIZE_MAX;
        }
      }

      bool has_edges = false;
      for (const auto& s : region.succs) {
        if (!s.empty()) has_edges = true;
      }
      if (has_edges) regions.push_back(std::move(region));
    }
  }
  return regions;
}

namespace {

/// Depth-first path enumeration with the branch-and-bound cutoff.
class PathSearch {
public:
  PathSearch(const RegionGraph& region, const DetectorOptions& options,
             std::uint64_t prune_cycles, std::map<Signature, SequenceStat>& stats,
             std::size_t& paths)
      : region_(region), options_(options), prune_cycles_(prune_cycles),
        stats_(stats), paths_(paths) {}

  void run() {
    for (std::size_t start = 0; start < region_.nodes.size(); ++start) {
      path_.clear();
      extend(start, UINT64_MAX);
      if (paths_ >= options_.max_occurrences) return;
    }
  }

private:
  void extend(std::size_t node, std::uint64_t weight_so_far) {
    const auto& n = region_.nodes[node];
    const std::uint64_t weight = std::min(weight_so_far, n.exec_count);
    // Bound: the best any extension of this path can contribute is
    // weight * max_length cycles.  Prune when that is already too small.
    if (weight * static_cast<std::uint64_t>(options_.max_length) < prune_cycles_) {
      return;
    }
    path_.push_back(node);
    if (path_.size() >= static_cast<std::size_t>(options_.min_length)) {
      record(weight);
    }
    if (path_.size() < static_cast<std::size_t>(options_.max_length) &&
        paths_ < options_.max_occurrences) {
      for (std::size_t succ : region_.succs[node]) {
        if (options_.require_adjacency &&
            region_.nodes[succ].adjacent_pred != node) {
          continue;
        }
        extend(succ, weight);
      }
    }
    path_.pop_back();
  }

  void record(std::uint64_t weight) {
    if (weight == 0 || paths_ >= options_.max_occurrences) return;
    Signature sig;
    sig.classes.reserve(path_.size());
    for (std::size_t node : path_) {
      sig.classes.push_back(region_.nodes[node].chain_class);
    }
    auto& stat = stats_[sig];
    stat.signature = std::move(sig);
    stat.cycles += weight * static_cast<std::uint64_t>(path_.size());
    ++stat.occurrences;
    ++paths_;
  }

  const RegionGraph& region_;
  const DetectorOptions& options_;
  const std::uint64_t prune_cycles_;
  std::map<Signature, SequenceStat>& stats_;
  std::size_t& paths_;
  std::vector<std::size_t> path_;
};

}  // namespace

DetectionResult detect_sequences(const ir::Module& module,
                                 const DetectorOptions& options,
                                 std::uint64_t total_cycles) {
  DetectionResult result;
  result.total_cycles = total_cycles != 0 ? total_cycles : module.total_dynamic_ops();

  const auto regions = build_region_graphs(module);
  result.regions = regions.size();

  const auto prune_cycles = static_cast<std::uint64_t>(
      options.prune_percent / 100.0 * static_cast<double>(result.total_cycles));

  std::map<Signature, SequenceStat> stats;
  for (const auto& region : regions) {
    PathSearch(region, options, prune_cycles, stats, result.paths).run();
    if (result.paths >= options.max_occurrences) break;
  }

  result.sequences.reserve(stats.size());
  for (auto& [sig, stat] : stats) {
    (void)sig;
    stat.frequency = result.total_cycles == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(stat.cycles) /
                               static_cast<double>(result.total_cycles);
    result.sequences.push_back(std::move(stat));
  }
  std::sort(result.sequences.begin(), result.sequences.end(),
            [](const SequenceStat& a, const SequenceStat& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.signature < b.signature;
            });
  return result;
}

namespace {

using OpKey = OpRef;

/// Enumerates every path of length [min,max] avoiding covered ops and
/// invokes `fn(path_node_indices, weight)` for each.
template <typename Callback>
void for_each_path(const RegionGraph& region, const std::set<OpKey>& covered,
                   const CoverageOptions& options, const Callback& fn) {
  std::vector<std::size_t> path;
  auto covered_node = [&](std::size_t node) {
    return covered.count({region.func, region.nodes[node].instr_id}) != 0;
  };

  const auto extend = [&](const auto& self, std::size_t node,
                          std::uint64_t weight_so_far) -> void {
    const std::uint64_t weight =
        std::min(weight_so_far, region.nodes[node].exec_count);
    if (weight == 0) return;
    path.push_back(node);
    if (path.size() >= static_cast<std::size_t>(options.min_length)) {
      fn(path, weight);
    }
    if (path.size() < static_cast<std::size_t>(options.max_length)) {
      for (std::size_t succ : region.succs[node]) {
        if (options.require_adjacency &&
            region.nodes[succ].adjacent_pred != node) {
          continue;
        }
        if (!covered_node(succ)) self(self, succ, weight);
      }
    }
    path.pop_back();
  };

  for (std::size_t start = 0; start < region.nodes.size(); ++start) {
    if (!covered_node(start)) extend(extend, start, UINT64_MAX);
  }
}

}  // namespace

CoverageResult coverage_analysis(const ir::Module& module,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  CoverageResult result;
  result.total_cycles =
      total_cycles != 0 ? total_cycles : module.total_dynamic_ops();
  if (result.total_cycles == 0) return result;

  const auto regions = build_region_graphs(module);
  std::set<OpKey> covered;

  auto frequency = [&](std::uint64_t cycles) {
    return 100.0 * static_cast<double>(cycles) /
           static_cast<double>(result.total_cycles);
  };

  for (int round = 0; round < options.max_rounds; ++round) {
    // Phase 1: aggregate remaining frequency per signature.
    std::map<Signature, std::uint64_t> aggregate;
    for (const auto& region : regions) {
      for_each_path(region, covered, options,
                    [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                      Signature sig;
                      sig.classes.reserve(path.size());
                      for (std::size_t node : path) {
                        sig.classes.push_back(region.nodes[node].chain_class);
                      }
                      aggregate[sig] +=
                          weight * static_cast<std::uint64_t>(path.size());
                    });
    }
    if (aggregate.empty()) break;

    // Candidates in descending aggregate order.
    std::vector<std::pair<std::uint64_t, Signature>> candidates;
    candidates.reserve(aggregate.size());
    for (auto& [sig, cycles] : aggregate) candidates.emplace_back(cycles, sig);
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    // Phase 2: realize (greedy non-overlapping matching) each of the top
    // aggregate candidates and commit the one with the highest realized
    // coverage.  Aggregate frequencies over-count overlapping paths of long
    // signatures, so ranking must use realized values.
    struct Realization {
      Signature signature;
      std::set<OpKey> taken;
      std::vector<std::vector<OpKey>> matches;
      std::uint64_t cycles = 0;
      std::size_t occurrences = 0;
    };
    Realization best;
    const std::size_t candidate_limit = 16;
    for (std::size_t ci = 0; ci < candidates.size() && ci < candidate_limit; ++ci) {
      const auto& [agg_cycles, sig] = candidates[ci];
      if (frequency(agg_cycles) < options.floor_percent) break;
      if (agg_cycles <= best.cycles) break;  // Aggregate bounds realized.

      struct Occurrence {
        std::uint64_t weight;
        std::vector<OpKey> ops;
      };
      std::vector<Occurrence> occurrences;
      for (const auto& region : regions) {
        for_each_path(
            region, covered, options,
            [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
              if (path.size() != sig.classes.size()) return;
              for (std::size_t k = 0; k < path.size(); ++k) {
                if (region.nodes[path[k]].chain_class != sig.classes[k]) return;
              }
              Occurrence occ;
              occ.weight = weight;
              occ.ops.reserve(path.size());
              for (std::size_t node : path) {
                occ.ops.emplace_back(region.func, region.nodes[node].instr_id);
              }
              occurrences.push_back(std::move(occ));
            });
      }
      std::stable_sort(occurrences.begin(), occurrences.end(),
                       [](const Occurrence& a, const Occurrence& b) {
                         return a.weight > b.weight;
                       });

      Realization r;
      r.signature = sig;
      for (const auto& occ : occurrences) {
        bool disjoint = true;
        for (const OpKey& op : occ.ops) {
          if (r.taken.count(op) != 0) disjoint = false;
        }
        if (!disjoint) continue;
        for (const OpKey& op : occ.ops) r.taken.insert(op);
        r.matches.push_back(occ.ops);
        r.cycles += occ.weight * occ.ops.size();
        ++r.occurrences;
      }
      if (r.cycles > best.cycles) best = std::move(r);
    }

    if (frequency(best.cycles) < options.floor_percent) break;

    covered.insert(best.taken.begin(), best.taken.end());
    CoverageStep step;
    step.signature = best.signature;
    step.cycles = best.cycles;
    step.frequency = frequency(best.cycles);
    step.occurrences_taken = best.occurrences;
    step.matches = std::move(best.matches);
    result.total_coverage += step.frequency;
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace asipfb::chain::reference
