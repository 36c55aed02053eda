#include "chain/detect.hpp"

#include <algorithm>
#include <numeric>

namespace asipfb::chain {

namespace {

/// Per-signature running totals, indexed by SignatureIndex id.
struct Totals {
  std::uint64_t cycles = 0;
  std::size_t occurrences = 0;
};

/// Depth-first path enumeration with the branch-and-bound cutoff.  The path
/// is carried as its packed signature and length, so recording a path is
/// one table lookup and two additions.
class PathSearch {
public:
  PathSearch(const RegionGraph& region, const DetectorOptions& options,
             std::uint64_t prune_cycles, SignatureIndex& index,
             std::vector<Totals>& totals, std::size_t& paths)
      : region_(region), options_(options), prune_cycles_(prune_cycles),
        index_(index), totals_(totals), paths_(paths) {}

  void run() {
    for (std::size_t start = 0; start < region_.nodes.size(); ++start) {
      extend(start, UINT64_MAX, 0, 0);
      if (paths_ >= options_.max_occurrences) return;
    }
  }

private:
  /// `depth` nodes precede `node` on the path, packed as `prefix`.
  void extend(std::size_t node, std::uint64_t weight_so_far, std::size_t depth,
              PackedSignature prefix) {
    const auto& n = region_.nodes[node];
    const std::uint64_t weight = std::min(weight_so_far, n.exec_count);
    // Bound: the best any extension of this path can contribute is
    // weight * max_length cycles.  Prune when that is already too small.
    if (weight * static_cast<std::uint64_t>(options_.max_length) < prune_cycles_) {
      return;
    }
    const std::size_t length = depth + 1;
    const PackedSignature key = prefix + pack_class(n.chain_class, depth);
    if (length >= static_cast<std::size_t>(options_.min_length)) {
      record(key, length, weight);
    }
    if (length < static_cast<std::size_t>(options_.max_length) &&
        paths_ < options_.max_occurrences) {
      for (std::size_t succ : region_.succs[node]) {
        if (options_.require_adjacency &&
            region_.nodes[succ].adjacent_pred != node) {
          continue;
        }
        extend(succ, weight, length, key);
      }
    }
  }

  void record(PackedSignature key, std::size_t length, std::uint64_t weight) {
    if (weight == 0 || paths_ >= options_.max_occurrences) return;
    const std::uint32_t id = index_.id(key);
    if (id == totals_.size()) totals_.emplace_back();
    totals_[id].cycles += weight * static_cast<std::uint64_t>(length);
    ++totals_[id].occurrences;
    ++paths_;
  }

  const RegionGraph& region_;
  const DetectorOptions& options_;
  const std::uint64_t prune_cycles_;
  SignatureIndex& index_;
  std::vector<Totals>& totals_;
  std::size_t& paths_;
};

}  // namespace

double DetectionResult::frequency_of(const Signature& sig) const {
  for (const auto& stat : sequences) {
    if (stat.signature == sig) return stat.frequency;
  }
  return 0.0;
}

DetectionResult detect_sequences(const ir::Module& module,
                                 const DetectorOptions& options,
                                 std::uint64_t total_cycles) {
  check_max_length(options.max_length);
  DetectionResult result;
  result.total_cycles = total_cycles != 0 ? total_cycles : module.total_dynamic_ops();

  const auto regions = build_region_graphs(module);
  result.regions = regions.size();

  const auto prune_cycles = static_cast<std::uint64_t>(
      options.prune_percent / 100.0 * static_cast<double>(result.total_cycles));

  SignatureIndex index;
  std::vector<Totals> totals;
  for (const auto& region : regions) {
    PathSearch(region, options, prune_cycles, index, totals, result.paths).run();
    if (result.paths >= options.max_occurrences) break;
  }

  std::vector<double> frequency(totals.size());
  for (std::size_t id = 0; id < totals.size(); ++id) {
    frequency[id] = result.total_cycles == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(totals[id].cycles) /
                              static_cast<double>(result.total_cycles);
  }
  // Descending frequency, ties by ascending signature: packed keys order
  // exactly as Signature::operator<, so no vector is compared.
  const auto& keys = index.keys();
  std::vector<std::uint32_t> order(totals.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (frequency[a] != frequency[b]) return frequency[a] > frequency[b];
    return keys[a] < keys[b];
  });
  result.sequences.reserve(order.size());
  for (const std::uint32_t id : order) {
    result.sequences.push_back(SequenceStat{unpack(keys[id]), totals[id].cycles,
                                            totals[id].occurrences, frequency[id]});
  }
  return result;
}

}  // namespace asipfb::chain
