// The per-path std::map aggregation that packed signatures and the single
// path table replaced, kept as the oracle the chain analyses are compared
// against byte for byte: region graphs with a std::map of latest
// definitions, detection aggregating a heap-allocated Signature per path,
// and coverage re-running a covered-pruned path search per round and per
// candidate with std::set bookkeeping.
#pragma once

#include <cstdint>

#include "chain/coverage.hpp"
#include "chain/detect.hpp"

namespace asipfb::chain::reference {

[[nodiscard]] std::vector<RegionGraph> build_region_graphs(const ir::Module& module);

[[nodiscard]] DetectionResult detect_sequences(const ir::Module& module,
                                               const DetectorOptions& options = {},
                                               std::uint64_t total_cycles = 0);

[[nodiscard]] CoverageResult coverage_analysis(const ir::Module& module,
                                               const CoverageOptions& options = {},
                                               std::uint64_t total_cycles = 0);

}  // namespace asipfb::chain::reference
