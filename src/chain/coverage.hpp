// Iterative sequence-coverage analysis (paper section 7, Table 3).
//
// Repeatedly: find the signature with the highest aggregate frequency over
// still-uncovered operations, greedily commit a maximal set of
// NON-OVERLAPPING occurrences of it (each operation is covered by at most
// one chained instruction), and continue until no signature achieves the
// significance floor.  Total coverage is the percentage of dynamic
// operation-cycles covered by the selected chained instructions.
//
// Every path of length [min,max] is enumerated once per call, in
// depth-first order, into a flat table of (weight, packed-signature id,
// length, dense operation indices).  A round uses the entries whose
// operations are all uncovered -- exactly the paths a covered-pruned search
// would yield, in the same order -- aggregates them by signature id,
// realizes the top candidates over that filtered table, and marks matches
// in a dense bitmap.  With at most two chain predecessors per operation,
// at most 2^L - 2 paths of length 2..L end at one operation; the table is
// capped at kMaxCoveragePaths entries and a run past the cap throws.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/detect.hpp"

namespace asipfb::chain {

struct CoverageOptions {
  int min_length = 2;
  int max_length = 5;
  double floor_percent = 4.0;  ///< Stop below this realized frequency.
  int max_rounds = 12;         ///< Maximum chained instructions selected.
  bool require_adjacency = false;  ///< See DetectorOptions::require_adjacency.
};

/// Reference to one static instruction of a module.
using OpRef = std::pair<ir::FuncId, ir::InstrId>;

/// One selected chained instruction.
struct CoverageStep {
  Signature signature;
  double frequency = 0.0;           ///< Realized (non-overlapping) frequency.
  std::uint64_t cycles = 0;         ///< Covered operation-cycles.
  std::size_t occurrences_taken = 0;
  /// The committed non-overlapping occurrences: the exact instructions each
  /// chained-instruction instance fuses (ordered producer -> consumer).
  /// Consumed by the ASIP rewriter (asip/rewrite.hpp).
  std::vector<std::vector<OpRef>> matches;
};

struct CoverageResult {
  std::vector<CoverageStep> steps;
  double total_coverage = 0.0;      ///< Sum of step frequencies.
  std::uint64_t total_cycles = 0;   ///< Denominator used.
};

/// Most paths one coverage run may hold (PathEntry is 48 bytes, so about
/// 48 MB).  With at most two chain predecessors per operation, at most
/// 2^L - 2 paths of length 2..L end at one operation, so the cap is reached
/// only by thousands of densely chained operations at the longest lengths.
inline constexpr std::size_t kMaxCoveragePaths = std::size_t{1} << 20;

/// what() of the std::runtime_error thrown when a run exceeds the cap.
inline constexpr const char* kCoveragePathsExceeded =
    "coverage: more than 1048576 data-flow paths (lower max)";

/// Runs the iterative analysis.  `total_cycles` as in detect_sequences.
/// Throws std::invalid_argument unless 1 <= max_length <= kMaxSequenceLength.
[[nodiscard]] CoverageResult coverage_analysis(const ir::Module& module,
                                               const CoverageOptions& options = {},
                                               std::uint64_t total_cycles = 0);

}  // namespace asipfb::chain
