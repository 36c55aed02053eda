// Per-region chain dependence graphs.
//
// A region is one profile-guided *trace* of the (possibly
// percolation-scheduled) program graph — see analysis/traces.hpp.  The
// trace's blocks are scanned as one linear instruction sequence; an edge
// p -> c exists when c reads the value p defines with no intervening
// redefinition — i.e. the pair could be implemented as a chained operation
// (result forwarded directly, paper section 4).  Edge discovery follows
// *all* operand positions, so address arithmetic chains into loads/stores
// (add-load) and value chains into store data (fmul-fsub-fstore), as the
// paper reports.  Occurrence weights use the minimum execution count along
// the path, which accounts for control leaving the trace between producer
// and consumer.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::chain {

struct RegionNode {
  ir::InstrId instr_id = ir::kNoInstr;    ///< Stable identity for coverage.
  ir::ChainClass chain_class = ir::ChainClass::None;
  std::uint64_t exec_count = 0;           ///< Profile weight of this op.
  /// Node index of the chainable op textually immediately before this one
  /// (SIZE_MAX when the preceding instruction is non-chainable or absent).
  /// An edge p -> c with c.adjacent_pred == p is realizable WITHOUT a
  /// scheduler — the only kind of pair the paper's "no optimization"
  /// analysis can exploit.  Constant materialization breaks adjacency: in
  /// unscheduled 1995-style 3-address code constants are loaded into
  /// registers between the producer and consumer, and it takes the
  /// scheduler's code motion to move them out of the way.
  std::size_t adjacent_pred = SIZE_MAX;
};

struct RegionGraph {
  ir::FuncId func = ir::kNoFunc;
  std::vector<ir::BlockId> blocks;        ///< Trace blocks, in order.
  std::vector<RegionNode> nodes;
  std::vector<std::vector<std::size_t>> succs;  ///< Chain edges (node indices).
};

/// Builds the chain graph of every trace of every function.  Regions without
/// any chain edge are omitted.  Register ids must be below each function's
/// reg_types.size(), as ir::verify checks.
[[nodiscard]] std::vector<RegionGraph> build_region_graphs(const ir::Module& module);

}  // namespace asipfb::chain
