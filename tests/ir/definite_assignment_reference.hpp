// The dense blocks x registers definite-assignment fixpoint that the
// verifier replaced with a query on analysis::Liveness, kept as the oracle
// its error list is compared against byte for byte.
#pragma once

#include <string>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::ir::reference {

/// The "use of possibly-undefined register" errors of `module`, worded and
/// ordered as ir::verify reports them: function by function.  The module must pass the verifier's
/// structural and instruction checks.
[[nodiscard]] std::vector<std::string> definite_assignment_errors(const Module& module);

}  // namespace asipfb::ir::reference
