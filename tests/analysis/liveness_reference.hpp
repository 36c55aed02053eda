// The dense blocks x registers round-robin liveness fixpoint that
// analysis::Liveness replaced, kept as the oracle the per-register solver
// is compared against bit for bit.
#pragma once

#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis::reference {

class DenseLiveness {
public:
  explicit DenseLiveness(const ir::Function& fn);

  [[nodiscard]] bool live_in(ir::BlockId block, ir::Reg reg) const {
    return live_in_[block][reg.id];
  }

  [[nodiscard]] bool live_out(ir::BlockId block, ir::Reg reg) const {
    return live_out_[block][reg.id];
  }

private:
  std::vector<std::vector<bool>> live_in_;
  std::vector<std::vector<bool>> live_out_;
};

}  // namespace asipfb::analysis::reference
