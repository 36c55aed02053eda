// The percolation scaling ladder: N consecutive `if` blocks, each guarding
// an accumulator update whose arithmetic renaming lets speculate upward.
// O2 cost grows with N, which makes it the stress input for the
// percolation scheduler.
#pragma once

#include <string>

namespace asipfb::wl {

inline std::string ladder_source(int n) {
  std::string src = "int a[4];\nint main() {\n  int s = 0;\n  int x = a[1];\n";
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    src += "  if (x > " + k + ") s = s + x * " + k + " + " + k + ";\n";
  }
  src += "  return s;\n}\n";
  return src;
}

}  // namespace asipfb::wl
