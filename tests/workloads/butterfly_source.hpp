// The path-count stress input: `levels` butterfly stages (x' = x + y,
// y' = x - y) in straight-line code.  Every add and subtract reads both
// results of the stage before, so each chainable op has two chain
// predecessors and the number of data-flow paths ending at it doubles
// with every step of length: 2^L - 2 paths of length 2..L per op.
#pragma once

#include <string>

namespace asipfb::wl {

inline std::string butterfly_source(int levels) {
  std::string src =
      "int a[2];\nint main() {\n  int x = a[0];\n  int y = a[1];\n  int u;\n  int v;\n";
  for (int i = 0; i < levels; i += 2) {
    src += "  u = x + y;\n  v = x - y;\n  x = u + v;\n  y = u - v;\n";
  }
  src += "  return x + y;\n}\n";
  return src;
}

}  // namespace asipfb::wl
