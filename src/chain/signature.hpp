// Sequence signatures — the names of candidate chained instructions.
//
// A signature is the ordered list of chain operator classes along a data-flow
// path, e.g. multiply-add (the MAC of the paper's TMS320C5x example) or
// fload-fmultiply.  Signatures are the unit of aggregation for frequencies
// (Figures 3-6, Table 2) and the unit of selection for coverage (Table 3)
// and for ASIP instruction-set extension.
//
// Inside the analyses a signature travels packed into one integer (see
// PackedSignature); the vector form is built only for result structs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/opcode.hpp"

namespace asipfb::chain {

struct Signature {
  std::vector<ir::ChainClass> classes;

  [[nodiscard]] std::size_t length() const { return classes.size(); }

  /// Paper-style name: classes joined with '-' ("add-shift-add").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.classes == b.classes;
  }
  friend bool operator<(const Signature& a, const Signature& b) {
    return a.classes < b.classes;
  }
};

/// Parses "multiply-add" style names; returns nullopt on unknown class names.
[[nodiscard]] std::optional<Signature> parse_signature(std::string_view text);

/// Longest sequence the analyses accept (the paper searches 2-5).
inline constexpr int kMaxSequenceLength = 8;

/// Throws std::invalid_argument unless 1 <= max_length <= kMaxSequenceLength.
void check_max_length(int max_length);

/// A signature of at most kMaxSequenceLength classes as one integer: the
/// digits class+1 in base 17, most significant first, zero-padded to
/// kMaxSequenceLength digits.  A shorter signature is a prefix padded with
/// zeros, so numeric order equals Signature::operator<; 0 is the empty
/// signature.  17^8 < 2^33, so every key fits.
using PackedSignature = std::uint64_t;

/// Digit weights by position: 17^(kMaxSequenceLength - 1 - position).
inline constexpr std::array<PackedSignature, kMaxSequenceLength> kPackWeights = [] {
  std::array<PackedSignature, kMaxSequenceLength> w{};
  PackedSignature weight = 1;
  for (int i = kMaxSequenceLength - 1; i >= 0; --i, weight *= 17) w[i] = weight;
  return w;
}();
static_assert(static_cast<int>(ir::ChainClass::None) == 16,
              "the packed radix is one more than the class count");

/// The packed contribution of `c` at `position` (0 = first class).
[[nodiscard]] constexpr PackedSignature pack_class(ir::ChainClass c,
                                                   std::size_t position) {
  return (static_cast<PackedSignature>(c) + 1) * kPackWeights[position];
}

/// Requires sig.length() <= kMaxSequenceLength.
[[nodiscard]] PackedSignature pack(const Signature& sig);
[[nodiscard]] Signature unpack(PackedSignature key);

/// Dense numbering of packed signatures in first-seen order: an
/// open-addressing table that allocates only when it grows, so the path
/// searches can aggregate per signature without touching the heap per path.
class SignatureIndex {
public:
  /// The dense id of `key` (nonzero), numbering it on first sight.
  std::uint32_t id(PackedSignature key);

  /// Keys by dense id.
  [[nodiscard]] const std::vector<PackedSignature>& keys() const { return keys_; }

private:
  void grow();

  std::vector<PackedSignature> slot_keys_;  ///< 0 = empty slot.
  std::vector<std::uint32_t> slot_ids_;
  std::vector<PackedSignature> keys_;
};

}  // namespace asipfb::chain
