#include "chain/signature.hpp"

#include <stdexcept>

namespace asipfb::chain {

std::string Signature::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (i != 0) out += '-';
    out += std::string(ir::to_string(classes[i]));
  }
  return out;
}

std::optional<Signature> parse_signature(std::string_view text) {
  Signature sig;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dash = text.find('-', start);
    const std::string_view word =
        text.substr(start, dash == std::string_view::npos ? text.size() - start
                                                          : dash - start);
    bool found = false;
    for (int c = 0; c <= static_cast<int>(ir::ChainClass::None); ++c) {
      const auto cc = static_cast<ir::ChainClass>(c);
      if (cc != ir::ChainClass::None && ir::to_string(cc) == word) {
        sig.classes.push_back(cc);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
    if (dash == std::string_view::npos) break;
    start = dash + 1;
  }
  if (sig.classes.empty()) return std::nullopt;
  return sig;
}

void check_max_length(int max_length) {
  if (max_length < 1 || max_length > kMaxSequenceLength) {
    throw std::invalid_argument("max_length " + std::to_string(max_length) +
                                " outside [1, " +
                                std::to_string(kMaxSequenceLength) + "]");
  }
}

PackedSignature pack(const Signature& sig) {
  PackedSignature key = 0;
  for (std::size_t i = 0; i < sig.classes.size(); ++i) {
    key += pack_class(sig.classes[i], i);
  }
  return key;
}

Signature unpack(PackedSignature key) {
  Signature sig;
  for (std::size_t i = 0; i < kMaxSequenceLength; ++i) {
    const PackedSignature weight = kPackWeights[i];
    const PackedSignature digit = key / weight;
    if (digit == 0) break;
    sig.classes.push_back(static_cast<ir::ChainClass>(digit - 1));
    key -= digit * weight;
  }
  return sig;
}

namespace {

/// Home slot of `key` in a table of mask + 1 slots (Fibonacci hashing).
std::size_t home_slot(PackedSignature key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

std::uint32_t SignatureIndex::id(PackedSignature key) {
  if (2 * (keys_.size() + 1) > slot_keys_.size()) grow();
  const std::size_t mask = slot_keys_.size() - 1;
  std::size_t slot = home_slot(key, mask);
  while (slot_keys_[slot] != 0) {
    if (slot_keys_[slot] == key) return slot_ids_[slot];
    slot = (slot + 1) & mask;
  }
  slot_keys_[slot] = key;
  slot_ids_[slot] = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  return slot_ids_[slot];
}

void SignatureIndex::grow() {
  const std::size_t capacity = slot_keys_.empty() ? 64 : 2 * slot_keys_.size();
  slot_keys_.assign(capacity, 0);
  slot_ids_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t i = 0; i < keys_.size(); ++i) {
    std::size_t slot = home_slot(keys_[i], mask);
    while (slot_keys_[slot] != 0) slot = (slot + 1) & mask;
    slot_keys_[slot] = keys_[i];
    slot_ids_[slot] = i;
  }
}

}  // namespace asipfb::chain
