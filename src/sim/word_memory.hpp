// Zero-initialized word memory that costs nothing until it is written.
//
// The simulator reserves a large frame region for every Machine, of which
// a typical program touches a few pages.  Backing it with an anonymous
// private mapping instead of a zero-filled vector means untouched pages
// are never written nor faulted in: the kernel supplies zero pages on
// first touch, and zero() hands whole pages back so they read as zero
// again without being written.
#pragma once

#include <cstddef>
#include <cstdint>

namespace asipfb::sim {

class WordMemory {
public:
  WordMemory() = default;
  /// `words` zero words; throws std::bad_alloc when the mapping fails.
  explicit WordMemory(std::size_t words);
  ~WordMemory();

  WordMemory(WordMemory&& other) noexcept;
  WordMemory& operator=(WordMemory&& other) noexcept;
  WordMemory(const WordMemory&) = delete;
  WordMemory& operator=(const WordMemory&) = delete;

  [[nodiscard]] std::uint32_t* data() { return words_; }
  [[nodiscard]] const std::uint32_t* data() const { return words_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint32_t& operator[](std::size_t i) { return words_[i]; }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const { return words_[i]; }

  /// Zeroes words [begin, end): writes the partial pages at either edge
  /// and releases the whole pages in between, so the cost follows the
  /// pages actually resident, not the range length.
  void zero(std::size_t begin, std::size_t end);

private:
  void release();

  std::uint32_t* words_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_bytes_ = 0;  ///< size_ words rounded up to whole pages.
};

}  // namespace asipfb::sim
