#include "sim/word_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>
#include <utility>

namespace asipfb::sim {

namespace {

std::size_t page_bytes() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

WordMemory::WordMemory(std::size_t words) : size_(words) {
  if (words == 0) return;
  const std::size_t page = page_bytes();
  mapped_bytes_ = (words * sizeof(std::uint32_t) + page - 1) / page * page;
  void* p = mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  // A huge page would zero 2 MiB on the first frame store.
  (void)madvise(p, mapped_bytes_, MADV_NOHUGEPAGE);
#endif
  words_ = static_cast<std::uint32_t*>(p);
}

WordMemory::~WordMemory() { release(); }

WordMemory::WordMemory(WordMemory&& other) noexcept
    : words_(std::exchange(other.words_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

WordMemory& WordMemory::operator=(WordMemory&& other) noexcept {
  if (this != &other) {
    release();
    words_ = std::exchange(other.words_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

void WordMemory::release() {
  if (words_ != nullptr) munmap(words_, mapped_bytes_);
  words_ = nullptr;
}

void WordMemory::zero(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  char* const base = reinterpret_cast<char*>(words_);
  const std::size_t first = begin * sizeof(std::uint32_t);
  const std::size_t last = end * sizeof(std::uint32_t);
#ifdef __linux__
  // On Linux, MADV_DONTNEED on a private anonymous mapping makes the pages
  // read as zero again.  The tail page past size_ is part of the mapping,
  // so a range ending at size_ releases it whole.
  const std::size_t page = page_bytes();
  const std::size_t lo = (first + page - 1) / page * page;
  const std::size_t hi = end == size_ ? mapped_bytes_ : last / page * page;
  if (lo < hi && madvise(base + lo, hi - lo, MADV_DONTNEED) == 0) {
    std::memset(base + first, 0, lo - first);
    if (hi < last) std::memset(base + hi, 0, last - hi);
    return;
  }
#endif
  std::memset(base + first, 0, last - first);
}

}  // namespace asipfb::sim
