/// \file sram.cpp
/// Host backing for a Tensix core's SRAM.

#include "ttsim/sim/sram.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace ttsim::sim {

Sram::~Sram() {
  if (storage_ != nullptr) munmap(storage_, mapped_bytes_);
}

void Sram::map_backing() {
  // A private anonymous mapping reads zero until written, and only the pages
  // a kernel touches become resident: a row-chunk Jacobi core uses ~45 KB of
  // its 1 MB, so zero-filling the whole SRAM up front would cost far more
  // than the solve touches. One mapping per core keeps each below the 2 MiB
  // a transparent huge page needs, where one touched byte would zero 2 MiB.
  //
  // The page after the SRAM is mapped PROT_NONE: an over-read past the top
  // (at a page-multiple capacity, as every spec has) faults in every build,
  // where a heap block relied on ASan's redzone. It also keeps the kernel
  // from merging neighbouring cores' mappings into one huge-page-sized area.
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  const std::uint64_t backing = align_up(capacity_, page);
  const std::size_t bytes = backing + page;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                 -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<std::byte*>(p);
  if (mprotect(base + backing, page, PROT_NONE) != 0) {
    munmap(p, bytes);
    throw std::bad_alloc();
  }
  storage_ = base;
  mapped_bytes_ = bytes;
}

}  // namespace ttsim::sim
