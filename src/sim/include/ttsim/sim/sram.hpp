#pragma once
/// \file sram.hpp
/// The 1 MB local SRAM inside each Tensix core. Circular buffers and
/// kernel-local scratch buffers are carved out of it with a bump allocator
/// (mirroring tt-metal's L1 allocation): the paper's optimised kernel
/// allocates a four-batch local buffer here (Section VI).

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ttsim/common/check.hpp"
#include "ttsim/common/units.hpp"

namespace ttsim::sim {

class Sram {
 public:
  explicit Sram(std::uint64_t bytes) : capacity_(bytes) {}
  ~Sram();
  Sram(const Sram&) = delete;
  Sram& operator=(const Sram&) = delete;

  /// Allocate `size` bytes aligned to `align`; throws ApiError when the
  /// core's SRAM is exhausted (a real failure mode when sizing CBs).
  std::uint32_t allocate(std::uint64_t size, std::uint64_t align = 32) {
    TTSIM_CHECK(size > 0);
    TTSIM_CHECK(is_pow2(align));
    const std::uint64_t base = align_up(top_, align);
    if (base + size > capacity_) {
      TTSIM_THROW_API("Tensix SRAM exhausted: requested " << size << " bytes with "
                      << (capacity_ - top_) << " of " << capacity_ << " free");
    }
    top_ = base + size;
    high_water_ = std::max(high_water_, top_);
    ensure_backing();
    return static_cast<std::uint32_t>(base);
  }

  /// Reset the allocator (between program launches); storage is retained.
  void reset() { top_ = 0; }

  std::byte* data(std::uint32_t offset = 0) {
    ensure_backing();
    TTSIM_CHECK(offset < capacity_);
    return storage_ + offset;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return top_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  void ensure_backing() {
    if (storage_ == nullptr) map_backing();
  }
  /// Back the SRAM with its own demand-zero anonymous mapping followed by
  /// one inaccessible guard page (see sram.cpp).
  void map_backing();

  std::uint64_t capacity_;
  std::uint64_t top_ = 0;
  std::uint64_t high_water_ = 0;
  std::byte* storage_ = nullptr;
  std::size_t mapped_bytes_ = 0;  // backing plus guard page, for munmap
};

}  // namespace ttsim::sim
