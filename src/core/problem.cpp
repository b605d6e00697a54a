#include "ttsim/core/problem.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "ttsim/core/jacobi_device.hpp"

namespace ttsim::core {
namespace {

/// Ask the kernel to back the 2 MiB-aligned part of a fresh host grid with
/// transparent huge pages, before its first touch. A Table VIII interior is
/// 38 MB of floats: above glibc's largest mmap threshold, so every one is a
/// new mapping, and 4 KiB pages would fault 9k times per readback. Sizes
/// under 2 MiB (the serving layer's grids) make no system call. Without THP
/// (or off Linux) this is a no-op and only the single pass remains.
void advise_huge_pages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
  const auto first = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (first + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = (first + bytes) & ~(kHuge - 1);
  // Advice only: a kernel that refuses it leaves ordinary pages.
  if (end > begin) (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace

std::vector<bfloat16_t> PaddedLayout::initial_image(const JacobiProblem& p,
                                                    std::span<const float> interior) const {
  TTSIM_CHECK(p.width == width_ && p.height == height_);
  TTSIM_CHECK_MSG(interior.empty() || interior.size() == static_cast<std::size_t>(width_) * height_,
                  "initial interior must be width*height values");

  // Stored rows in address order, each element written once. The pad cells
  // adjacent to the interior carry the left/right boundary values (Fig. 5);
  // the rest of the pad and the four halo corners stay zero (corners are
  // never read by a 5-point stencil, and the tap-order contract fixes them
  // at zero). Runs of one value are copied from a block of it: a range
  // insert of this trivially copyable type compiles to a memmove, where a
  // count-and-value insert stores element by element.
  static constexpr std::array<bfloat16_t, kPad> kZeros{};
  std::array<bfloat16_t, 1024> block{};
  std::vector<bfloat16_t> image;
  image.reserve(elems());
  auto pad = [&](std::size_t n) { image.insert(image.end(), kZeros.begin(), kZeros.begin() + n); };
  auto fill_block = [&](bfloat16_t value) {
    std::fill_n(block.begin(), std::min<std::size_t>(width_, block.size()), value);
  };
  auto append_run = [&] {
    for (std::size_t n = width_; n > 0;) {
      const std::size_t k = std::min(n, block.size());
      image.insert(image.end(), block.begin(), block.begin() + k);
      n -= k;
    }
  };

  fill_block(bfloat16_t{p.bc_top});
  pad(kPad);
  append_run();
  pad(kPad);
  fill_block(bfloat16_t{p.initial});
  for (std::size_t r = 0; r < height_; ++r) {
    pad(kPad - 1);
    image.push_back(bfloat16_t{p.bc_left});
    if (interior.empty()) {
      append_run();
    } else {
      const auto values = interior.subspan(r * width_, width_);
      image.insert(image.end(), values.begin(), values.end());
    }
    image.push_back(bfloat16_t{p.bc_right});
    pad(kPad - 1);
  }
  fill_block(bfloat16_t{p.bc_bottom});
  pad(kPad);
  append_run();
  pad(kPad);
  return image;
}

std::vector<float> PaddedLayout::extract_interior(
    std::span<const bfloat16_t> image) const {
  TTSIM_CHECK(image.size() == elems());
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(width_) * height_);
  advise_huge_pages(out.data(), out.capacity() * sizeof(float));
  for (std::int64_t r = 0; r < static_cast<std::int64_t>(height_); ++r) {
    const auto row = image.subspan(index(r, 0), width_);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::string to_string(DeviceStrategy s) {
  switch (s) {
    case DeviceStrategy::kInitial: return "initial";
    case DeviceStrategy::kWriteOptimised: return "write-optimised";
    case DeviceStrategy::kDoubleBuffered: return "double-buffered";
    case DeviceStrategy::kRowChunk: return "row-chunk (optimised)";
    case DeviceStrategy::kSramResident: return "SRAM-resident (future work)";
    case DeviceStrategy::kTemporal: return "temporal tiling (k per DRAM pass)";
  }
  return "?";
}

}  // namespace ttsim::core
