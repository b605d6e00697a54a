#pragma once
/// \file fpu.hpp
/// The Tensix matrix/vector FPU: a 16384-bit SIMD engine operating on tiles
/// of 1024 BF16 elements (32x32 when square). Compute kernels unpack CB
/// pages into destination tile registers, run element-wise math, and pack
/// results back into CBs (paper Section II-A and Listing 2). All arithmetic
/// here is genuine BF16, so simulated results carry hardware rounding.
///
/// Every tile has a live extent: the leading elements whose values can
/// reach an output. A read-pointer override has its valid_bytes (0: a full
/// tile), a CB page written by pack_tile has the extent of the register
/// packed into it, and any other page is a full tile. A binary op's result
/// has the smaller of its operands' extents, copy_tile its source's. The
/// host computes and stores only the extent.
///
/// The Fpu is pure math: it charges no simulated time. The compute kernel
/// context charges a full tile's tile_math_cost or tile_pack_cost per op
/// (ttmetal::ComputeCtx), whatever the extent.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ttsim/bfloat/bfloat16.hpp"
#include "ttsim/sim/circular_buffer.hpp"
#include "ttsim/sim/spec.hpp"

namespace ttsim::sim {

class Fpu {
 public:
  static constexpr std::uint32_t kTileElems = 1024;  ///< 16384 bits of BF16
  static constexpr std::uint32_t kTileBytes = kTileElems * sizeof(bfloat16_t);
  /// Capacity for GrayskullSpec::dst_registers (16 by default).
  static constexpr int kMaxDstRegisters = 16;

  /// The element-wise binary ops of the tile kernel.
  enum class BinaryOp : std::uint8_t { kAdd, kSub, kMul };

  /// BF16 math on the first `n` elements of a tile (n <= kTileElems):
  /// out[i] = a[i] op b[i], bit for bit what the scalar bfloat16_t
  /// operators give (float op under the caller's MXCSR, round to nearest
  /// even, canonical NaN). The kernel rounds `n` up to its SIMD step
  /// (kTileElems is a multiple of every step) and leaves the rest of `out`
  /// untouched. `a`, `b` and `out` need only bfloat16_t alignment.
  using TileKernel = void (*)(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                              bfloat16_t* out, std::uint32_t n);
  /// The kernel for the x86-64 baseline ISA (SSE2, 4 lanes).
  static void tile_kernel_baseline(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                                   bfloat16_t* out, std::uint32_t n);
  /// The same kernel body built for AVX2 (8 lanes). Call it only when
  /// cpu_has_avx2().
  static void tile_kernel_avx2(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                               bfloat16_t* out, std::uint32_t n);
  static bool cpu_has_avx2();

  explicit Fpu(const GrayskullSpec& spec);

  /// dst[i] = a[tile ia][i] + b[tile ib][i] over the smaller operand extent
  void add_tiles(const CircularBuffer& a, const CircularBuffer& b,
                 std::uint32_t ia, std::uint32_t ib, int dst) {
    binary_op(BinaryOp::kAdd, a, b, ia, ib, dst);
  }

  /// dst[i] = a[tile ia][i] - b[tile ib][i]
  void sub_tiles(const CircularBuffer& a, const CircularBuffer& b,
                 std::uint32_t ia, std::uint32_t ib, int dst) {
    binary_op(BinaryOp::kSub, a, b, ia, ib, dst);
  }

  /// dst[i] = a[tile ia][i] * b[tile ib][i]
  void mul_tiles(const CircularBuffer& a, const CircularBuffer& b,
                 std::uint32_t ia, std::uint32_t ib, int dst) {
    binary_op(BinaryOp::kMul, a, b, ia, ib, dst);
  }

  /// Unpack one tile from a CB straight into a dst register.
  void copy_tile(const CircularBuffer& src, std::uint32_t idx, int dst) {
    const std::size_t r = index(dst);
    extents_[r] = tile_extent(src, idx);
    std::memcpy(static_cast<void*>(regs_[r].data()), tile_data(src, idx),
                extents_[r] * sizeof(bfloat16_t));
  }

  /// Pack a dst register into the producer page of `out` (`page_offset`
  /// pages past the reserve point). The caller must have reserved the page.
  /// With a write-pointer override (aliased local memory) the tile is
  /// stored at the override address — the caller guarantees room for a full
  /// tile, exactly as on hardware. Only the register's extent is stored.
  void pack_tile(int dst, CircularBuffer& out, std::uint32_t page_offset = 0) {
    auto* raw = out.write_ptr(page_offset);
    TTSIM_CHECK_MSG(out.has_write_ptr_override() || out.page_size() >= kTileBytes,
                    "pack_tile into a CB with pages smaller than a tile");
    const std::size_t r = index(dst);
    const auto bytes = static_cast<std::uint32_t>(extents_[r] * sizeof(bfloat16_t));
    std::memcpy(raw, regs_[r].data(), bytes);
    // An aliased store leaves the ring page, and so its extent, as it was.
    if (!out.has_write_ptr_override() || page_offset > 0) out.set_live_bytes(page_offset, bytes);
  }

  /// Elementwise compare-to-scalar on a destination register (SFPU unary
  /// op): dst[i] = (dst[i] == v) ? 1 : 0. The building block for threshold
  /// transitions (Game of Life counts neighbours, then masks on the count).
  void eq_scalar_tile(int dst, bfloat16_t v) {
    auto* r = reg(dst);
    for (std::uint32_t i = 0, n = extent(dst); i < n; ++i) {
      const bool eq = !r[i].is_nan() &&
                      static_cast<float>(r[i]) == static_cast<float>(v);
      r[i] = bfloat16_t{eq ? 1.0f : 0.0f};
    }
  }

  /// Elementwise |x| on a destination register (SFPU unary op).
  void abs_tile(int dst) {
    auto* r = reg(dst);
    for (std::uint32_t i = 0, n = extent(dst); i < n; ++i) {
      r[i] = bfloat16_t::from_bits(static_cast<std::uint16_t>(r[i].bits() & 0x7FFF));
    }
  }

  /// Reduce a destination register to the maximum lane value over its
  /// extent (the FPU's reduction capability; NaN lanes propagate to the
  /// result).
  bfloat16_t reduce_max(int dst) {
    const auto* r = reg(dst);
    bfloat16_t m = r[0];
    for (std::uint32_t i = 1, n = extent(dst); i < n; ++i) {
      if (r[i].is_nan() || (!m.is_nan() && static_cast<float>(r[i]) > static_cast<float>(m))) {
        m = r[i];
      }
    }
    return m;
  }

  /// Direct access to a destination register (tests and reductions).
  bfloat16_t* reg(int dst) { return regs_[index(dst)].data(); }

  /// The live extent of a destination register: how many leading elements
  /// the op that last wrote it computed, because only they can reach an
  /// output. The host computes and stores only these.
  std::uint32_t extent(int dst) const { return extents_[index(dst)]; }

 private:
  std::size_t index(int dst) const {
    TTSIM_CHECK_MSG(dst >= 0 && dst < spec_.dst_registers, "dst register out of range");
    return static_cast<std::size_t>(dst);
  }

  void binary_op(BinaryOp op, const CircularBuffer& a, const CircularBuffer& b,
                 std::uint32_t ia, std::uint32_t ib, int dst);

  /// Live elements of tile `idx` of `cb`: the read-pointer override's
  /// valid_bytes for tile 0 of an aliased page, the extent a pack left on a
  /// tile-sized front page, else a full tile.
  static std::uint32_t tile_extent(const CircularBuffer& cb, std::uint32_t idx) {
    std::uint32_t bytes = 0;
    if (idx == 0 || (!cb.has_read_ptr_override() && cb.page_size() == kTileBytes)) {
      bytes = cb.live_bytes(idx);
    }
    if (bytes == 0) return kTileElems;
    return std::min(kTileElems, (bytes + 1) / static_cast<std::uint32_t>(sizeof(bfloat16_t)));
  }

  const bfloat16_t* tile_data(const CircularBuffer& cb, std::uint32_t idx) const {
    // `idx` selects a tile within the committed front page(s): tile t starts
    // at byte t * kTileBytes from the consumer read pointer.
    const std::byte* base = cb.read_ptr();
    return reinterpret_cast<const bfloat16_t*>(base + idx * kTileBytes);
  }

  const GrayskullSpec& spec_;
  TileKernel kernel_;  // tile_kernel_avx2 where the CPU has it, else the baseline
  std::vector<std::array<bfloat16_t, kTileElems>> regs_;
  // Per register, see extent(). Inline: a separate heap block per core
  // measurably slowed opening a card.
  std::array<std::uint32_t, kMaxDstRegisters> extents_{};
};

}  // namespace ttsim::sim
