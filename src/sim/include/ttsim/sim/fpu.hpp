#pragma once
/// \file fpu.hpp
/// The Tensix matrix/vector FPU: a 16384-bit SIMD engine operating on tiles
/// of 1024 BF16 elements (32x32 when square). Compute kernels unpack CB
/// pages into destination tile registers, run element-wise math, and pack
/// results back into CBs (paper Section II-A and Listing 2). All arithmetic
/// here is genuine BF16, so simulated results carry hardware rounding.

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

  /// The element-wise binary ops of the tile kernel.
  enum class BinaryOp : std::uint8_t { kAdd, kSub, kMul };

  /// One tile of BF16 math: out[i] = a[i] op b[i] for i < kTileElems, bit
  /// for bit what the scalar bfloat16_t operators give (float op under the
  /// caller's MXCSR, round to nearest even, canonical NaN). `a`, `b` and
  /// `out` need only bfloat16_t alignment.
  using TileKernel = void (*)(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                              bfloat16_t* out);
  /// The kernel for the x86-64 baseline ISA (SSE2, 4 lanes).
  static void tile_kernel_baseline(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                                   bfloat16_t* out);
  /// The same kernel body built for AVX2 (8 lanes). Call it only when
  /// cpu_has_avx2().
  static void tile_kernel_avx2(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                               bfloat16_t* out);
  static bool cpu_has_avx2();

  Fpu(Engine& engine, const GrayskullSpec& spec);

  /// dst[i] = a[tile ia][i] + b[tile ib][i]
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
    charge(spec_.tile_math_cost);
    std::memcpy(static_cast<void*>(reg(dst)), tile_data(src, idx), kTileBytes);
  }

  /// Pack a dst register into the producer page of `out` (`page_offset`
  /// pages past the reserve point). The caller must have reserved the page.
  /// With a write-pointer override (aliased local memory) the full tile is
  /// stored at the override address — the caller guarantees room, exactly
  /// as on hardware.
  void pack_tile(int dst, CircularBuffer& out, std::uint32_t page_offset = 0) {
    charge(spec_.tile_pack_cost);
    auto* raw = out.write_ptr(page_offset);
    TTSIM_CHECK_MSG(out.has_write_ptr_override() || out.page_size() >= kTileBytes,
                    "pack_tile into a CB with pages smaller than a tile");
    std::memcpy(raw, reg(dst), kTileBytes);
  }

  /// Elementwise compare-to-scalar on a destination register (SFPU unary
  /// op): dst[i] = (dst[i] == v) ? 1 : 0. The building block for threshold
  /// transitions (Game of Life counts neighbours, then masks on the count).
  void eq_scalar_tile(int dst, bfloat16_t v) {
    charge(spec_.tile_math_cost);
    auto* r = reg(dst);
    for (std::uint32_t i = 0; i < kTileElems; ++i) {
      const bool eq = !r[i].is_nan() &&
                      static_cast<float>(r[i]) == static_cast<float>(v);
      r[i] = bfloat16_t{eq ? 1.0f : 0.0f};
    }
  }

  /// Elementwise |x| on a destination register (SFPU unary op).
  void abs_tile(int dst) {
    charge(spec_.tile_math_cost);
    auto* r = reg(dst);
    for (std::uint32_t i = 0; i < kTileElems; ++i) {
      r[i] = bfloat16_t::from_bits(static_cast<std::uint16_t>(r[i].bits() & 0x7FFF));
    }
  }

  /// Reduce a destination register to the maximum lane value (the FPU's
  /// reduction capability; NaN lanes propagate to the result).
  bfloat16_t reduce_max(int dst) {
    charge(spec_.tile_math_cost);
    const auto* r = reg(dst);
    bfloat16_t m = r[0];
    for (std::uint32_t i = 1; i < kTileElems; ++i) {
      if (r[i].is_nan() || (!m.is_nan() && static_cast<float>(r[i]) > static_cast<float>(m))) {
        m = r[i];
      }
    }
    return m;
  }

  /// Direct access to a destination register (tests and reductions).
  bfloat16_t* reg(int dst) {
    TTSIM_CHECK_MSG(dst >= 0 && dst < spec_.dst_registers, "dst register out of range");
    return regs_[static_cast<std::size_t>(dst)].data();
  }

 private:
  void binary_op(BinaryOp op, const CircularBuffer& a, const CircularBuffer& b,
                 std::uint32_t ia, std::uint32_t ib, int dst);

  const bfloat16_t* tile_data(const CircularBuffer& cb, std::uint32_t idx) const {
    // `idx` selects a tile within the committed front page(s): tile t starts
    // at byte t * kTileBytes from the consumer read pointer.
    const std::byte* base = cb.read_ptr();
    return reinterpret_cast<const bfloat16_t*>(base + idx * kTileBytes);
  }

  void charge(SimTime cost) { engine_.delay(cost); }

  Engine& engine_;
  const GrayskullSpec& spec_;
  TileKernel kernel_;  // tile_kernel_avx2 where the CPU has it, else the baseline
  std::vector<std::array<bfloat16_t, kTileElems>> regs_;
};

}  // namespace ttsim::sim
