#include "ttsim/sim/fpu.hpp"

namespace ttsim::sim {
namespace {

using BinaryOp = Fpu::BinaryOp;

/// `N` lanes of `T` as a GCC/Clang vector (an alias template would drop the
/// dependent attribute in GCC).
template <typename T, int N>
struct Vec {
  typedef T type __attribute__((vector_size(sizeof(T) * N)));
};

/// The one body of the tile kernel, in `N`-lane GCC/Clang vectors. Each
/// lane does what bfloat16_t's operators do: widen by `<< 16` (exact), do
/// the float op (under the current MXCSR rounding mode, no FMA), round to
/// nearest even in integer arithmetic, replace NaNs with the canonical
/// 0x7FC0, and narrow. A 32-bit load holds two BF16s, so the even elements
/// widen by a shift and the odd ones by a mask, and the two halves of the
/// result recombine with a shift and an OR: no lane shuffles at all. The
/// NaN blend is a bitwise select, because GCC scalarises `?:` on vectors.
/// Loads and stores go through memcpy: a CB read-pointer override can put
/// a tile at any even address. It covers the first `n` elements in steps
/// of 2N, so `n` rounds up to a step and never past the tile.
template <int N, BinaryOp Op>
[[gnu::always_inline]] inline void tile_body(const bfloat16_t* a, const bfloat16_t* b,
                                             bfloat16_t* out, std::uint32_t n) {
  using U32 = typename Vec<std::uint32_t, N>::type;
  using I32 = typename Vec<std::int32_t, N>::type;
  using F32 = typename Vec<float, N>::type;
  constexpr std::uint32_t kHigh = 0xFFFF0000u;
  static_assert(Fpu::kTileElems % (2 * N) == 0);

  for (std::uint32_t i = 0; i < n; i += 2 * N) {
    U32 wa;
    U32 wb;
    std::memcpy(&wa, a + i, sizeof(wa));
    std::memcpy(&wb, b + i, sizeof(wb));
    const U32 half_a[2] = {wa << 16, wa & kHigh};  // even, odd elements
    const U32 half_b[2] = {wb << 16, wb & kHigh};
    U32 half_r[2];
    for (int h = 0; h < 2; ++h) {
      const F32 fa = reinterpret_cast<F32>(half_a[h]);
      const F32 fb = reinterpret_cast<F32>(half_b[h]);
      F32 r;
      if constexpr (Op == BinaryOp::kAdd) {
        r = fa + fb;
      } else if constexpr (Op == BinaryOp::kSub) {
        r = fa - fb;
      } else {
        r = fa * fb;
      }
      const U32 x = reinterpret_cast<U32>(r);
      const U32 rounded = x + 0x7FFFu + ((x >> 16) & 1u);
      const U32 nan = reinterpret_cast<U32>(reinterpret_cast<I32>(x & 0x7FFFFFFFu) > 0x7F800000);
      half_r[h] = (rounded & ~nan) | (nan & 0x7FC00000u);
    }
    const U32 packed = (half_r[0] >> 16) | (half_r[1] & kHigh);
    std::memcpy(static_cast<void*>(out + i), &packed, sizeof(packed));
  }
}

template <int N>
[[gnu::always_inline]] inline void tile_kernel(BinaryOp op, const bfloat16_t* a,
                                               const bfloat16_t* b, bfloat16_t* out,
                                               std::uint32_t n) {
  switch (op) {
    case BinaryOp::kAdd: return tile_body<N, BinaryOp::kAdd>(a, b, out, n);
    case BinaryOp::kSub: return tile_body<N, BinaryOp::kSub>(a, b, out, n);
    case BinaryOp::kMul: return tile_body<N, BinaryOp::kMul>(a, b, out, n);
  }
}

/// The CPU is probed once per process.
Fpu::TileKernel selected_kernel() {
  static const Fpu::TileKernel kernel =
      Fpu::cpu_has_avx2() ? &Fpu::tile_kernel_avx2 : &Fpu::tile_kernel_baseline;
  return kernel;
}

}  // namespace

// Generic 8-lane vectors lowered to SSE2 are slower than 4 lanes, so only
// the AVX2 build widens.
void Fpu::tile_kernel_baseline(BinaryOp op, const bfloat16_t* a, const bfloat16_t* b,
                               bfloat16_t* out, std::uint32_t n) {
  tile_kernel<4>(op, a, b, out, n);
}

__attribute__((target("avx2"))) void Fpu::tile_kernel_avx2(BinaryOp op, const bfloat16_t* a,
                                                           const bfloat16_t* b,
                                                           bfloat16_t* out, std::uint32_t n) {
  tile_kernel<8>(op, a, b, out, n);
}

bool Fpu::cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

Fpu::Fpu(const GrayskullSpec& spec) : spec_(spec), kernel_(selected_kernel()) {
  TTSIM_CHECK_MSG(spec.dst_registers <= kMaxDstRegisters,
                  "at most " << kMaxDstRegisters << " dst registers are modelled");
  regs_.resize(static_cast<std::size_t>(spec.dst_registers));
  extents_.fill(kTileElems);
}

void Fpu::binary_op(BinaryOp op, const CircularBuffer& a, const CircularBuffer& b,
                    std::uint32_t ia, std::uint32_t ib, int dst) {
  const std::size_t r = index(dst);
  extents_[r] = std::min(tile_extent(a, ia), tile_extent(b, ib));
  kernel_(op, tile_data(a, ia), tile_data(b, ib), regs_[r].data(), extents_[r]);
}

}  // namespace ttsim::sim
