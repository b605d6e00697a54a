#pragma once
/// \file stencil_internal.hpp
/// Shared internals of the general radius-1 stencil lowering: the resolved
/// program state, the CB id map, and the tap-chain emitter every strategy
/// uses. Keeping ONE emitter is what makes rowchunk-vs-SRAM agreement hold
/// by construction — both strategies issue the identical FPU op sequence
/// and differ only in where the aliased tap addresses point. The slab
/// strategies' row geometry (SlabRows) and their classic Jacobi point
/// chain (emit_classic_point) live here too, so the one SRAM-resident
/// skeleton and the one temporal skeleton serve both problem kinds.
///
/// CB id map of a general stencil program (tt-metal convention: inputs
/// 0..7, intermediates 8..15, outputs 16..23):
///   0..3  — one stream/alias CB per field (row-chunk: flow-controlled
///           depth-page streams; SRAM: alias vehicles, never pushed)
///   4     — weight alias CB, repointed into the L1 weight table per term
///   5/6/7 — accumulator chain (inter, tmp, tmp2)
///   16    — output
/// The weight table holds one 2 KiB tile of 1024 copies per distinct
/// weight, written host-side by the compute kernel before the first sweep
/// (the cb_scalar trick, without a CB).

#include "jacobi_internal.hpp"
#include "ttsim/core/stencil.hpp"

namespace ttsim::core::detail {

inline constexpr int kCbFieldBase = 0;  // field f streams through CB f
inline constexpr int kCbWgt = 4;
inline constexpr int kCbGInter = 5;
inline constexpr int kCbGTmp = 6;
inline constexpr int kCbGTmp2 = 7;
inline constexpr int kCbGOut = 16;

/// One referenced field of a pass with its vertical halo extent.
struct PassField {
  int field = 0;
  int lo = 0;  ///< -1 when any term taps N/NW/NE of this field
  int hi = 0;  ///< +1 when any term taps S/SW/SE
};

/// One pass, resolved for the kernels: terms carry weight-table indices.
struct LoweredTerm {
  int field = 0;
  int dr = 0, dc = 0;
  int widx = 0;  ///< index into the weight table
};
struct LoweredPass {
  int target = 0;
  std::vector<LoweredTerm> terms;
  PostOp post = PostOp::kNone;
  int self_field = 0;
  std::vector<PassField> reads;  ///< referenced fields, first-use order
};

/// Everything the general kernels need, shared across the lambdas.
struct GeneralShared {
  PaddedLayout layout;
  int iterations = 0;
  DeviceStrategy strategy = DeviceStrategy::kRowChunk;
  std::uint32_t chunk_elems = 1024;
  int read_ahead = 2;
  /// kTemporal: iterations chained through SRAM per DRAM pass (1..8).
  int temporal_depth = 1;
  std::vector<std::uint64_t> d1, d2;  ///< per field; d2[f]=0 for read-only
  std::vector<int> written_pass;      ///< per field: pass index or -1
  std::vector<LoweredPass> passes;
  std::vector<float> weights;  ///< distinct weight values, table order
  std::vector<CoreRange> ranges;
  std::vector<int> core_ids;
  int barrier_id = kIterationBarrier;

  explicit GeneralShared(const PaddedLayout& l) : layout(l) {}

  int nfields() const { return static_cast<int>(d1.size()); }

  /// Source buffer of field `f` while running pass `p` of iteration `it`:
  /// each write flips the parity, and a pass sees the writes of every
  /// earlier pass of the same iteration (leapfrog visibility).
  std::uint64_t src_of(int f, int it, int p) const {
    const int wp = written_pass[static_cast<std::size_t>(f)];
    const int writes = wp < 0 ? 0 : it + (wp < p ? 1 : 0);
    return writes % 2 == 0 ? d1[static_cast<std::size_t>(f)]
                           : d2[static_cast<std::size_t>(f)];
  }
  /// Destination buffer of the pass targeting `f` in iteration `it`.
  std::uint64_t dst_of(int f, int it) const {
    return it % 2 == 0 ? d2[static_cast<std::size_t>(f)]
                       : d1[static_cast<std::size_t>(f)];
  }
  /// Buffer holding field `f`'s final state after the full run.
  std::uint64_t final_of(int f) const {
    if (written_pass[static_cast<std::size_t>(f)] < 0) {
      return d1[static_cast<std::size_t>(f)];
    }
    return iterations % 2 == 1 ? d2[static_cast<std::size_t>(f)]
                               : d1[static_cast<std::size_t>(f)];
  }

  std::vector<int> workers() const {
    if (!core_ids.empty()) return core_ids;
    std::vector<int> ids(ranges.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    return ids;
  }
};

/// The general frontend's launch-config check: the problem's structural
/// validity, validate_launch on its geometry, and the strategies' program
/// limits (SRAM-resident: one field, one pass; temporal: one pass).
void validate_general_launch(const GeneralStencilProblem& p,
                             const DeviceRunConfig& cfg, Surface surface,
                             int workers);

/// The one (problem, config) -> kernel-state step of the general frontend:
/// the lowered program (dedup'd weight table, per-pass referenced-field
/// sets with vertical extents) over per-field grids `d1`/`d2` (d2 entries
/// of read-only fields 0), decomposed onto `sel`.
std::shared_ptr<GeneralShared> resolve_general(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg,
                                               const CoreSelection& sel,
                                               std::vector<std::uint64_t> d1,
                                               std::vector<std::uint64_t> d2);

/// The one strategy -> builder switch of the general frontend, keyed on
/// sh->strategy. The IR emit closures and the batched builder call it.
void build_general_program(ttmetal::Program& prog, std::shared_ptr<GeneralShared> sh);

/// Write the weight table (one tile of 1024 copies per weight) at `addr`.
/// Host-side stores through l1_ptr — free on the simulated clock, exactly
/// like fill_scalar_page.
inline void fill_weight_table(ttmetal::KernelCtxBase& ctx, std::uint32_t addr,
                              const std::vector<float>& weights) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    auto* tile = reinterpret_cast<bfloat16_t*>(
        ctx.l1_ptr(addr + static_cast<std::uint32_t>(i) * kTileBytes));
    const bfloat16_t w{weights[i]};
    for (std::uint32_t e = 0; e < 1024; ++e) tile[e] = w;
  }
}

/// One term of the chain, resolved to an L1 alias address.
struct TapAddr {
  int cb = 0;               ///< field stream/alias CB id
  std::uint32_t addr = 0;   ///< L1 address of the tap's first element
  std::uint32_t valid = 0;  ///< meaningful bytes behind it (valid_bytes)
  int widx = 0;             ///< weight-table index
};

/// Emit the per-point FPU op sequence shared by every strategy: for each
/// term, one weight-aliased multiply; the first product seeds the
/// accumulator, later ones are added left to right through the inter/tmp
/// CB pair; the Life post-op masks the sum and recombines with the centre
/// value. `pack_final(dst_reg)` lands the finished tile (managed kCbGOut
/// page on row-chunk; write-pointer aliased slab row on SRAM).
template <typename PackFinal>
void emit_tap_chain(ttmetal::ComputeCtx& ctx, std::uint32_t wtab,
                    const std::vector<TapAddr>& terms, PostOp post,
                    const TapAddr& self, PackFinal&& pack_final) {
  constexpr int dst0 = 0;
  constexpr int dst1 = 1;
  const std::size_t n = terms.size();
  const bool has_post = post != PostOp::kNone;
  for (std::size_t k = 0; k < n; ++k) {
    const auto& t = terms[k];
    ctx.cb_set_rd_ptr(kCbWgt, wtab + static_cast<std::uint32_t>(t.widx) * kTileBytes);
    ctx.cb_set_rd_ptr(t.cb, t.addr, t.valid);
    ctx.mul_tiles(kCbWgt, t.cb, 0, 0, dst0);
    const bool last = k + 1 == n;
    if (k > 0) {
      ctx.cb_reserve_back(kCbGTmp, 1);
      ctx.pack_tile(dst0, kCbGTmp);
      ctx.cb_push_back(kCbGTmp, 1);
      ctx.cb_wait_front(kCbGInter, 1);
      ctx.cb_wait_front(kCbGTmp, 1);
      ctx.add_tiles(kCbGInter, kCbGTmp, 0, 0, dst0);
      ctx.cb_pop_front(kCbGTmp, 1);
      ctx.cb_pop_front(kCbGInter, 1);
    }
    if (last && !has_post) {
      pack_final(dst0);
    } else {
      // Mid-chain products accumulate through kCbGInter; with a post-op
      // the finished sum S parks in kCbGTmp instead.
      const int target = last ? kCbGTmp : kCbGInter;
      ctx.cb_reserve_back(target, 1);
      ctx.pack_tile(dst0, target);
      ctx.cb_push_back(target, 1);
    }
  }
  if (has_post) {
    // Life: out = (S == 3) + (S == 2) * self, every step BF16-exact on
    // 0/1 states and integer neighbour counts.
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.copy_tile(kCbGTmp, 0, dst0);
    ctx.eq_scalar_tile(dst0, bfloat16_t{3.0f});  // birth mask
    ctx.copy_tile(kCbGTmp, 0, dst1);
    ctx.eq_scalar_tile(dst1, bfloat16_t{2.0f});  // survive mask
    ctx.cb_pop_front(kCbGTmp, 1);

    ctx.cb_reserve_back(kCbGTmp2, 1);
    ctx.pack_tile(dst1, kCbGTmp2);
    ctx.cb_push_back(kCbGTmp2, 1);
    ctx.cb_set_rd_ptr(self.cb, self.addr, self.valid);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.mul_tiles(kCbGTmp2, self.cb, 0, 0, dst1);  // survive * self
    ctx.cb_pop_front(kCbGTmp2, 1);

    ctx.cb_reserve_back(kCbGTmp, 1);
    ctx.pack_tile(dst0, kCbGTmp);
    ctx.cb_push_back(kCbGTmp, 1);
    ctx.cb_reserve_back(kCbGTmp2, 1);
    ctx.pack_tile(dst1, kCbGTmp2);
    ctx.cb_push_back(kCbGTmp2, 1);
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.add_tiles(kCbGTmp, kCbGTmp2, 0, 0, dst0);  // birth + survive*self
    ctx.cb_pop_front(kCbGTmp, 1);
    ctx.cb_pop_front(kCbGTmp2, 1);
    pack_final(dst0);
  }
}

/// Create the tap chain's CBs, after the field CBs: the weight alias
/// vehicle, the accumulators the chain uses (kCbGInter when a pass has
/// more than one term, kCbGTmp2 with a post-op, kCbGTmp with either) and a
/// `out_pages`-page output CB.
inline void create_chain_cbs(ttmetal::Program& prog, const std::vector<int>& cores,
                             bool inter, bool post, std::uint32_t out_pages) {
  prog.create_cb(kCbWgt, cores, kTileBytes, 1);
  if (inter) prog.create_cb(kCbGInter, cores, kTileBytes, 2);
  if (inter || post) prog.create_cb(kCbGTmp, cores, kTileBytes, 2);
  if (post) prog.create_cb(kCbGTmp2, cores, kTileBytes, 2);
  prog.create_cb(kCbGOut, cores, kTileBytes, out_pages);
}

/// Create the classic point chain's CBs on a slab program: the scalar
/// page, the kCbInter accumulator pair and kCbOut, the alias vehicle of
/// both the xm reads and the pack (never pushed).
inline void create_classic_slab_cbs(ttmetal::Program& prog,
                                    const std::vector<int>& cores) {
  prog.create_cb(kCbScalar, cores, kTileBytes, 1);
  prog.create_cb(kCbInter, cores, kTileBytes, 2);
  prog.create_cb(kCbOut, cores, kTileBytes, 1);
}

/// Row geometry of the slab strategies' L1 slabs (SRAM-resident and
/// temporal). A slab row is
///   [32 B alignment prefix][L][interior W elems][R][tile-spill pad]
/// with the data (the L element) `off` bytes into it, so the DRAM row
/// loads stay aligned.
///
/// Chunks are full width (or 1024 on wider multiples) so the tile-pack
/// spill stays inside the row's pad: a simulated pack stores a full
/// 1024-lane tile, so a chunk narrower than the row would spill into the
/// *next* slab row's L column, which a later sweep's dc = -1 taps read.
/// cfg.chunk_elems is deliberately not honoured; the per-element op chain
/// is chunk-independent, so this never affects results. The host stores
/// only the chunk's lanes.
struct SlabRows {
  std::uint32_t chunk;           ///< elements per FPU op
  std::uint32_t row_data_elems;  ///< W + 2 (L, interior, R)
  std::uint32_t row_stride;      ///< bytes per slab row incl. prefix and pad
  std::uint32_t off;             ///< data offset inside a row (alignment)

  explicit SlabRows(const PaddedLayout& layout)
      : chunk(std::min<std::uint32_t>(1024, layout.width())),
        row_data_elems(layout.width() + 2),
        row_stride(slab_row_stride(layout.width())),
        off(static_cast<std::uint32_t>(layout.byte_offset(0, -1) % 32)) {
    TTSIM_CHECK(layout.width() % chunk == 0);
  }

  /// L1 address of the data (the L element) of local row `lr` in a slab.
  std::uint32_t row_data(std::uint32_t slab, std::uint32_t lr) const {
    return slab + lr * row_stride + off;
  }
};

/// The classic Jacobi point chain on slab rows, shared by the SRAM-resident
/// and temporal programs: ((xm + xp) + ym + yp) * 0.25 for chunk `c0` of
/// local row `lr`, every operand aliased out of slab `src` and every
/// intermediate through the kCbInter accumulator, in the row-chunk
/// program's op order, so every strategy agrees bit for bit. Needs
/// create_classic_slab_cbs' CBs and the kCbScalar page filled with 0.25.
inline void emit_classic_point(ttmetal::ComputeCtx& ctx, const SlabRows& s,
                               std::uint32_t src, std::uint32_t dst,
                               std::uint32_t lr, std::uint32_t c0) {
  constexpr int dst0 = 0;
  // Lanes past the chunk are don't-care; declaring that keeps the host
  // from computing them.
  const std::uint32_t valid = s.chunk * 2;
  const std::uint32_t row_c = s.row_data(src, lr) + c0 * 2;
  const std::uint32_t row_n = s.row_data(src, lr - 1) + c0 * 2;
  const std::uint32_t row_s = s.row_data(src, lr + 1) + c0 * 2;
  // xm at elem c0 (global col c0-1), xp at elem c0+2: the first add needs
  // two distinct CB handles, so xp aliases through the inter CB.
  ctx.cb_set_rd_ptr(kCbOut, row_c, valid);  // reuse out cb as xm vehicle
  ctx.cb_reserve_back(kCbInter, 1);
  ctx.cb_push_back(kCbInter, 1);
  ctx.cb_set_rd_ptr(kCbInter, row_c + 4, valid);  // xp
  ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
  ctx.cb_pop_front(kCbInter, 1);

  ctx.cb_reserve_back(kCbInter, 1);
  ctx.pack_tile(dst0, kCbInter);
  ctx.cb_push_back(kCbInter, 1);
  ctx.cb_set_rd_ptr(kCbOut, row_n + 2, valid);  // ym
  ctx.cb_wait_front(kCbInter, 1);
  ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
  ctx.cb_pop_front(kCbInter, 1);

  ctx.cb_reserve_back(kCbInter, 1);
  ctx.pack_tile(dst0, kCbInter);
  ctx.cb_push_back(kCbInter, 1);
  ctx.cb_set_rd_ptr(kCbOut, row_s + 2, valid);  // yp
  ctx.cb_wait_front(kCbInter, 1);
  ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
  ctx.cb_pop_front(kCbInter, 1);

  ctx.cb_reserve_back(kCbInter, 1);
  ctx.pack_tile(dst0, kCbInter);
  ctx.cb_push_back(kCbInter, 1);
  ctx.cb_wait_front(kCbScalar, 1);
  ctx.cb_wait_front(kCbInter, 1);
  ctx.mul_tiles(kCbScalar, kCbInter, 0, 0, dst0);
  ctx.cb_pop_front(kCbInter, 1);

  // Pack straight into the destination slab row (interior col c0 = data
  // elem c0+1). On the simulated clock the pack's unused lanes spill past
  // the interior into R and the pad; the host stores only the chunk.
  ctx.cb_set_wr_ptr(kCbOut, s.row_data(dst, lr) + (c0 + 1) * 2);
  ctx.pack_tile(dst0, kCbOut);
}

/// Row-chunk kernels for one core group (reader / compute / writer plus
/// this group's CBs, slot buffers and barrier), on the physical workers
/// sh->workers() names; called once per slot by the batched builder and
/// with the identity group by the single-run driver.
void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

/// SRAM-resident program of a single-field single-pass problem
/// (cores_x == 1): the one SRAM-resident skeleton (stencil_sram.cpp)
/// driving the shared tap chain.
void build_general_sram_program(ttmetal::Program& prog,
                                std::shared_ptr<GeneralShared> sh);

/// Temporal-tiling kernels for one core group (single-pass problems,
/// cores_x==1): sh->temporal_depth sub-iterations per DRAM pass through
/// ping-ponged L1 slabs, trapezoid skirt recompute instead of halo
/// exchange, read-only fields held in single slabs per block. Called with
/// the identity group by the driver and once per slot by the batched
/// builder (each group's barrier_id must be distinct).
void build_general_temporal_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

}  // namespace ttsim::core::detail
