#pragma once
/// \file stencil_internal.hpp
/// Shared internals of the general radius-1 stencil lowering: the resolved
/// program state, the CB id map, and the tap-chain emitter every strategy
/// uses. Keeping ONE emitter is what makes rowchunk-vs-SRAM agreement hold
/// by construction — both strategies issue the identical FPU op sequence
/// and differ only in where the aliased tap addresses point. The per-point
/// chain object (PointChain: the tap chain, or classic Jacobi's chain), the
/// slab strategies' row geometry (SlabRows) and the temporal geometry live
/// here too, so the one row-chunk, the one SRAM-resident and the one
/// temporal skeleton serve both problem kinds.
///
/// CB id map of a general stencil program (tt-metal convention: inputs
/// 0..7, intermediates 8..15, outputs 16..23):
///   0..3  — one stream/alias CB per field (row-chunk: flow-controlled
///           depth-page streams; SRAM: alias vehicles, never pushed)
///   4     — weight alias CB, repointed into the L1 weight table per term
///   5/6/7 — accumulator chain (inter, tmp, tmp2)
///   7     — row-chunk device residual (only on programs without a post-op,
///           which never use tmp2)
///   16    — output
/// The weight table holds one 2 KiB tile of 1024 copies per distinct
/// weight, written host-side by the compute kernel before the first sweep
/// (the cb_scalar trick, without a CB).

#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "jacobi_internal.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/ir.hpp"

namespace ttsim::core::detail {

inline constexpr int kCbFieldBase = 0;  // field f streams through CB f
inline constexpr int kCbWgt = 4;
inline constexpr int kCbGInter = 5;
inline constexpr int kCbGTmp = 6;
inline constexpr int kCbGTmp2 = 7;
inline constexpr int kCbRes = 7;
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

class PointChain;

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
  /// The per-point chain (make_tap_chain, or the classic chain of
  /// classic_program).
  std::shared_ptr<const PointChain> chain;
  /// Row-chunk only. When non-zero: on the final iteration the compute
  /// kernel tracks the per-core max |unew - u| of the written field on the
  /// FPU and the writing mover stores it (one BF16 value per core, 32-byte
  /// slots) at this DRAM address. Needs full 1024-element chunks, so no
  /// out-of-interior lanes pollute the whole-tile reduction.
  std::uint64_t residual_addr = 0;

  explicit GeneralShared(const PaddedLayout& l) : layout(l) {}

  /// Known from the lowered program, before any grids are bound (a batch's
  /// shared resolve has none).
  int nfields() const { return static_cast<int>(written_pass.size()); }

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

/// Emit the per-point FPU op sequence shared by every strategy: for each
/// term of `pass`, one weight-aliased multiply; the first product seeds the
/// accumulator, later ones are added left to right through the inter/tmp
/// CB pair; the Life post-op masks the sum and recombines with the centre
/// value. Every tap aliases its field's CB onto `tap_at(field, dr, dc)`,
/// the L1 address of the tap's first element, with `valid` meaningful
/// bytes behind it. `pack_final(dst_reg)` lands the finished tile (managed
/// kCbGOut page on row-chunk; write-pointer aliased slab row on the slab
/// strategies).
template <typename TapAt, typename PackFinal>
void emit_tap_chain(ttmetal::ComputeCtx& ctx, std::uint32_t wtab,
                    const LoweredPass& pass, std::uint32_t valid, TapAt&& tap_at,
                    PackFinal&& pack_final) {
  constexpr int dst0 = 0;
  constexpr int dst1 = 1;
  const std::size_t n = pass.terms.size();
  const bool has_post = pass.post != PostOp::kNone;
  for (std::size_t k = 0; k < n; ++k) {
    const LoweredTerm& t = pass.terms[k];
    const int cb = kCbFieldBase + t.field;
    ctx.cb_set_rd_ptr(kCbWgt, wtab + static_cast<std::uint32_t>(t.widx) * kTileBytes);
    ctx.cb_set_rd_ptr(cb, tap_at(t.field, t.dr, t.dc), valid);
    ctx.mul_tiles(kCbWgt, cb, 0, 0, dst0);
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
    const int self = kCbFieldBase + pass.self_field;
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.copy_tile(kCbGTmp, 0, dst0);
    ctx.eq_scalar_tile(dst0, bfloat16_t{3.0f});  // birth mask
    ctx.copy_tile(kCbGTmp, 0, dst1);
    ctx.eq_scalar_tile(dst1, bfloat16_t{2.0f});  // survive mask
    ctx.cb_pop_front(kCbGTmp, 1);

    ctx.cb_reserve_back(kCbGTmp2, 1);
    ctx.pack_tile(dst1, kCbGTmp2);
    ctx.cb_push_back(kCbGTmp2, 1);
    ctx.cb_set_rd_ptr(self, tap_at(pass.self_field, 0, 0), valid);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.mul_tiles(kCbGTmp2, self, 0, 0, dst1);  // survive * self
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

/// One CB of a program's list, in creation order: the builders create it
/// (create_cbs) and the IR models declare it under `name`.
struct CbSpec {
  int id = 0;
  std::uint32_t pages = 1;
  std::string name;
  std::uint32_t page_bytes = kTileBytes;
};

inline void create_cbs(ttmetal::Program& prog, const std::vector<int>& cores,
                       const std::vector<CbSpec>& cbs) {
  for (const CbSpec& cb : cbs) prog.create_cb(cb.id, cores, cb.page_bytes, cb.pages);
}

/// The row-chunk program's CBs: the chain's (a `depth`-page stream CB per
/// field any pass reads, its constants and accumulators, a 4-page output
/// CB), then the 32-byte residual page when the launch tracks one.
std::vector<CbSpec> rowchunk_cbs(const GeneralShared& sh, std::uint32_t depth);

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

/// A non-owning, non-allocating reference to a callable: what the point
/// chains take their per-point tap-address and pack functions as.
template <typename Sig>
class FunctionRef;
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(args...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, args...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// L1 address of field `field`'s tap (dr, dc) for the point being emitted.
using TapAddr = FunctionRef<std::uint32_t(int field, int dr, int dc)>;
/// Lands the finished tile held in dst register `reg`.
using PackTile = FunctionRef<void(int reg)>;

/// The one thing the three skeletons (row-chunk, SRAM-resident, temporal)
/// vary by problem kind: the per-point chain. The classic chain replays
/// classic Jacobi's ((xm + xp) + ym + yp) * 0.25; the tap chain runs a
/// general program's passes through emit_tap_chain. Each supplies its side
/// of the builder and its IR transcript; the skeleton supplies where the
/// taps are and where the result goes.
class PointChain {
 public:
  PointChain() = default;
  PointChain(const PointChain&) = delete;
  PointChain& operator=(const PointChain&) = delete;
  virtual ~PointChain() = default;
  /// "jacobi" or "stencil": the kernels are <label>_reader / _compute /
  /// _writer (row-chunk) or <label>_sram_dm0 / ... and the graphs
  /// <label>-rowchunk / -sram / -temporal.
  virtual std::string label() const = 0;
  /// The chain's CBs in creation order. The skeleton sizes them: each
  /// field CB has `stream_pages` pages (row-chunk's read-ahead depth; 1 on
  /// the slab strategies, where a field CB is an alias vehicle) and the
  /// output CB `out_pages`.
  virtual std::vector<CbSpec> cbs(std::uint32_t stream_pages,
                                  std::uint32_t out_pages) const = 0;
  /// Bytes of the L1 weight table the skeleton allocates for it (0: none).
  virtual std::uint32_t table_bytes() const = 0;
  /// The compute kernel's prologue: fill the chain's constants (the weight
  /// table at `wtab`, when it has one).
  virtual void prologue(ttmetal::ComputeCtx& ctx, std::uint32_t wtab) const = 0;
  virtual std::vector<ir::Op> prologue_ops() const = 0;
  /// One point of pass `pass`: every tap aliased onto `tap_at(field, dr,
  /// dc)` with `valid` meaningful bytes behind it, the result handed to
  /// `pack`.
  virtual void emit_point(ttmetal::ComputeCtx& ctx, std::size_t pass,
                          std::uint32_t wtab, std::uint32_t valid, TapAddr tap_at,
                          PackTile pack) const = 0;
  /// Protocol ops of `points` emit_point calls on pass `pass`.
  virtual std::vector<ir::Op> point_ops(std::size_t pass,
                                        const ir::Count& points) const = 0;
};

/// One point of a slab strategy (SRAM-resident or temporal): chunk `c0` of
/// local slab row `lr`, field f's taps aliased out of slab `src[f]`, the
/// result packed straight into slab `dst` (interior col c0 = data elem
/// c0+1) through kCbOut's write pointer.
inline void emit_slab_point(ttmetal::ComputeCtx& ctx, const PointChain& chain,
                            const SlabRows& rows, std::uint32_t wtab,
                            std::span<const std::uint32_t> src, std::uint32_t dst,
                            std::uint32_t lr, std::uint32_t c0) {
  // Data elem 0 of a slab row is L, the boundary column.
  auto tap_at = [&](int f, int dr, int dc) {
    return rows.row_data(src[static_cast<std::size_t>(f)],
                         static_cast<std::uint32_t>(static_cast<int>(lr) + dr)) +
           c0 * 2 + static_cast<std::uint32_t>(2 + 2 * dc);
  };
  // Lanes past the chunk are don't-care; declaring that keeps the host
  // from computing them.
  chain.emit_point(ctx, 0, wtab, rows.chunk * 2, tap_at, [&](int reg) {
    ctx.cb_set_wr_ptr(kCbGOut, rows.row_data(dst, lr) + (c0 + 1) * 2);
    ctx.pack_tile(reg, kCbGOut);
  });
}

/// The tap chain of `sh`'s passes over its weight table. Its field CBs are
/// the fields any pass reads on row-chunk, and on the slab strategies the
/// fields the single pass reads or writes.
std::shared_ptr<const PointChain> make_tap_chain(const GeneralShared& sh);

/// A classic Jacobi launch on a certified strategy as the one-field,
/// one-pass general program it is: the four-neighbour taps (their reach
/// sizes the row-chunk windows and the temporal skirt) run by the classic
/// chain.
std::shared_ptr<GeneralShared> classic_program(const KernelShared& sh);

/// The temporal program's geometry, shared by the builder and its IR
/// model. Block sizing against the slab budget: the written field needs
/// two ping-pong slabs and each other held field one, each sized
/// B + 2*((k-1)*v + reach) rows. Throws ApiError when no block fits.
struct TemporalGeometry {
  std::vector<char> streamed;    ///< per field: held in a slab (read or written)
  int v = 0;      ///< written-field vertical reach: trapezoid shrink per step
  int reach = 0;  ///< max vertical reach over all taps: skirt load extent
  int nslabs = 0;
  std::uint32_t block_rows = 0;  ///< B: final-generation rows per block
  std::uint32_t slab_rows = 0;   ///< slab capacity in rows
};
TemporalGeometry temporal_geometry(const GeneralShared& sh);

/// Row-chunk kernels for one core group (reader / compute / writer plus
/// this group's CBs, slot buffers and barrier), on the physical workers
/// sh->workers() names; called once per slot by the batched builder and
/// with the identity group by the single-run driver.
void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

/// SRAM-resident program of a single-field single-pass problem
/// (cores_x == 1): the one SRAM-resident skeleton (stencil_sram.cpp)
/// driving sh->chain.
void build_general_sram_program(ttmetal::Program& prog,
                                std::shared_ptr<GeneralShared> sh);

/// Temporal-tiling kernels for one core group (single-pass problems,
/// cores_x==1) driving sh->chain: sh->temporal_depth sub-iterations per
/// DRAM pass through ping-ponged L1 slabs, trapezoid skirt recompute
/// instead of halo exchange, read-only fields held in single slabs per
/// block. Called with the identity group by the driver and once per slot
/// by the batched builder (each group's barrier_id must be distinct).
void build_general_temporal_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

}  // namespace ttsim::core::detail
