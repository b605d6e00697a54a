#pragma once
/// \file stencil_internal.hpp
/// Shared internals of the general radius-1 stencil lowering: the resolved
/// program state, the CB id map, and the tap-chain emitter every strategy
/// uses. Keeping ONE emitter is what makes rowchunk-vs-SRAM agreement hold
/// by construction — every strategy issues the identical FPU op sequence
/// and differs only in where the aliased tap addresses point. Classic
/// Jacobi is a general program too (to_general), so the tap chain is the
/// only point chain; the slab strategies' row geometry (SlabRows) and the
/// temporal geometry live here as well, so one row-chunk, one
/// SRAM-resident and one temporal skeleton serve every problem.
///
/// CB id map of a general stencil program (tt-metal convention: inputs
/// 0..7, intermediates 8..15, outputs 16..23):
///   0..3  — one stream/alias CB per field (row-chunk: flow-controlled
///           depth-page streams; SRAM: alias vehicles, never pushed)
///   4     — weight alias CB, repointed into the L1 weight table per term
///   5/6/7 — accumulator chain (inter, tmp, tmp2)
///   7     — row-chunk device residual (only on programs without a Life
///           post-op, the one user of tmp2)
///   16    — output
/// The weight table holds one 2 KiB tile of 1024 copies per distinct
/// weight of a weighted term or scale post-op, written host-side by the
/// compute kernel before the first sweep (the cb_scalar trick, without a
/// CB).

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "jacobi_internal.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/ir.hpp"

namespace ttsim::core {
class FieldGrids;
}

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
  int widx = 0;  ///< index into the weight table; -1 for a unit weight
  /// Rule U: a weight of exactly 1 adds the value with no multiply.
  bool unit() const { return widx < 0; }
};
struct LoweredPass {
  int target = 0;
  std::vector<LoweredTerm> terms;
  PostOp post = PostOp::kNone;
  int self_field = 0;
  int post_widx = -1;  ///< kScale: weight-table index of the factor
  std::vector<PassField> reads;  ///< referenced fields, first-use order

  /// Terms the accumulator seed consumes: a leading pair of unit terms is
  /// one add, anything else seeds from the first term alone.
  std::size_t seed_terms() const {
    return terms.size() > 1 && terms[0].unit() && terms[1].unit() ? 2 : 1;
  }
};

/// Everything the general kernels need, shared across the lambdas.
struct GeneralShared : SweepParity {
  PaddedLayout layout;
  std::uint32_t chunk_elems = 1024;
  int read_ahead = 2;
  std::vector<std::uint64_t> d1, d2;  ///< per field; d2[f]=0 for read-only
  std::vector<int> written_pass;      ///< per field: pass index or -1
  std::vector<LoweredPass> passes;
  std::vector<float> weights;  ///< distinct weight values, table order
  std::vector<CoreRange> ranges;
  std::vector<int> core_ids;
  int barrier_id = kIterationBarrier;
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
  /// Fields the row-chunk read tags span: field f's reads are tagged
  /// f*nslots + slot, so one past the highest field any pass streams.
  int tagged_fields() const {
    int n = 0;
    for (const LoweredPass& pass : passes) {
      for (const PassField& pf : pass.reads) n = std::max(n, pf.field + 1);
    }
    return n;
  }
  /// Bytes of the L1 weight table (0: no weighted term or scale).
  std::uint32_t table_bytes() const {
    return static_cast<std::uint32_t>(weights.size()) * kTileBytes;
  }

  /// Field `f`'s buffer of parity `parity` (read-only fields have only d1).
  std::uint64_t grid(int f, int parity) const {
    return parity == 0 ? d1[static_cast<std::size_t>(f)]
                       : d2[static_cast<std::size_t>(f)];
  }
  /// Source buffer of field `f` while running pass `p` of iteration `it`
  /// (one generation per sweep): a pass sees the writes of every earlier
  /// pass of the same iteration (leapfrog visibility).
  std::uint64_t src_of(int f, int it, int p) const {
    const int wp = written_pass[static_cast<std::size_t>(f)];
    if (wp < 0) return grid(f, 0);
    return grid(f, after(it + (wp < p ? 1 : 0) - 1));
  }
  /// Destination buffer of the pass targeting `f` in iteration `it`.
  std::uint64_t dst_of(int f, int it) const { return grid(f, after(it)); }
  /// Buffer holding field `f`'s final state after the full run.
  std::uint64_t final_of(int f) const {
    if (written_pass[static_cast<std::size_t>(f)] < 0) return grid(f, 0);
    return grid(f, after(generations() - 1));
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

/// Bit-exact comparison of every field's interior against
/// cpu::general_reference_bf16.
bool matches_general_reference(const GeneralStencilProblem& p,
                               std::span<const std::vector<float>> fields);

/// `p` without its initial fields: what a launch compiles from.
GeneralStencilProblem structure_of(const GeneralStencilProblem& p);

/// Runs the sweeps of a solve on its staged grids (adding each launch's
/// kernel time to `result`) and returns how many sweeps ran.
using LaunchPlan = std::function<int(FieldGrids& grids, const CoreSelection& sel,
                                     DeviceRunResult& result)>;

/// The one single-device solve body: validate `p` for `surface`, shrink
/// the requested grid onto the usable workers (select_cores), allocate the
/// program's grids, stage every field, run `plan` (default: one launch of
/// p.iterations sweeps), read every field back into `fields` and, with
/// cfg.verify and the full pipeline, check them against the BF16 reference
/// at the sweeps that ran. `solution` is left to the caller.
DeviceRunResult solve_on_device(ttmetal::Device& device, const GeneralStencilProblem& p,
                                const DeviceRunConfig& cfg, Surface surface,
                                const LaunchPlan& plan = {});

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

/// Emit the per-point FPU op sequence shared by every strategy, the
/// tap-order contract in FPU ops. The accumulator lives in dst0. The seed
/// is a weight-aliased multiply, a copy of a unit term, or — for a leading
/// pair of unit terms — one add whose second operand aliases through
/// kCbGInter (an add needs two distinct CB handles). Every later term
/// first parks the accumulator in kCbGInter: a unit term is then one add
/// against it, a weighted one a multiply parked in kCbGTmp and an add of
/// the two. A scale post-op multiplies the parked accumulator by its
/// weight tile; the Life post-op masks the sum and recombines with the
/// centre value. Every tap aliases its field's CB onto `tap_at(field, dr,
/// dc)`, the L1 address of the tap's first element, with `valid`
/// meaningful bytes behind it. `pack_final(dst_reg)` lands the finished
/// tile (managed kCbGOut page on row-chunk; write-pointer aliased slab row
/// on the slab strategies).
template <typename TapAt, typename PackFinal>
void emit_tap_chain(ttmetal::ComputeCtx& ctx, std::uint32_t wtab,
                    const LoweredPass& pass, std::uint32_t valid, TapAt&& tap_at,
                    PackFinal&& pack_final) {
  constexpr int dst0 = 0;
  constexpr int dst1 = 1;
  auto alias = [&](const LoweredTerm& t) {
    const int cb = kCbFieldBase + t.field;
    ctx.cb_set_rd_ptr(cb, tap_at(t.field, t.dr, t.dc), valid);
    return cb;
  };
  auto weight = [&](int widx) {
    ctx.cb_set_rd_ptr(kCbWgt, wtab + static_cast<std::uint32_t>(widx) * kTileBytes);
  };
  auto park = [&](int reg, int cb) {
    ctx.cb_reserve_back(cb, 1);
    ctx.pack_tile(reg, cb);
    ctx.cb_push_back(cb, 1);
  };

  const LoweredTerm& seed = pass.terms[0];
  if (pass.seed_terms() == 2) {
    const int cb = alias(seed);
    const LoweredTerm& second = pass.terms[1];
    ctx.cb_reserve_back(kCbGInter, 1);
    ctx.cb_push_back(kCbGInter, 1);
    ctx.cb_set_rd_ptr(kCbGInter, tap_at(second.field, second.dr, second.dc), valid);
    ctx.add_tiles(cb, kCbGInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbGInter, 1);
  } else if (seed.unit()) {
    ctx.copy_tile(alias(seed), 0, dst0);
  } else {
    weight(seed.widx);
    ctx.mul_tiles(kCbWgt, alias(seed), 0, 0, dst0);
  }
  for (std::size_t k = pass.seed_terms(); k < pass.terms.size(); ++k) {
    const LoweredTerm& t = pass.terms[k];
    park(dst0, kCbGInter);
    if (t.unit()) {
      const int cb = alias(t);
      ctx.cb_wait_front(kCbGInter, 1);
      ctx.add_tiles(cb, kCbGInter, 0, 0, dst0);
    } else {
      weight(t.widx);
      ctx.mul_tiles(kCbWgt, alias(t), 0, 0, dst0);
      park(dst0, kCbGTmp);
      ctx.cb_wait_front(kCbGInter, 1);
      ctx.cb_wait_front(kCbGTmp, 1);
      ctx.add_tiles(kCbGInter, kCbGTmp, 0, 0, dst0);
      ctx.cb_pop_front(kCbGTmp, 1);
    }
    ctx.cb_pop_front(kCbGInter, 1);
  }

  if (pass.post == PostOp::kScale) {
    park(dst0, kCbGInter);
    weight(pass.post_widx);
    ctx.cb_wait_front(kCbGInter, 1);
    ctx.mul_tiles(kCbWgt, kCbGInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbGInter, 1);
  } else if (pass.post == PostOp::kLife) {
    // Life: out = (S == 3) + (S == 2) * self, every step BF16-exact on
    // 0/1 states and integer neighbour counts. The sum S parks in kCbGTmp.
    park(dst0, kCbGTmp);
    const int self = kCbFieldBase + pass.self_field;
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.copy_tile(kCbGTmp, 0, dst0);
    ctx.eq_scalar_tile(dst0, bfloat16_t{3.0f});  // birth mask
    ctx.copy_tile(kCbGTmp, 0, dst1);
    ctx.eq_scalar_tile(dst1, bfloat16_t{2.0f});  // survive mask
    ctx.cb_pop_front(kCbGTmp, 1);

    park(dst1, kCbGTmp2);
    ctx.cb_set_rd_ptr(self, tap_at(pass.self_field, 0, 0), valid);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.mul_tiles(kCbGTmp2, self, 0, 0, dst1);  // survive * self
    ctx.cb_pop_front(kCbGTmp2, 1);

    park(dst0, kCbGTmp);
    park(dst1, kCbGTmp2);
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.add_tiles(kCbGTmp, kCbGTmp2, 0, 0, dst0);  // birth + survive*self
    ctx.cb_pop_front(kCbGTmp, 1);
    ctx.cb_pop_front(kCbGTmp2, 1);
  }
  pack_final(dst0);
}

/// Protocol ops of `points` emit_tap_chain calls on `pass` (the IR
/// transcript). All traffic is compute-local.
std::vector<ir::Op> tap_chain_ops(const LoweredPass& pass, const ir::Count& points);

/// One CB of a program's list, in creation order: the builders create it
/// (create_cbs) and the IR models declare it under `name`. `kernel_local`
/// marks a compute-private accumulator (ttmetal::Program::create_cb).
struct CbSpec {
  int id = 0;
  std::uint32_t pages = 1;
  std::string name;
  std::uint32_t page_bytes = kTileBytes;
  bool kernel_local = false;
};

inline void create_cbs(ttmetal::Program& prog, const std::vector<int>& cores,
                       const std::vector<CbSpec>& cbs) {
  for (const CbSpec& cb : cbs) {
    prog.create_cb(cb.id, cores, cb.page_bytes, cb.pages, cb.kernel_local);
  }
}

/// The tap chain's CBs in creation order: one `field_pages`-page CB per
/// field (on row-chunk the fields any pass reads, `depth`-page streams; on
/// the slab strategies the fields the single pass reads or writes, 1-page
/// alias vehicles), the weight alias CB when the table is non-empty, the
/// accumulators some pass uses (kCbGInter with a later term or a scale,
/// kCbGTmp with a later weighted term or Life, kCbGTmp2 with Life; all
/// three kernel-local) and the `out_pages`-page output CB.
std::vector<CbSpec> tap_chain_cbs(const GeneralShared& sh, std::uint32_t field_pages,
                                  std::uint32_t out_pages);

/// The row-chunk program's CBs: the tap chain's with `depth`-page streams
/// and a 4-page output CB, then the 32-byte residual page when the launch
/// tracks one.
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

/// One point of a slab strategy (SRAM-resident or temporal): chunk `c0` of
/// local slab row `lr`, field f's taps aliased out of slab `src[f]`, the
/// result packed straight into slab `dst` (interior col c0 = data elem
/// c0+1) through kCbGOut's write pointer.
inline void emit_slab_point(ttmetal::ComputeCtx& ctx, const LoweredPass& pass,
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
  emit_tap_chain(ctx, wtab, pass, rows.chunk * 2, tap_at, [&](int reg) {
    ctx.cb_set_wr_ptr(kCbGOut, rows.row_data(dst, lr) + (c0 + 1) * 2);
    ctx.pack_tile(reg, kCbGOut);
  });
}

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
/// (cores_x == 1): the one SRAM-resident skeleton (stencil_sram.cpp).
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
