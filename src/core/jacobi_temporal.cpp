/// \file jacobi_temporal.cpp
/// Temporal tiling (kTemporal): chain k iterations through SRAM per DRAM
/// pass. The paper's own attribution names DRAM bank queueing as the wall
/// (Table VII: 0.92 utilization with two cores), yet every row-chunk sweep
/// round-trips the grid through DRAM. Temporal tiling batches k
/// "generations" per pass through fast memory, the StencilStream /
/// Wormhole-stencil recipe adapted to Grayskull's explicit L1.
///
/// Shape of one pass (per core, strip rows [r0, r1), block rows B):
///   * The reading mover fetches block rows plus a k-deep halo *skirt*
///     from the epoch's source grid into an L1 slab — the only DRAM reads
///     of the whole epoch.
///   * The compute kernel runs k trapezoidal sub-iterations entirely out
///     of L1, ping-ponging between two slabs. Sub-step s computes rows
///     [b0 - (k-s)*v, b1 + (k-s)*v) (clamped to the domain), where v is the
///     stencil's vertical reach: the valid interior shrinks by v rows per
///     step. Rows outside the block are computed *redundantly* (they
///     overlap the neighbouring block's trapezoid) — the skirt recompute
///     replaces the per-sub-iteration halo exchange of the SRAM-resident
///     solver, so no inter-core traffic or synchronisation happens inside
///     an epoch at all.
///   * The writing mover stores only generation k of rows [b0, b1) — the
///     only DRAM writes of the epoch.
/// DRAM traffic per iteration drops from 2 rows/row (read + write) to
/// ~(2B + 2k)/(kB) rows/row. A device-wide barrier between epochs gives
/// the writes-before-next-reads edge; inside an epoch the three kernels
/// hand one block around a per-core semaphore ring.
///
/// Slab rows use the SRAM-resident program's SlabRows layout ([32 B
/// prefix][L][W interior][R][tile-spill pad]), and the compute kernel runs
/// the same per-point chains (emit_classic_point or emit_tap_chain), so
/// results are bit-exact with k sequential depth-1 sweeps (and with the CPU
/// reference). Classic Jacobi and general single-pass programs share this
/// one skeleton through thin adapters.

#include <algorithm>
#include <cstring>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

// Per-core semaphore ring: one block in flight at a time.
constexpr int kSemLoaded = 0;    // dm0 -> compute: slabs loaded and patched
constexpr int kSemComputed = 1;  // compute -> dm1: final generation packed
constexpr int kSemFree = 2;      // dm1 -> dm0: slab reusable (initial 1)

struct TemporalField {
  std::uint64_t fin = 0;     ///< DRAM buffer holding the field's final state
  std::uint64_t oth = 0;     ///< parity partner; 0 for read-only fields
  std::uint32_t slab_a = 0;  ///< load target / odd-step source
  std::uint32_t slab_b = 0;  ///< odd-step destination; 0 unless written
  bool written = false;
  bool streamed = false;     ///< referenced by the pass (needs a slab)
};

struct TemporalShared : SlabRows {
  PaddedLayout layout;
  int iterations = 0;
  int depth = 1;  ///< k: iterations chained per DRAM pass
  std::uint32_t nsr = 0;             // slab capacity in rows
  std::uint32_t block_rows = 0;      // B: final-generation rows per block
  int v = 1;      ///< written-field vertical reach: trapezoid shrink per step
  int reach = 1;  ///< max vertical reach over all taps: skirt load extent
  std::vector<TemporalField> fields;
  int wf = 0;  ///< index of the written field
  std::vector<CoreRange> ranges;  // cores_x == 1: one strip per core
  std::vector<int> core_ids;
  int barrier_id = kIterationBarrier;
  bool classic = true;         ///< replicate the Jacobi op chain verbatim
  LoweredPass pass;            // general path only
  std::vector<float> weights;  // general path only

  explicit TemporalShared(const PaddedLayout& l) : SlabRows(l), layout(l) {}

  int epochs() const { return (iterations + depth - 1) / depth; }
  /// Chained depth of epoch `e` (the last epoch may be partial).
  int depth_of(int e) const { return std::min(depth, iterations - e * depth); }

  /// Written-field grids of epoch `e`, anchored at the end so the LAST
  /// epoch lands in the canonical final buffer (iterations odd ? d2 : d1 —
  /// the parity the driver and the serving readback already assume). Epoch
  /// 0 may source either grid: both are staged with the initial image.
  std::uint64_t dst_grid(int e) const {
    return (epochs() - 1 - e) % 2 == 0 ? fields[static_cast<std::size_t>(wf)].fin
                                       : fields[static_cast<std::size_t>(wf)].oth;
  }
  std::uint64_t src_grid(int e) const {
    const auto& f = fields[static_cast<std::size_t>(wf)];
    return dst_grid(e) == f.fin ? f.oth : f.fin;
  }

  /// Source slab of field `f` during sub-step `s` (1-based): the written
  /// field ping-pongs a -> b -> a -> ..., read-only fields sit in one slab.
  std::uint32_t src_slab(int f, int s) const {
    const auto& tf = fields[static_cast<std::size_t>(f)];
    if (!tf.written) return tf.slab_a;
    return s % 2 == 1 ? tf.slab_a : tf.slab_b;
  }
  /// Destination slab of sub-step `s` (1-based).
  std::uint32_t dst_slab(int s) const {
    const auto& tf = fields[static_cast<std::size_t>(wf)];
    return s % 2 == 1 ? tf.slab_b : tf.slab_a;
  }

  /// One block's geometry. Sub-step s of `de` computes rows
  /// [step_lo(s), step_hi(s)); the slabs hold rows [glo, ghi) — possibly
  /// including the BC rows -1 / H — at local row gr - glo.
  struct Block {
    std::int64_t b0 = 0, b1 = 0;   // final-generation rows
    std::int64_t glo = 0, ghi = 0; // loaded row span
    int de = 1;
  };
  Block block(std::int64_t b0, std::int64_t b1, int de) const {
    Block bk;
    bk.b0 = b0;
    bk.b1 = b1;
    bk.de = de;
    const auto H = static_cast<std::int64_t>(layout.height());
    const std::int64_t lo1 = std::max<std::int64_t>(b0 - (de - 1) * v, 0);
    const std::int64_t hi1 = std::min<std::int64_t>(b1 + (de - 1) * v, H);
    bk.glo = std::max<std::int64_t>(lo1 - reach, -1);
    bk.ghi = std::min<std::int64_t>(hi1 - 1 + reach, H) + 1;
    return bk;
  }
  std::int64_t step_lo(const Block& bk, int s) const {
    return std::max<std::int64_t>(bk.b0 - static_cast<std::int64_t>(bk.de - s) * v, 0);
  }
  std::int64_t step_hi(const Block& bk, int s) const {
    return std::min<std::int64_t>(bk.b1 + static_cast<std::int64_t>(bk.de - s) * v,
                                  static_cast<std::int64_t>(layout.height()));
  }
};

void build_temporal_kernels(ttmetal::Program& prog,
                            std::shared_ptr<TemporalShared> sh) {
  const std::uint32_t W = sh->layout.width();

  // Block sizing against the slab budget: the written field needs two
  // ping-pong slabs, each referenced read-only field one, each sized
  // B + 2*((k-1)*v + reach) rows.
  int nslabs = 0;
  for (const auto& f : sh->fields) {
    if (f.streamed || f.written) nslabs += f.written ? 2 : 1;
  }
  TTSIM_CHECK(nslabs >= 2);
  const std::uint32_t fixed = 2 * static_cast<std::uint32_t>(
      (sh->depth - 1) * sh->v + sh->reach);
  const std::int64_t rows_budget =
      static_cast<std::int64_t>(kSlabBudget / sh->row_stride) / nslabs -
      static_cast<std::int64_t>(fixed);
  const std::int64_t B =
      std::min<std::int64_t>(rows_budget, sh->layout.height());
  if (B < 1) {
    TTSIM_THROW_API("temporal depth " << sh->depth << " on a " << W
                    << "-wide domain leaves no room for a row block in the "
                    "1 MiB L1 (" << nslabs << " slabs of "
                    << fixed << "+ skirt rows); lower the depth");
  }
  sh->block_rows = static_cast<std::uint32_t>(B);
  sh->nsr = sh->block_rows + fixed;

  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int>& cores = sh->core_ids;
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);

  // CBs. Classic runs the Jacobi scalar/inter/out trio; the general path
  // mirrors the SRAM-resident lowering (alias CBs are never pushed).
  std::uint32_t wtab = 0;
  if (sh->classic) {
    create_classic_slab_cbs(prog, cores);
  } else {
    for (std::size_t f = 0; f < sh->fields.size(); ++f) {
      if (sh->fields[f].streamed) {
        prog.create_cb(kCbFieldBase + static_cast<int>(f), cores, kTileBytes, 1);
      }
    }
    create_chain_cbs(prog, cores, sh->pass.terms.size() > 1,
                     sh->pass.post != PostOp::kNone, 1);
    wtab = prog.l1_buffer_address(prog.create_l1_buffer(
        cores, static_cast<std::uint32_t>(sh->weights.size()) * kTileBytes));
  }

  const std::uint32_t slab_bytes = sh->nsr * sh->row_stride;
  for (auto& f : sh->fields) {
    if (!(f.streamed || f.written)) continue;
    f.slab_a = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
    if (f.written) {
      f.slab_b = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
    }
  }

  prog.create_semaphore(kSemLoaded, cores, 0);
  prog.create_semaphore(kSemComputed, cores, 0);
  prog.create_semaphore(kSemFree, cores, 1);
  // Epoch barrier: every core's dm0 and dm1 arrive once per epoch, so no
  // core reads epoch e+1's source skirt (which overlaps *other* cores'
  // strips) before every core's epoch-e writes drained to DRAM. Compute
  // is downstream of dm0 via kSemLoaded and need not participate.
  prog.create_global_barrier(sh->barrier_id, 2 * ncores);

  const int E = sh->epochs();

  // ---------------- reading data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, E](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t read_bytes = sh->row_data_elems * 2 + sh->off;
        const auto H = static_cast<std::int64_t>(sh->layout.height());
        const std::uint32_t width = sh->layout.width();
        const auto& wfld = sh->fields[static_cast<std::size_t>(sh->wf)];
        for (int e = 0; e < E; ++e) {
          const int de = sh->depth_of(e);
          const std::uint64_t wsrc = sh->src_grid(e);
          for (std::int64_t b0 = rg.row_lo; b0 < rg.row_hi;
               b0 += sh->block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->block_rows, rg.row_hi), de);
            ctx.semaphore_wait(kSemFree);
            for (std::size_t f = 0; f < sh->fields.size(); ++f) {
              const auto& tf = sh->fields[f];
              if (!(tf.streamed || tf.written)) continue;
              // Read-only fields never flip parity: always read d1.
              const std::uint64_t src = tf.written ? wsrc : tf.fin;
              for (std::int64_t gr = bk.glo; gr < bk.ghi; ++gr) {
                const auto lr = static_cast<std::uint32_t>(gr - bk.glo);
                const std::uint64_t addr = src + sh->layout.byte_offset(gr, -1);
                ctx.noc_async_read(ctx.get_noc_addr(addr - sh->off),
                                   sh->row_data(tf.slab_a, lr) - sh->off,
                                   read_bytes);
              }
            }
            ctx.noc_async_read_barrier();
            // Patch the ping-pong partner: packs write interior elements
            // only, so before sub-step 2 reads slab_b its L/R boundary
            // columns — and whole BC rows where the skirt hits the domain
            // edge — must carry the same values the loads put in slab_a.
            if (de >= 2) {
              for (std::int64_t gr = bk.glo; gr < bk.ghi; ++gr) {
                const auto lr = static_cast<std::uint32_t>(gr - bk.glo);
                const std::uint32_t ra = sh->row_data(wfld.slab_a, lr);
                const std::uint32_t rb = sh->row_data(wfld.slab_b, lr);
                if (gr == -1 || gr == H) {
                  ctx.l1_memcpy(rb, ra, sh->row_data_elems * 2);
                } else {
                  std::uint16_t bits = 0;
                  std::memcpy(&bits, ctx.l1_ptr(ra), 2);
                  ctx.l1_store_u16(rb, bits);
                  std::memcpy(&bits, ctx.l1_ptr(ra + (width + 1) * 2), 2);
                  ctx.l1_store_u16(rb + (width + 1) * 2, bits);
                }
              }
            }
            ctx.semaphore_post(kSemLoaded);
            ctx.loop_tick();
          }
          ctx.global_barrier(sh->barrier_id);
        }
      },
      "temporal_reader");

  // ---------------- compute ----------------
  prog.create_kernel(
      cores,
      [sh, wtab, E](ttmetal::ComputeCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t width = sh->layout.width();
        if (sh->classic) {
          fill_scalar_page(ctx, kCbScalar, 0.25f);
        } else {
          ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
          fill_weight_table(ctx, wtab, sh->weights);
        }
        std::vector<TapAddr> taps;
        for (int e = 0; e < E; ++e) {
          const int de = sh->depth_of(e);
          for (std::int64_t b0 = rg.row_lo; b0 < rg.row_hi;
               b0 += sh->block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->block_rows, rg.row_hi), de);
            ctx.semaphore_wait(kSemLoaded);
            for (int s = 1; s <= de; ++s) {
              const std::uint32_t dst = sh->dst_slab(s);
              const std::int64_t lo = sh->step_lo(bk, s);
              const std::int64_t hi = sh->step_hi(bk, s);
              for (std::int64_t gr = lo; gr < hi; ++gr) {
                const auto lr = static_cast<std::uint32_t>(gr - bk.glo);
                for (std::uint32_t c0 = 0; c0 < width; c0 += sh->chunk) {
                  if (sh->classic) {
                    emit_classic_point(ctx, *sh, sh->src_slab(sh->wf, s), dst,
                                       lr, c0);
                  } else {
                    const std::uint32_t valid = sh->chunk * 2;
                    // Tap alias: field f's row gr+dr, elem c0+1+dc (elem 0
                    // is the L boundary column).
                    auto tap_at = [&](int f, int dr, int dc) {
                      const auto lrt = static_cast<std::uint32_t>(
                          gr + dr - bk.glo);
                      return sh->row_data(sh->src_slab(f, s), lrt) +
                             static_cast<std::uint32_t>(
                                 static_cast<std::int64_t>(c0) * 2 + 2 +
                                 2 * dc);
                    };
                    taps.clear();
                    for (const auto& t : sh->pass.terms) {
                      taps.push_back(TapAddr{kCbFieldBase + t.field,
                                             tap_at(t.field, t.dr, t.dc),
                                             valid, t.widx});
                    }
                    const TapAddr self{kCbFieldBase + sh->pass.self_field,
                                       tap_at(sh->pass.self_field, 0, 0),
                                       valid, 0};
                    emit_tap_chain(ctx, wtab, taps, sh->pass.post, self,
                                   [&](int reg) {
                                     ctx.cb_set_wr_ptr(
                                         kCbGOut,
                                         sh->row_data(dst, lr) + (c0 + 1) * 2);
                                     ctx.pack_tile(reg, kCbGOut);
                                   });
                  }
                  ctx.loop_tick();
                }
              }
            }
            ctx.semaphore_post(kSemComputed);
          }
        }
      },
      "temporal_compute");

  // ---------------- writing data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh, E](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t width = sh->layout.width();
        for (int e = 0; e < E; ++e) {
          const int de = sh->depth_of(e);
          const std::uint64_t dst_dram = sh->dst_grid(e);
          const std::uint32_t out_slab = sh->dst_slab(de);
          for (std::int64_t b0 = rg.row_lo; b0 < rg.row_hi;
               b0 += sh->block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->block_rows, rg.row_hi), de);
            ctx.semaphore_wait(kSemComputed);
            for (std::int64_t gr = bk.b0; gr < bk.b1; ++gr) {
              const auto lr = static_cast<std::uint32_t>(gr - bk.glo);
              ctx.noc_async_write(
                  sh->row_data(out_slab, lr) + 2,
                  ctx.get_noc_addr(dst_dram + sh->layout.byte_offset(gr, 0)),
                  width * 2);
            }
            // Write data is captured at issue, so the slab may be reused
            // immediately; DRAM visibility is settled by the epoch barrier.
            ctx.semaphore_post(kSemFree);
            ctx.loop_tick();
          }
          ctx.noc_async_write_barrier();
          ctx.global_barrier(sh->barrier_id);
        }
      },
      "temporal_writer");
}

}  // namespace

void build_temporal_program(ttmetal::Program& prog,
                            std::shared_ptr<KernelShared> base) {
  auto sh = std::make_shared<TemporalShared>(base->layout);
  sh->iterations = base->iterations;
  sh->depth = base->temporal_depth;
  sh->ranges = base->ranges;
  sh->core_ids = base->workers();
  sh->barrier_id = base->barrier_id;
  sh->classic = true;
  sh->v = 1;
  sh->reach = 1;
  TemporalField f;
  f.fin = base->iterations % 2 == 1 ? base->d2 : base->d1;
  f.oth = base->iterations % 2 == 1 ? base->d1 : base->d2;
  f.written = true;
  f.streamed = true;
  sh->fields = {f};
  sh->wf = 0;
  build_temporal_kernels(prog, sh);
}

void build_general_temporal_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> base) {
  TTSIM_CHECK(base->passes.size() == 1);
  auto sh = std::make_shared<TemporalShared>(base->layout);
  sh->iterations = base->iterations;
  sh->depth = base->temporal_depth;
  sh->ranges = base->ranges;
  sh->core_ids = base->workers();
  sh->barrier_id = base->barrier_id;
  sh->classic = false;
  sh->pass = base->passes[0];
  sh->weights = base->weights;
  sh->wf = sh->pass.target;

  const int nfields = base->nfields();
  sh->fields.resize(static_cast<std::size_t>(nfields));
  for (int f = 0; f < nfields; ++f) {
    auto& tf = sh->fields[static_cast<std::size_t>(f)];
    if (f == sh->wf) {
      tf.written = true;
      tf.fin = base->final_of(f);
      tf.oth = tf.fin == base->d1[static_cast<std::size_t>(f)]
                   ? base->d2[static_cast<std::size_t>(f)]
                   : base->d1[static_cast<std::size_t>(f)];
    } else {
      tf.fin = base->d1[static_cast<std::size_t>(f)];
    }
  }
  for (const auto& pf : sh->pass.reads) {
    sh->fields[static_cast<std::size_t>(pf.field)].streamed = true;
  }
  sh->fields[static_cast<std::size_t>(sh->wf)].streamed = true;

  // Trapezoid shrink v: the written field's vertical reach (only its rows
  // age between sub-steps). Skirt reach: the widest vertical tap of any
  // field, so one load extent serves every slab.
  int v = 0;
  int reach = 0;
  for (const auto& t : sh->pass.terms) {
    const int adr = t.dr < 0 ? -t.dr : t.dr;
    if (t.field == sh->wf) v = std::max(v, adr);
    reach = std::max(reach, adr);
  }
  sh->v = v;
  sh->reach = std::max(reach, v);
  build_temporal_kernels(prog, sh);
}

}  // namespace ttsim::core::detail
