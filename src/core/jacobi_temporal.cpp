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
/// the tap chain, so results are bit-exact with k sequential depth-1
/// sweeps (and with the CPU reference). Every launch is a single-pass
/// general program, classic Jacobi's through to_general; the block sizing
/// is temporal_geometry, which the IR model calls too.

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
  std::uint32_t slab_a = 0;  ///< load target / odd-step source
  std::uint32_t slab_b = 0;  ///< odd-step destination; 0 unless written
  bool written = false;
  bool streamed = false;     ///< held in a slab (read or written)
};

/// The program (one pass; cores_x == 1: one strip per core; k =
/// temporal_depth iterations chained per DRAM pass) with its geometry,
/// per-field slabs and weight table.
struct TemporalShared : GeneralShared, SlabRows {
  TemporalGeometry geo;
  int wf = 0;  ///< index of the written field
  std::vector<TemporalField> fields;
  std::uint32_t wtab = 0;  ///< L1 address of the weight table

  explicit TemporalShared(const GeneralShared& g)
      : GeneralShared(g), SlabRows(g.layout), geo(temporal_geometry(g)),
        wf(g.passes[0].target), fields(static_cast<std::size_t>(g.nfields())) {
    core_ids = g.workers();
    for (int f = 0; f < g.nfields(); ++f) {
      const auto fi = static_cast<std::size_t>(f);
      auto& tf = fields[fi];
      tf.streamed = geo.streamed[fi] != 0;
      tf.written = f == wf;
    }
  }

  /// Chained depth of epoch `e` (the last epoch may be partial).
  int depth_of(int e) const {
    return std::min(temporal_depth, iterations - e * temporal_depth);
  }

  /// Written-field grids of epoch `e`: each epoch is one generation of the
  /// parity rule, so the last one lands in final_of.
  std::uint64_t dst_grid(int e) const { return grid(wf, after(e)); }
  std::uint64_t src_grid(int e) const { return grid(wf, after(e - 1)); }

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
    const std::int64_t lo1 = std::max<std::int64_t>(b0 - (de - 1) * geo.v, 0);
    const std::int64_t hi1 = std::min<std::int64_t>(b1 + (de - 1) * geo.v, H);
    bk.glo = std::max<std::int64_t>(lo1 - geo.reach, -1);
    bk.ghi = std::min<std::int64_t>(hi1 - 1 + geo.reach, H) + 1;
    return bk;
  }
  std::int64_t step_lo(const Block& bk, int s) const {
    return std::max<std::int64_t>(bk.b0 - static_cast<std::int64_t>(bk.de - s) * geo.v, 0);
  }
  std::int64_t step_hi(const Block& bk, int s) const {
    return std::min<std::int64_t>(bk.b1 + static_cast<std::int64_t>(bk.de - s) * geo.v,
                                  static_cast<std::int64_t>(layout.height()));
  }
};

}  // namespace

void build_general_temporal_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> base) {
  auto sh = std::make_shared<TemporalShared>(*base);
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int>& cores = sh->core_ids;
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);

  // The tap chain's CBs, then its weight table, then the slabs.
  create_cbs(prog, cores, tap_chain_cbs(*sh, 1, 1));
  if (sh->table_bytes() > 0) {
    sh->wtab = prog.l1_buffer_address(prog.create_l1_buffer(cores, sh->table_bytes()));
  }
  const std::uint32_t slab_bytes = sh->geo.slab_rows * sh->row_stride;
  for (auto& f : sh->fields) {
    if (!f.streamed) continue;
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

  const int E = sh->generations();

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
               b0 += sh->geo.block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->geo.block_rows, rg.row_hi), de);
            ctx.semaphore_wait(kSemFree);
            for (std::size_t f = 0; f < sh->fields.size(); ++f) {
              const auto& tf = sh->fields[f];
              if (!tf.streamed) continue;
              // Read-only fields never flip parity: always read d1.
              const std::uint64_t src =
                  tf.written ? wsrc : sh->grid(static_cast<int>(f), 0);
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
      [sh, E](ttmetal::ComputeCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t width = sh->layout.width();
        fill_weight_table(ctx, sh->wtab, sh->weights);
        std::vector<std::uint32_t> src(sh->fields.size());
        for (int e = 0; e < E; ++e) {
          const int de = sh->depth_of(e);
          for (std::int64_t b0 = rg.row_lo; b0 < rg.row_hi;
               b0 += sh->geo.block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->geo.block_rows, rg.row_hi), de);
            ctx.semaphore_wait(kSemLoaded);
            for (int s = 1; s <= de; ++s) {
              for (std::size_t f = 0; f < src.size(); ++f) {
                src[f] = sh->src_slab(static_cast<int>(f), s);
              }
              const std::uint32_t dst = sh->dst_slab(s);
              const std::int64_t lo = sh->step_lo(bk, s);
              const std::int64_t hi = sh->step_hi(bk, s);
              for (std::int64_t gr = lo; gr < hi; ++gr) {
                const auto lr = static_cast<std::uint32_t>(gr - bk.glo);
                for (std::uint32_t c0 = 0; c0 < width; c0 += sh->chunk) {
                  emit_slab_point(ctx, sh->passes[0], *sh, sh->wtab, src, dst, lr, c0);
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
               b0 += sh->geo.block_rows) {
            const auto bk = sh->block(
                b0, std::min<std::int64_t>(b0 + sh->geo.block_rows, rg.row_hi), de);
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

}  // namespace ttsim::core::detail
