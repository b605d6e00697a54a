/// \file stencil_sram.cpp
/// SRAM-resident lowering of the general frontend (single-field single-pass
/// programs, Y-only decompositions): the jacobi_sram machinery — both slab
/// parities resident in L1, neighbour-pairwise halo exchange, per-row R
/// restores after tile-pack spill, DRAM touched only for the initial load
/// and final writeback — driving the shared tap-chain emitter instead of
/// the fixed Jacobi chain. Because both strategies emit the identical FPU
/// op sequence per point, rowchunk-vs-SRAM bit-exactness holds by
/// construction; diagonal taps are safe here because the upward halo send's
/// R exclusion only leaves the receiver's halo-row R at its initial value,
/// and the R column is boundary-constant.
///
/// Slab row layout (32-byte alignment prefix, data begins at `off`):
///   [prefix][L][interior W elems][R][tile-spill pad]
/// Chunks are full width (or 1024 on wider multiples) so the simulated
/// pack's full-tile spill stays inside the row's pad; cfg.chunk_elems is
/// deliberately not honoured here. The host stores only the chunk's lanes,
/// but the R restores are charged work that models the hardware.

#include <cstring>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

// Semaphore ids per core (same protocol as jacobi_sram).
constexpr int kSemTopHalo = 0;     // posted by the upper neighbour's dm1
constexpr int kSemBottomHalo = 1;  // posted by the lower neighbour's dm0
constexpr int kSemComputeDm0 = 2;  // compute -> dm0: iteration finished
constexpr int kSemComputeDm1 = 3;  // compute -> dm1: iteration finished
constexpr int kSemRestored = 4;    // dm1 -> compute: R columns restored

struct SramShared {
  std::uint64_t d1 = 0, d2 = 0;
  PaddedLayout layout;
  int iterations = 0;
  LoweredPass pass;
  std::vector<float> weights;
  std::uint32_t chunk = 1024;
  std::uint32_t row_data_elems = 0;   // W + 2 (L, interior, R)
  std::uint32_t row_stride = 0;       // bytes per slab row incl. prefix+pad
  std::uint32_t off = 0;              // data offset inside a row (alignment)
  std::uint32_t slab_a = 0, slab_b = 0;  // L1 addresses
  std::uint32_t wtab = 0;
  int barrier_id = 0;
  std::vector<CoreRange> ranges;      // cores_x == 1: one strip per core
  std::vector<int> core_ids;

  explicit SramShared(const PaddedLayout& l) : layout(l) {}

  int worker_of(int pos) const { return core_ids[static_cast<std::size_t>(pos)]; }
  std::uint32_t rows_pc(int pos) const {
    return ranges[static_cast<std::size_t>(pos)].row_hi -
           ranges[static_cast<std::size_t>(pos)].row_lo;
  }
  std::uint32_t slab(int parity) const { return parity == 0 ? slab_a : slab_b; }
  std::uint32_t row_data(std::uint32_t slab_base, std::uint32_t lr) const {
    return slab_base + lr * row_stride + off;
  }
};

}  // namespace

void build_general_sram_program(ttmetal::Program& prog,
                                std::shared_ptr<GeneralShared> base) {
  TTSIM_CHECK_MSG(base->nfields() == 1 && base->passes.size() == 1,
                  "SRAM lowering handles single-field single-pass programs");
  const auto sh = std::make_shared<SramShared>(base->layout);
  sh->d1 = base->d1[0];
  sh->d2 = base->d2[0];
  sh->iterations = base->iterations;
  sh->pass = base->passes[0];
  sh->weights = base->weights;
  sh->barrier_id = base->barrier_id;
  sh->ranges = base->ranges;
  const std::uint32_t W = base->layout.width();
  sh->chunk = std::min<std::uint32_t>(1024, W);
  while (sh->chunk > 16 && (W % sh->chunk != 0 || sh->chunk % 16 != 0)) --sh->chunk;
  TTSIM_CHECK(W % sh->chunk == 0);
  sh->row_data_elems = W + 2;
  // Room for the alignment prefix and the FPU tile spill past the interior.
  const std::uint32_t data_span = std::max<std::uint32_t>(W + 2, 1026) * 2;
  sh->row_stride = static_cast<std::uint32_t>(align_up(32 + data_span, 32));
  sh->off = static_cast<std::uint32_t>(base->layout.byte_offset(0, -1) % 32);

  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = base->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);
  sh->core_ids = cores;

  std::uint32_t max_rows = 0;
  for (int c = 0; c < ncores; ++c) max_rows = std::max(max_rows, sh->rows_pc(c));
  const std::uint32_t slab_bytes = (max_rows + 2) * sh->row_stride;

  // The field CB is a read-alias vehicle and kCbGOut the pack's write-alias
  // vehicle — neither is ever pushed. The accumulator CBs carry real pages.
  const bool needs_inter = sh->pass.terms.size() > 1;
  const bool needs_post = sh->pass.post != PostOp::kNone;
  prog.create_cb(kCbFieldBase, cores, kTileBytes, 1);
  prog.create_cb(kCbWgt, cores, kTileBytes, 1);
  if (needs_inter) prog.create_cb(kCbGInter, cores, kTileBytes, 2);
  if (needs_inter || needs_post) prog.create_cb(kCbGTmp, cores, kTileBytes, 2);
  if (needs_post) prog.create_cb(kCbGTmp2, cores, kTileBytes, 2);
  prog.create_cb(kCbGOut, cores, kTileBytes, 1);
  sh->slab_a = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
  sh->slab_b = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
  sh->wtab = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(sh->weights.size()) * kTileBytes));
  for (int sem = kSemTopHalo; sem <= kSemRestored; ++sem) {
    prog.create_semaphore(sem, cores, 0);
  }
  prog.create_global_barrier(sh->barrier_id, 3 * ncores);

  const int n = sh->iterations;
  const int barrier = sh->barrier_id;

  // ---------------- dm0: initial load + upward halo sends ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, n, barrier](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t rows = sh->rows_pc(pos);
        const std::uint32_t read_bytes = sh->row_data_elems * 2 + sh->off;
        // Load rows r0-1 .. r1 into both slabs (halo rows and L/R columns
        // must be valid in each parity's slab).
        for (std::uint32_t parity = 0; parity < 2; ++parity) {
          for (std::uint32_t lr = 0; lr < rows + 2; ++lr) {
            const std::int64_t gr = static_cast<std::int64_t>(rg.row_lo) - 1 + lr;
            const std::uint64_t addr = sh->d1 + sh->layout.byte_offset(gr, -1);
            ctx.noc_async_read(ctx.get_noc_addr(addr - sh->off),
                               sh->slab(static_cast<int>(parity)) +
                                   lr * sh->row_stride,
                               read_bytes);
          }
        }
        ctx.noc_async_read_barrier();
        ctx.global_barrier(barrier);
        // Per iteration k >= 1: send the top edge row of the iteration's
        // source slab to the upper neighbour's bottom halo slot.
        const bool has_upper = pos > 0;
        for (int k = 1; k < n; ++k) {
          ctx.semaphore_wait(kSemComputeDm0);  // iteration k-1 finished
          if (has_upper) {
            const std::uint32_t src_slab = sh->slab(k % 2);
            const std::uint32_t upper_rows = sh->rows_pc(pos - 1);
            // Send [prefix|L|interior] but NOT the R boundary element: dm1
            // restores R concurrently, and the receiver's halo-row R — which
            // only diagonal taps of edge cells read — keeps its initial
            // value, correct because the R column is boundary-constant.
            ctx.noc_async_write_core(
                sh->worker_of(pos - 1),
                sh->row_data(src_slab, upper_rows + 1) - sh->off,
                sh->row_data(src_slab, 1) - sh->off,
                (sh->row_data_elems - 1) * 2 + sh->off);
            ctx.noc_semaphore_inc(sh->worker_of(pos - 1), kSemBottomHalo);
          }
          ctx.loop_tick();
        }
        ctx.noc_async_write_barrier();
      },
      "stencil_sram_dm0");

  // ---------------- compute ----------------
  prog.create_kernel(
      cores,
      [sh, n, barrier](ttmetal::ComputeCtx& ctx) {
        const int pos = ctx.position();
        const std::uint32_t rows = sh->rows_pc(pos);
        const bool has_upper = pos > 0;
        const bool has_lower = pos + 1 < ctx.group_size();
        ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
        fill_weight_table(ctx, sh->wtab, sh->weights);
        // The slabs must be fully loaded before the first sweep reads (and
        // overwrites!) them.
        ctx.global_barrier(barrier);
        const std::uint32_t valid = sh->chunk * 2;
        std::vector<TapAddr> taps(sh->pass.terms.size());
        for (int k = 0; k < n; ++k) {
          if (k > 0) {
            if (has_upper) ctx.semaphore_wait(kSemTopHalo);
            if (has_lower) ctx.semaphore_wait(kSemBottomHalo);
            ctx.semaphore_wait(kSemRestored);
          }
          const std::uint32_t src = sh->slab(k % 2);
          const std::uint32_t dst = sh->slab((k + 1) % 2);
          for (std::uint32_t lr = 1; lr <= rows; ++lr) {
            for (std::uint32_t c0 = 0; c0 < sh->layout.width(); c0 += sh->chunk) {
              // Tap alias: data elem c0+1+dc of slab row lr+dr (elem 0 is L,
              // the boundary column).
              for (std::size_t t = 0; t < sh->pass.terms.size(); ++t) {
                const LoweredTerm& term = sh->pass.terms[t];
                const std::uint32_t row = sh->row_data(
                    src, static_cast<std::uint32_t>(static_cast<int>(lr) + term.dr));
                taps[t] = TapAddr{kCbFieldBase,
                                  row + c0 * 2 +
                                      static_cast<std::uint32_t>(2 + 2 * term.dc),
                                  valid, term.widx};
              }
              const TapAddr self{kCbFieldBase,
                                 sh->row_data(src, lr) + c0 * 2 + 2, valid, 0};
              emit_tap_chain(ctx, sh->wtab, taps, sh->pass.post, self,
                             [&](int reg) {
                               // Pack straight into the destination slab row
                               // (interior col c0 = data elem c0+1).
                               ctx.cb_set_wr_ptr(
                                   kCbGOut, sh->row_data(dst, lr) + (c0 + 1) * 2);
                               ctx.pack_tile(reg, kCbGOut);
                             });
              ctx.loop_tick();
            }
          }
          ctx.semaphore_post(kSemComputeDm0);
          ctx.semaphore_post(kSemComputeDm1);
        }
      },
      "stencil_sram_compute");

  // ---------------- dm1: restores, downward halo sends, final writeback ---
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh, n, barrier](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t rows = sh->rows_pc(pos);
        const bool has_lower = pos + 1 < ctx.group_size();
        const std::uint32_t width = sh->layout.width();
        ctx.global_barrier(barrier);
        // Snapshot the right boundary value from the freshly loaded slab
        // (element W+1 of any data row) for the per-row restores.
        std::uint16_t r_bits = 0;
        std::memcpy(&r_bits, ctx.l1_ptr(sh->row_data(sh->slab_a, 1) + (width + 1) * 2), 2);

        for (int k = 1; k < n; ++k) {
          ctx.semaphore_wait(kSemComputeDm1);  // iteration k-1 finished
          const std::uint32_t src_slab = sh->slab(k % 2);
          // A simulated pack of the last chunk spills past the interior
          // when W < 1024, so restore the R boundary element of every
          // computed row. The host stores only the chunk, but these are
          // charged stores that model the hardware's traffic.
          if (width < 1024) {
            for (std::uint32_t lr = 1; lr <= rows; ++lr) {
              ctx.l1_store_u16(sh->row_data(src_slab, lr) + (width + 1) * 2, r_bits);
            }
          }
          ctx.semaphore_post(kSemRestored);
          if (has_lower) {
            ctx.noc_async_write_core(
                sh->worker_of(pos + 1), sh->row_data(src_slab, 0) - sh->off,
                sh->row_data(src_slab, rows) - sh->off,
                sh->row_data_elems * 2 + sh->off);
            ctx.noc_semaphore_inc(sh->worker_of(pos + 1), kSemTopHalo);
          }
          ctx.loop_tick();
        }
        // Final writeback: the last iteration's destination slab holds the
        // answer; restore its R column first, then stream it to DRAM.
        ctx.semaphore_wait(kSemComputeDm1);
        const std::uint32_t final_slab = sh->slab(n % 2);
        if (width < 1024) {
          for (std::uint32_t lr = 1; lr <= rows; ++lr) {
            ctx.l1_store_u16(sh->row_data(final_slab, lr) + (width + 1) * 2, r_bits);
          }
        }
        const std::uint64_t dram = (n % 2 == 1) ? sh->d2 : sh->d1;
        for (std::uint32_t lr = 1; lr <= rows; ++lr) {
          const std::int64_t gr = static_cast<std::int64_t>(rg.row_lo) - 1 + lr;
          ctx.noc_async_write(sh->row_data(final_slab, lr) + 2,
                              ctx.get_noc_addr(dram + sh->layout.byte_offset(gr, 0)),
                              width * 2);
        }
        ctx.noc_async_write_barrier();
      },
      "stencil_sram_dm1");
}

}  // namespace ttsim::core::detail
