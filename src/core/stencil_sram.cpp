/// \file stencil_sram.cpp
/// The SRAM-resident program (kSramResident) — the paper's concluding
/// future-work proposal made concrete: "first copying the domain into local
/// SRAM and operating from there, although this would limit the size of
/// the domain and require direct neighbour to neighbour communications."
///
/// Each core holds its row slab (plus halo rows) twice in its 1 MB SRAM.
/// Per iteration it exchanges one edge row with each vertical neighbour
/// over the NoC (noc_async_write_core + noc_semaphore_inc), computes
/// entirely from SRAM with aliased CB read pointers, and packs results
/// straight into the destination slab through the write-pointer aliasing
/// extension. DRAM sees only the initial load and the final writeback, and
/// synchronisation is neighbour-pairwise (no device-wide barrier) — the
/// systolic structure the paper sketches.
///
/// Every launch is a single-field single-pass general program (Y-only
/// decompositions), classic Jacobi's through to_general. The compute
/// kernel runs the tap chain, as the row-chunk program does, so results
/// are bit-exact across strategies. Diagonal taps are safe: the upward halo
/// send's R exclusion only leaves the receiver's halo-row R at its initial
/// value, and the R column is boundary-constant.
///
/// Slab rows follow SlabRows ([prefix][L][interior W][R][tile-spill pad]).
/// On the simulated clock the pack of the last chunk spills its unused FPU
/// lanes past the interior (clobbering R when W < 1024); the writing mover
/// restores R with a single charged scalar store per row before the slab is
/// read again. The host itself stores only the chunk's lanes.

#include <cstring>
#include <string>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

// Semaphore ids per core.
constexpr int kSemTopHalo = 0;     // posted by the upper neighbour's dm1
constexpr int kSemBottomHalo = 1;  // posted by the lower neighbour's dm0
constexpr int kSemComputeDm0 = 2;  // compute -> dm0: iteration finished
constexpr int kSemComputeDm1 = 3;  // compute -> dm1: iteration finished
constexpr int kSemRestored = 4;    // dm1 -> compute: R columns restored

/// The program (one field, one pass; cores_x == 1: one strip per core,
/// barrier_id the initial-load rendezvous) with its slab rows and L1
/// addresses.
struct SramShared : GeneralShared, SlabRows {
  std::uint32_t slab_a = 0, slab_b = 0, wtab = 0;  // L1 addresses

  explicit SramShared(const GeneralShared& g) : GeneralShared(g), SlabRows(g.layout) {
    core_ids = g.workers();  // logical position -> physical worker
  }

  /// Physical worker running logical position `pos` (halo exchange targets
  /// its *positional* neighbours; the mapping survives core remapping).
  int worker_of(int pos) const { return core_ids[static_cast<std::size_t>(pos)]; }
  std::uint32_t rows_pc(int pos) const {
    return ranges[static_cast<std::size_t>(pos)].row_hi -
           ranges[static_cast<std::size_t>(pos)].row_lo;
  }
  std::uint32_t slab(int parity) const { return parity == 0 ? slab_a : slab_b; }
};

}  // namespace

void build_general_sram_program(ttmetal::Program& prog,
                                std::shared_ptr<GeneralShared> base) {
  TTSIM_CHECK(base->nfields() == 1 && base->passes.size() == 1);
  auto sh = std::make_shared<SramShared>(*base);
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int>& cores = sh->core_ids;
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);

  std::uint32_t max_rows = 0;
  for (int c = 0; c < ncores; ++c) max_rows = std::max(max_rows, sh->rows_pc(c));
  const std::uint32_t slab_bytes = (max_rows + 2) * sh->row_stride;

  // The tap chain's CBs, then the slabs, then its weight table.
  create_cbs(prog, cores, tap_chain_cbs(*sh, 1, 1));
  sh->slab_a = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
  sh->slab_b = prog.l1_buffer_address(prog.create_l1_buffer(cores, slab_bytes));
  if (sh->table_bytes() > 0) {
    sh->wtab = prog.l1_buffer_address(prog.create_l1_buffer(cores, sh->table_bytes()));
  }
  for (int sem = kSemTopHalo; sem <= kSemRestored; ++sem) {
    prog.create_semaphore(sem, cores, 0);
  }
  prog.create_global_barrier(sh->barrier_id, 3 * ncores);

  const int n = sh->iterations;

  // ---------------- dm0: initial load + upward halo sends ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, n](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t rows = sh->rows_pc(pos);
        const std::uint32_t read_bytes = sh->row_data_elems * 2 + sh->off;
        // Load rows r0-1 .. r1 into both slabs (halo rows and L/R columns
        // must be valid in each parity's slab).
        for (std::uint32_t parity = 0; parity < 2; ++parity) {
          for (std::uint32_t lr = 0; lr < rows + 2; ++lr) {
            const std::int64_t gr = static_cast<std::int64_t>(rg.row_lo) - 1 + lr;
            const std::uint64_t addr = sh->d1[0] + sh->layout.byte_offset(gr, -1);
            ctx.noc_async_read(ctx.get_noc_addr(addr - sh->off),
                               sh->slab(static_cast<int>(parity)) +
                                   lr * sh->row_stride,
                               read_bytes);
          }
        }
        ctx.noc_async_read_barrier();
        ctx.global_barrier(sh->barrier_id);
        // Per iteration k >= 1: send the top edge row of the iteration's
        // source slab to the upper neighbour's bottom halo slot.
        const bool has_upper = pos > 0;
        for (int k = 1; k < n; ++k) {
          ctx.semaphore_wait(kSemComputeDm0);  // iteration k-1 finished
          if (has_upper) {
            const std::uint32_t src_slab = sh->slab(k % 2);
            const std::uint32_t upper_rows = sh->rows_pc(pos - 1);
            // Send [prefix|L|interior] but NOT the R boundary element: dm1
            // is restoring R concurrently (both movers are gated only on the
            // compute semaphores). Excluding it keeps the exchange race-free
            // without a dm0<->dm1 handshake; the receiver's halo-row R keeps
            // its initial value, which only diagonal taps of edge cells read.
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
      [sh, n](ttmetal::ComputeCtx& ctx) {
        const int pos = ctx.position();
        const std::uint32_t rows = sh->rows_pc(pos);
        const bool has_upper = pos > 0;
        const bool has_lower = pos + 1 < ctx.group_size();
        // The weight table is local to the compute core here: fill it
        // ourselves.
        fill_weight_table(ctx, sh->wtab, sh->weights);
        // The slabs must be fully loaded before the first sweep reads (and
        // overwrites!) them.
        ctx.global_barrier(sh->barrier_id);
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
              emit_slab_point(ctx, sh->passes[0], *sh, sh->wtab, {&src, 1}, dst, lr, c0);
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
      [sh, n](ttmetal::DataMoverCtx& ctx) {
        const int pos = ctx.position();
        const CoreRange rg = sh->ranges[static_cast<std::size_t>(pos)];
        const std::uint32_t rows = sh->rows_pc(pos);
        const bool has_lower = pos + 1 < ctx.group_size();
        const std::uint32_t width = sh->layout.width();
        ctx.global_barrier(sh->barrier_id);
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
        const std::uint64_t dram = sh->final_of(0);
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
