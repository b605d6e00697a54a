/// \file jacobi_rowchunk.cpp
/// The Section VI optimised Jacobi design. Batches are one-dimensional
/// chunks of (up to) 1024 elements along X (Fig. 6); each batch needs one
/// contiguous read of chunk+2 elements (the chunk plus one halo element per
/// side). The reading data mover keeps a rotating window of row slots in
/// local SRAM — 2N+3 slots for read-ahead depth N, rotated continuously
/// across column strips so a column's first rows never land in slots the
/// previous column's in-flight batches still reference (the paper's N = 2
/// scheme needs 5 slots in steady state; the two extra slots absorb the
/// column-boundary overlap) — reads N batches ahead with one
/// tagged barrier per batch, and never copies memory: the compute kernel
/// redirects the input CBs' read pointers into the mover's slots with the
/// cb_set_rd_ptr SDK extension —
///   x-1 tile = slot(j)   + off        (chunk shifted left by one element)
///   x+1 tile = slot(j)   + off + 4 B  (shifted right)
///   y-1 tile = slot(j-1) + off + 2 B  (row above, centred)
///   y+1 tile = slot(j+1) + off + 2 B  (row below, centred)
/// where `off` is the Listing-4 alignment offset of the strip's left halo.

#include "jacobi_internal.hpp"

namespace ttsim::core::detail {
namespace {

std::uint32_t slot_bytes(std::uint32_t chunk) {
  // chunk + 2 halo elements, plus up to 32 alignment-prefix bytes.
  return static_cast<std::uint32_t>(align_up((chunk + 2) * 2 + 32, 64));
}

struct ChunkGrid {
  CoreRange rg;
  std::uint32_t chunk;   ///< elements per batch
  std::uint32_t ncols;   ///< column strips of `chunk` elements
  std::uint32_t nrows;
  std::uint32_t nslots;  ///< row-slot rotation length, 2N+3

  ChunkGrid(const CoreRange& r, std::uint32_t chunk_elems, std::uint32_t slots)
      : rg(r), nslots(slots) {
    const std::uint32_t strip = rg.col_hi - rg.col_lo;
    // Largest chunk that tiles the strip exactly and keeps writes aligned
    // (multiple of 16 elements). X-decompositions whose strips don't divide
    // by 1024 thus run with narrower chunks — wasting FPU lanes, which is
    // the cost the paper's Table VIII shows for cores-in-X scaling.
    chunk = std::min(chunk_elems, strip);
    while (chunk > 16 && (strip % chunk != 0 || chunk % 16 != 0)) --chunk;
    TTSIM_CHECK_MSG(strip % chunk == 0 && chunk % 16 == 0,
                    "no valid chunk width for strip " << strip);
    ncols = strip / chunk;
    nrows = rg.row_hi - rg.row_lo;
  }
  /// Slot index for input row y of column strip `col`. The rotation runs
  /// continuously across column strips (each strip touches nrows+2 rows:
  /// the strip plus one halo row per side), so the first rows of a new
  /// column take the slots *after* the previous column's tail instead of
  /// wrapping back onto slots its in-flight batches may still reference.
  std::uint32_t slot_of(std::uint32_t col, std::int64_t y) const {
    const std::int64_t t =
        static_cast<std::int64_t>(col) * (nrows + 2) +
        (y - (static_cast<std::int64_t>(rg.row_lo) - 1));
    return static_cast<std::uint32_t>(t % nslots);
  }
};

}  // namespace

void build_rowchunk_program(ttmetal::Program& prog, std::shared_ptr<KernelShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);

  // Read-ahead depth N: the reader keeps up to N row batches in flight.
  // Input CBs carry no data (read pointers are aliased); N pages give the
  // reader exactly the flow control that keeps a slot alive until the
  // compute kernel is done with the batches that read it — a reserve for
  // batch j waits for batch j-N to be popped, at which point the slot the
  // next issued row lands in (row j-N-1's) is no longer referenced.
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  // Slot-count bound for the continuous rotation. Batch k of a column
  // (continuous row index T+k for the column's first input row T) may issue
  // rows up to T+k+N+1 while its reserve only proves batch k-N was popped —
  // across a column boundary the unpopped batches k-N+1..k-1 of the
  // previous column still reference rows down to T+k-N-1, a live span of
  // 2N+2 consecutive row indices (the three-row prologue before batch 0's
  // reserve spans N+4, which is smaller for every N >= 2). The rotation
  // must never map two of those onto one slot, so nslots = 2N+3: at the
  // paper's N = 2 that is 7.
  const std::uint32_t nslots = 2 * depth + 3;
  for (int cb = kCbIn0; cb <= kCbIn3; ++cb) {
    prog.create_cb(cb, cores, kTileBytes, depth);
  }
  prog.create_cb(kCbScalar, cores, kTileBytes, 1);
  prog.create_cb(kCbInter, cores, kTileBytes, 2);
  prog.create_cb(kCbOut, cores, kTileBytes, 4);
  if (sh->residual_addr != 0) prog.create_cb(kCbRes, cores, 32, 1);

  // nslots-deep local row buffer, sized for the widest chunk any core uses.
  std::uint32_t max_chunk = 16;
  for (const auto& rg : sh->ranges) {
    max_chunk = std::max(max_chunk, std::min(sh->chunk_elems, rg.col_hi - rg.col_lo));
  }
  const std::uint32_t sbytes = slot_bytes(max_chunk);
  const auto slots = prog.create_l1_buffer(cores, nslots * sbytes);
  const std::uint32_t slots_addr = prog.l1_buffer_address(slots);
  prog.create_global_barrier(sh->barrier_id, 2 * ncores);

  // ---------------- reading data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, slots_addr, sbytes, depth, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;

        fill_scalar_page(ctx, kCbScalar, 0.25f);

        for (int it = 0; it < sh->iterations; ++it) {
          const std::uint64_t src = (it % 2 == 0) ? sh->d1 : sh->d2;
          for (std::uint32_t col = 0; col < grid.ncols; ++col) {
            const std::int64_t c0 = grid.rg.col_lo + static_cast<std::int64_t>(col) *
                                                         grid.chunk;
            const std::uint32_t off =
                static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
            const std::uint32_t read_bytes = (grid.chunk + 2) * 2 + off;
            // Reads are tagged with their slot so a batch can wait for the
            // one row it still needs without draining the deeper
            // read-ahead. A tag is safely reusable by the time its slot is:
            // row y's read is waited at batch y-1, long before row
            // y + nslots is issued (at batch >= y + depth + 1).
            auto issue_row = [&](std::int64_t y) {
              const std::uint64_t addr = src + L.byte_offset(y, c0 - 1) - off;
              const std::uint32_t slot = grid.slot_of(col, y);
              ctx.noc_async_read(ctx.get_noc_addr(addr),
                                 slots_addr + slot * sbytes, read_bytes,
                                 static_cast<int>(slot));
            };

            const std::int64_t r0 = grid.rg.row_lo;
            const std::int64_t r1 = grid.rg.row_hi;
            // Column boundary: the continuous rotation (slot_of) places the
            // prologue rows in the slots after the previous column's tail,
            // and nslots = 2*depth+3 keeps every row issued here clear of
            // every slot that column's unpopped batches may still reference
            // — no drain or timing assumption needed at any depth. (Across
            // iterations the rendezvous below orders everything: the writer
            // only reaches the barrier after consuming output the compute
            // kernel produced from its last reads.)
            // Prologue: rows r0-1, r0, r0+1 (clamped to the strip's halo).
            std::int64_t issued_hi = std::min<std::int64_t>(r0 + 1, r1);
            for (std::int64_t y = r0 - 1; y <= issued_hi; ++y) issue_row(y);
            for (std::int64_t j = r0; j < r1; ++j) {
              // Flow control: a free page means the compute kernel has
              // popped batch j-N, so the slot row issued_hi+1 rotates into
              // (row j-N-1's) is reusable.
              for (int cb = kCbIn0; cb <= kCbIn3; ++cb) ctx.cb_reserve_back(cb, 1);
              // "Synchronise memory reads immediately": batch j needs rows
              // j-1, j, j+1; the first two were waited by earlier batches,
              // so wait on row j+1's tag (the prologue's untracked set on
              // the first batch).
              if (j == r0) {
                ctx.noc_async_read_barrier();
              } else {
                ctx.noc_async_read_barrier(
                    static_cast<int>(grid.slot_of(col, j + 1)));
              }
              // ...and issue non-blocking reads up to N batches ahead.
              while (issued_hi < std::min<std::int64_t>(j + depth, r1)) {
                issue_row(++issued_hi);
              }
              for (int cb = kCbIn0; cb <= kCbIn3; ++cb) ctx.cb_push_back(cb, 1);
              ctx.loop_tick();
            }
          }
          ctx.global_barrier(sh->barrier_id);
        }
      },
      "jacobi_rowchunk_reader");

  // ---------------- compute cores ----------------
  prog.create_kernel(
      cores,
      [sh, slots_addr, sbytes, nslots](ttmetal::ComputeCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        constexpr int dst0 = 0;
        constexpr int dst1 = 1;
        ctx.binary_op_init_common(kCbIn0, kCbIn1);
        ctx.add_tiles_init(kCbIn0, kCbIn1);
        bfloat16_t residual{0.0f};
        for (int it = 0; it < sh->iterations; ++it) {
          const bool track = sh->residual_addr != 0 && it == sh->iterations - 1;
          for (std::uint32_t col = 0; col < grid.ncols; ++col) {
            const std::int64_t c0 = grid.rg.col_lo + static_cast<std::int64_t>(col) *
                                                         grid.chunk;
            const std::uint32_t off =
                static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
            // A redirected tile covers only the chunk's elements, not a full
            // 2 KiB page — declare that so the race detector's view of the
            // FPU's fetch window stays within this batch's slots, and so the
            // host computes only the chunk's lanes.
            const std::uint32_t valid = grid.chunk * 2;
            for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
              const std::uint32_t sj =
                  slots_addr + grid.slot_of(col, j) * sbytes + off;
              const std::uint32_t sup =
                  slots_addr + grid.slot_of(col, j - 1) * sbytes + off;
              const std::uint32_t sdn =
                  slots_addr + grid.slot_of(col, j + 1) * sbytes + off;

              ctx.cb_wait_front(kCbIn0, 1);
              ctx.cb_wait_front(kCbIn1, 1);
              ctx.cb_set_rd_ptr(kCbIn0, sj, valid);      // x-1
              ctx.cb_set_rd_ptr(kCbIn1, sj + 4, valid);  // x+1
              ctx.add_tiles(kCbIn0, kCbIn1, 0, 0, dst0);
              ctx.cb_pop_front(kCbIn1, 1);
              ctx.cb_pop_front(kCbIn0, 1);

              ctx.cb_reserve_back(kCbInter, 1);
              ctx.pack_tile(dst0, kCbInter);
              ctx.cb_push_back(kCbInter, 1);

              ctx.cb_wait_front(kCbIn2, 1);
              ctx.cb_wait_front(kCbInter, 1);
              ctx.cb_set_rd_ptr(kCbIn2, sup + 2, valid);  // y-1
              ctx.add_tiles(kCbIn2, kCbInter, 0, 0, dst0);
              ctx.cb_pop_front(kCbInter, 1);
              ctx.cb_pop_front(kCbIn2, 1);

              ctx.cb_reserve_back(kCbInter, 1);
              ctx.pack_tile(dst0, kCbInter);
              ctx.cb_push_back(kCbInter, 1);

              ctx.cb_wait_front(kCbIn3, 1);
              ctx.cb_wait_front(kCbInter, 1);
              ctx.cb_set_rd_ptr(kCbIn3, sdn + 2, valid);  // y+1
              ctx.add_tiles(kCbIn3, kCbInter, 0, 0, dst0);
              ctx.cb_pop_front(kCbInter, 1);
              ctx.cb_pop_front(kCbIn3, 1);

              ctx.cb_reserve_back(kCbInter, 1);
              ctx.pack_tile(dst0, kCbInter);
              ctx.cb_push_back(kCbInter, 1);

              ctx.cb_wait_front(kCbScalar, 1);
              ctx.cb_wait_front(kCbInter, 1);
              ctx.mul_tiles(kCbScalar, kCbInter, 0, 0, dst0);
              ctx.cb_pop_front(kCbInter, 1);

              ctx.cb_reserve_back(kCbOut, 1);
              ctx.pack_tile(dst0, kCbOut);
              if (track) {
                // Device-side residual: |unew - u| over this chunk, reduced
                // on the FPU. Alias the freshly packed page as an input and
                // the source slot's centre row as the old value.
                ctx.cb_set_rd_ptr(kCbOut, ctx.get_write_ptr(kCbOut), valid);
                ctx.cb_set_rd_ptr(kCbInter, sj + 2, valid);
                ctx.sub_tiles(kCbOut, kCbInter, 0, 0, dst1);
                ctx.cb_clear_rd_ptr(kCbOut);
                ctx.cb_clear_rd_ptr(kCbInter);
                ctx.abs_tile(dst1);
                const bfloat16_t m = ctx.reduce_max(dst1);
                if (static_cast<float>(m) > static_cast<float>(residual)) residual = m;
              }
              ctx.cb_push_back(kCbOut, 1);
              ctx.loop_tick();
            }
            (void)L;
          }
        }
        if (sh->residual_addr != 0) {
          ctx.cb_reserve_back(kCbRes, 1);
          auto* page = reinterpret_cast<bfloat16_t*>(
              ctx.l1_ptr(ctx.get_write_ptr(kCbRes)));
          page[0] = residual;
          ctx.cb_push_back(kCbRes, 1);
        }
      },
      "jacobi_rowchunk_compute");

  // ---------------- writing data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        for (int it = 0; it < sh->iterations; ++it) {
          const std::uint64_t dst = (it % 2 == 0) ? sh->d2 : sh->d1;
          for (std::uint32_t col = 0; col < grid.ncols; ++col) {
            const std::int64_t c0 = grid.rg.col_lo + static_cast<std::int64_t>(col) *
                                                         grid.chunk;
            for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
              ctx.cb_wait_front(kCbOut, 1);
              ctx.noc_async_write(ctx.get_read_ptr(kCbOut),
                                  ctx.get_noc_addr(dst + L.byte_offset(j, c0)),
                                  grid.chunk * 2);
              ctx.noc_async_write_barrier();
              ctx.cb_pop_front(kCbOut, 1);
              ctx.loop_tick();
            }
          }
          ctx.global_barrier(sh->barrier_id);
        }
        if (sh->residual_addr != 0) {
          // One BF16 residual per core, each in its own aligned 32-byte slot.
          ctx.cb_wait_front(kCbRes, 1);
          ctx.noc_async_write(
              ctx.get_read_ptr(kCbRes),
              ctx.get_noc_addr(sh->residual_addr +
                               static_cast<std::uint64_t>(ctx.position()) * 32),
              2);
          ctx.noc_async_write_barrier();
          ctx.cb_pop_front(kCbRes, 1);
        }
      },
      "jacobi_rowchunk_writer");
}

}  // namespace ttsim::core::detail
