/// \file jacobi_tiled.cpp
/// The Section IV Jacobi design: the domain is decomposed into 32x32-element
/// batches (Fig. 4). For every batch the reading data mover fetches a 34x34
/// halo block from DRAM (34 rows of 68 bytes, aligned per Listing 4) into a
/// local SRAM buffer and memcpy's four shifted 32x32 tiles into the input
/// CBs; the compute cores run Listing 2 (three tile additions and a
/// multiplication by the 0.25-filled scalar CB); the writing data mover
/// stores the result tile row by row (always aligned thanks to the Fig. 5
/// edge padding).
///
/// Strategy differences measured in Table I:
///   kInitial         — unpipelined CBs (one page), blocking per-row reads,
///                      per-write synchronisation;
///   kWriteOptimised  — write barrier hoisted to batch level, pipelined CBs;
///   kDoubleBuffered  — reads for the next batch overlap the memcpy of the
///                      current batch via two local buffers.

#include "jacobi_internal.hpp"

namespace ttsim::core::detail {
namespace {

/// Local halo-block buffer geometry: 34 rows; each row slot holds the 68
/// wanted bytes plus up to 30 bytes of alignment prefix.
constexpr std::uint32_t kBlockRows = kTile + 2;
constexpr std::uint32_t kSlotStride = 128;
constexpr std::uint32_t kBlockBufBytes = kBlockRows * kSlotStride;

/// Tile shifts within the 34x34 halo block (block(br,bc) = interior
/// (r0-1+br, c0-1+bc)): output point (r,c) needs
///   x-1: block(r+1, c)   x+1: block(r+1, c+2)
///   y-1: block(r,   c+1) y+1: block(r+2, c+1)
constexpr int kRowShift[4] = {1, 1, 0, 2};
constexpr int kColShift[4] = {0, 2, 1, 1};

struct BatchGrid {
  std::uint32_t bw, bh, count;
  CoreRange rg;

  explicit BatchGrid(const CoreRange& r) : rg(r) {
    bw = (rg.col_hi - rg.col_lo) / kTile;
    bh = (rg.row_hi - rg.row_lo) / kTile;
    count = bw * bh;
  }
  void origin(std::uint32_t b, std::int64_t& r0, std::int64_t& c0) const {
    r0 = rg.row_lo + static_cast<std::int64_t>(b / bw) * kTile;
    c0 = rg.col_lo + static_cast<std::int64_t>(b % bw) * kTile;
  }
};

}  // namespace

void fill_scalar_page(ttmetal::KernelCtxBase& ctx, int cb_id, float value) {
  ctx.cb_reserve_back(cb_id, 1);
  auto* page = reinterpret_cast<bfloat16_t*>(ctx.l1_ptr(ctx.get_write_ptr(cb_id)));
  for (std::uint32_t i = 0; i < 1024; ++i) page[i] = bfloat16_t{value};
  ctx.cb_push_back(cb_id, 1);
}

void build_tiled_program(ttmetal::Program& prog, std::shared_ptr<KernelShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);

  const bool pipelined = sh->strategy != DeviceStrategy::kInitial;
  const std::uint32_t io_pages = pipelined ? 4 : 1;
  for (int cb = kCbIn0; cb <= kCbIn3; ++cb)
    prog.create_cb(cb, cores, kTileBytes, io_pages);
  prog.create_cb(kCbScalar, cores, kTileBytes, 1);
  // The compute kernel's accumulator: no other kernel touches it.
  prog.create_cb(kCbInter, cores, kTileBytes, 2, /*kernel_local=*/true);
  prog.create_cb(kCbOut, cores, kTileBytes, io_pages);
  const auto buf0 = prog.create_l1_buffer(cores, kBlockBufBytes);
  const auto buf1 = prog.create_l1_buffer(cores, kBlockBufBytes);
  const std::uint32_t b0 = prog.l1_buffer_address(buf0);
  const std::uint32_t b1 = prog.l1_buffer_address(buf1);
  prog.create_global_barrier(kIterationBarrier, 2 * ncores);

  // ---------------- reading data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, b0, b1](ttmetal::DataMoverCtx& ctx) {
        const BatchGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())]);
        const PaddedLayout& L = sh->layout;
        const bool double_buffered = sh->strategy == DeviceStrategy::kDoubleBuffered;

        fill_scalar_page(ctx, kCbScalar, 0.25f);

        // Issue all 34 halo-row reads of one batch without blocking (the
        // double-buffered refinement of Listing 4's aligned reads).
        auto issue_batch_async = [&](std::uint64_t src, std::uint32_t buf,
                                     std::uint32_t b) {
          std::int64_t r0, c0;
          grid.origin(b, r0, c0);
          const std::uint32_t off =
              static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
          for (std::uint32_t jj = 0; jj < kBlockRows; ++jj) {
            const std::uint64_t addr = src + L.byte_offset(r0 - 1 + jj, c0 - 1);
            ctx.noc_async_read(ctx.get_noc_addr(addr - off), buf + jj * kSlotStride,
                               68 + off);
          }
        };

        // Copy the four shifted tiles out of the halo block into the CBs —
        // the 128 small strided memcpys Table II exposes as the bottleneck.
        auto memcpy_to_cbs = [&](std::uint32_t buf, std::uint32_t off) {
          for (int cb = kCbIn0; cb <= kCbIn3; ++cb) {
            ctx.cb_reserve_back(cb, 1);
            const std::uint32_t page = ctx.get_write_ptr(cb);
            if (sh->toggles.memcpy_to_cbs) {
              for (std::uint32_t r = 0; r < kTile; ++r) {
                const std::uint32_t src_off =
                    buf +
                    (static_cast<std::uint32_t>(kRowShift[cb]) + r) * kSlotStride +
                    off + static_cast<std::uint32_t>(kColShift[cb]) * 2;
                ctx.l1_memcpy(page + r * 64, src_off, 64);
              }
            }
            ctx.cb_push_back(cb, 1);
          }
        };

        for (int it = 0; it < sh->iterations; ++it) {
          const std::uint64_t src = (it % 2 == 0) ? sh->d1 : sh->d2;
          if (double_buffered) {
            const std::uint32_t bufs[2] = {b0, b1};
            std::uint32_t offs[2] = {0, 0};
            auto off_of = [&](std::uint32_t b) {
              std::int64_t r0, c0;
              grid.origin(b, r0, c0);
              return static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
            };
            if (sh->toggles.read) issue_batch_async(src, bufs[0], 0);
            offs[0] = off_of(0);
            for (std::uint32_t b = 0; b < grid.count; ++b) {
              if (sh->toggles.read) ctx.noc_async_read_barrier();
              if (b + 1 < grid.count) {
                offs[(b + 1) & 1] = off_of(b + 1);
                if (sh->toggles.read) issue_batch_async(src, bufs[(b + 1) & 1], b + 1);
              }
              memcpy_to_cbs(bufs[b & 1], offs[b & 1]);
              ctx.loop_tick();
            }
          } else {
            // Initial / write-optimised: Listing 4's blocking aligned read
            // per halo row.
            for (std::uint32_t b = 0; b < grid.count; ++b) {
              std::int64_t r0, c0;
              grid.origin(b, r0, c0);
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              if (sh->toggles.read) {
                for (std::uint32_t jj = 0; jj < kBlockRows; ++jj) {
                  ctx.read_data_aligned(src + L.byte_offset(r0 - 1 + jj, c0 - 1), src,
                                        68, b0 + jj * kSlotStride);
                }
              }
              memcpy_to_cbs(b0, off);
              ctx.loop_tick();
            }
          }
          ctx.global_barrier(kIterationBarrier);
        }
      },
      "jacobi_tiled_reader");

  // ---------------- compute cores ----------------
  prog.create_kernel(
      cores,
      [sh](ttmetal::ComputeCtx& ctx) {
        const BatchGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())]);
        constexpr int dst0 = 0;
        ctx.binary_op_init_common(kCbIn0, kCbIn1);
        ctx.add_tiles_init(kCbIn0, kCbIn1);
        for (int it = 0; it < sh->iterations; ++it) {
          for (std::uint32_t b = 0; b < grid.count; ++b) {
            if (sh->toggles.compute) {
              // Paper Listing 2.
              ctx.cb_wait_front(kCbIn0, 1);
              ctx.cb_wait_front(kCbIn1, 1);
              ctx.add_tiles(kCbIn0, kCbIn1, 0, 0, dst0);
              ctx.cb_pop_front(kCbIn1, 1);
              ctx.cb_pop_front(kCbIn0, 1);

              ctx.cb_reserve_back(kCbInter, 1);
              ctx.pack_tile(dst0, kCbInter);
              ctx.cb_push_back(kCbInter, 1);

              ctx.cb_wait_front(kCbIn2, 1);
              ctx.cb_wait_front(kCbInter, 1);
              ctx.add_tiles(kCbIn2, kCbInter, 0, 0, dst0);
              ctx.cb_pop_front(kCbInter, 1);
              ctx.cb_pop_front(kCbIn2, 1);

              ctx.cb_reserve_back(kCbInter, 1);
              ctx.pack_tile(dst0, kCbInter);
              ctx.cb_push_back(kCbInter, 1);

              ctx.cb_wait_front(kCbIn3, 1);
              ctx.cb_wait_front(kCbInter, 1);
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
              ctx.cb_push_back(kCbOut, 1);
            } else {
              // Table II: keep the CB structure and synchronisation, skip
              // the FPU work.
              for (int cb = kCbIn0; cb <= kCbIn3; ++cb) {
                ctx.cb_wait_front(cb, 1);
                ctx.cb_pop_front(cb, 1);
              }
              ctx.cb_reserve_back(kCbOut, 1);
              ctx.cb_push_back(kCbOut, 1);
            }
            ctx.loop_tick();
          }
        }
      },
      "jacobi_tiled_compute");

  // ---------------- writing data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh](ttmetal::DataMoverCtx& ctx) {
        const BatchGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())]);
        const PaddedLayout& L = sh->layout;
        const bool sync_each_write = sh->strategy == DeviceStrategy::kInitial;
        for (int it = 0; it < sh->iterations; ++it) {
          const std::uint64_t dst = (it % 2 == 0) ? sh->d2 : sh->d1;
          for (std::uint32_t b = 0; b < grid.count; ++b) {
            std::int64_t r0, c0;
            grid.origin(b, r0, c0);
            ctx.cb_wait_front(kCbOut, 1);
            const std::uint32_t page = ctx.get_read_ptr(kCbOut);
            if (sh->toggles.write) {
              for (std::uint32_t r = 0; r < kTile; ++r) {
                ctx.noc_async_write(page + r * 64,
                                    ctx.get_noc_addr(dst + L.byte_offset(r0 + r, c0)),
                                    64);
                if (sync_each_write) ctx.noc_async_write_barrier();
              }
              ctx.noc_async_write_barrier();
            }
            ctx.cb_pop_front(kCbOut, 1);
            ctx.loop_tick();
          }
          ctx.global_barrier(kIterationBarrier);
        }
      },
      "jacobi_tiled_writer");
}

}  // namespace ttsim::core::detail
