/// \file stencil_device.cpp
/// The Section VI row-chunk program, for every problem kind: classic
/// Jacobi runs it as the one-field, one-pass general program
/// classic_program makes. Batches are one-dimensional chunks of (up to)
/// 1024 elements along X (Fig. 6); each batch needs one contiguous read of
/// chunk+2 elements per referenced row (the chunk plus one halo element per
/// side). Every pass of every iteration streams each field it reads
/// through its own rotating window of row slots in local SRAM, read-ahead
/// deep with one tagged barrier per batch, and never copies memory: the
/// compute kernel redirects CB read pointers into the mover's slots with
/// the cb_set_rd_ptr SDK extension — tap (dr, dc) of field f at batch j is
///   slot(f, j + dr) + off + 2 + 2*dc
/// where `off` is the Listing-4 alignment offset of the strip's left halo
/// (so classic Jacobi's x-1 tile is slot(j) + off, its x+1 tile
/// slot(j) + off + 4 B and its y-1/y+1 tiles the rows above and below,
/// centred). The program's PointChain replays the per-point op chain: the
/// classic chain's ((xm + xp) + ym + yp) * 0.25, or the tap chain, where
/// each term costs one FPU multiply against the weight table plus (after
/// the first) one addition — so a 3-tap upwind advection still runs
/// cheaper per point than 5-tap diffusion, and a field whose taps need no
/// vertical halo streams one row per batch instead of three.
///
/// The slot rotation (ChunkGrid::slot_of) runs continuously across column
/// strips, so a column's first rows land in the slots after the previous
/// column's tail instead of wrapping onto slots its in-flight batches
/// still reference; general_slot_ring sizes the ring so that no timing
/// assumption or drain is needed at any depth. Reads are tagged per
/// (field, slot), so a batch waits only on the one row it still needs
/// while `depth` batches of reads stay in flight. A tag is safely reusable
/// by the time its slot is: row y's read is waited at the batch that first
/// needs it, and row y + nslots is issued only after every batch that
/// reads row y has been popped (see general_slot_ring). Tags of different
/// fields never clash.

#include <algorithm>
#include <utility>

#include "ir_frontend.hpp"
#include "stencil_internal.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/ir/lower.hpp"

namespace ttsim::core {

namespace detail {
namespace {

/// Resolve a validated GeneralStencilProblem into the lowered form:
/// dedup'd weight table, per-pass referenced-field sets (including the
/// Life self field) with vertical extents.
void lower_program(const GeneralStencilProblem& p, GeneralShared& sh) {
  const int nfields = static_cast<int>(p.fields.size());
  sh.iterations = p.iterations;
  sh.written_pass.assign(static_cast<std::size_t>(nfields), -1);
  for (int f = 0; f < nfields; ++f) sh.written_pass[static_cast<std::size_t>(f)] = p.written_pass(f);

  // Distinct weights in first-appearance order: the table index each term's
  // multiply aliases kCbWgt onto.
  sh.weights.clear();
  auto weight_index = [&](float w) {
    for (std::size_t i = 0; i < sh.weights.size(); ++i) {
      if (sh.weights[i] == w) return static_cast<int>(i);
    }
    sh.weights.push_back(w);
    return static_cast<int>(sh.weights.size() - 1);
  };

  sh.passes.clear();
  for (const auto& pass : p.passes) {
    LoweredPass lp;
    lp.target = pass.target;
    lp.post = pass.post;
    lp.self_field = pass.post_self_field;
    auto touch = [&](int field, int dr) {
      for (auto& pf : lp.reads) {
        if (pf.field == field) {
          pf.lo = std::min(pf.lo, dr);
          pf.hi = std::max(pf.hi, dr);
          return;
        }
      }
      lp.reads.push_back(PassField{field, std::min(dr, 0), std::max(dr, 0)});
    };
    for (const auto& term : pass.terms) {
      const int dr = tap_dr(term.tap);
      lp.terms.push_back(LoweredTerm{term.field, dr, tap_dc(term.tap),
                                     weight_index(term.weight)});
      touch(term.field, dr);
    }
    // The Life recombination reads the self field's centre row — stream it
    // even when no tap term references it.
    if (lp.post == PostOp::kLife) touch(lp.self_field, 0);
    sh.passes.push_back(std::move(lp));
  }
}

}  // namespace

std::vector<CbSpec> rowchunk_cbs(const GeneralShared& sh, std::uint32_t depth) {
  std::vector<CbSpec> cbs = sh.chain->cbs(depth, 4);
  if (sh.residual_addr != 0) cbs.push_back({kCbRes, 1, "cb-res", 32});
  return cbs;
}

void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);
  const int nfields = sh->nfields();
  // The residual page reuses the id of kCbGTmp2, which only a post-op's
  // chain allocates; the residual is |unew - u| of a pass's own field.
  TTSIM_CHECK(sh->residual_addr == 0 ||
              (sh->passes.size() == 1 && sh->passes[0].post == PostOp::kNone));

  // Read-ahead depth N: the reader keeps up to N row batches in flight.
  // Stream CBs carry no data (read pointers are aliased); N pages give the
  // reader exactly the flow control that keeps a slot alive until the
  // compute kernel is done with the batches that read it.
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  const std::uint32_t nslots = general_slot_ring(depth, sh->ranges).nslots;
  create_cbs(prog, cores, rowchunk_cbs(*sh, depth));

  const std::uint32_t sbytes = slot_bytes(max_chunk(sh->ranges, sh->chunk_elems));
  // Field f's rotation lives at slots_addr + f*nslots*sbytes.
  const std::uint32_t slots_addr = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(nfields) * nslots * sbytes));
  const std::uint32_t wtab =
      sh->chain->table_bytes() > 0
          ? prog.l1_buffer_address(prog.create_l1_buffer(cores, sh->chain->table_bytes()))
          : 0;
  // Reader and writer rendezvous after EVERY pass: a pass may read fields
  // the previous pass just wrote (FDTD's leapfrog), so no core's reader may
  // start pass p+1 until every writer has finished pass p.
  prog.create_global_barrier(sh->barrier_id, 2 * ncores);
  const std::string label = sh->chain->label();

  // ---------------- reading data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, slots_addr, sbytes, depth, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        std::vector<std::uint64_t> src;
        std::vector<std::int64_t> issued_hi, max_row;
        for (int it = 0; it < sh->iterations; ++it) {
          for (std::size_t p = 0; p < sh->passes.size(); ++p) {
            const LoweredPass& pass = sh->passes[p];
            const std::size_t nf = pass.reads.size();
            src.resize(nf);
            issued_hi.resize(nf);
            max_row.resize(nf);
            for (std::size_t e = 0; e < nf; ++e) {
              src[e] = sh->src_of(pass.reads[e].field, it, static_cast<int>(p));
            }
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              const std::uint32_t read_bytes = (grid.chunk + 2) * 2 + off;
              // Reads are tagged per (field, slot): see the file comment.
              auto issue_row = [&](std::size_t e, std::int64_t y) {
                const int f = pass.reads[e].field;
                const std::uint32_t slot = grid.slot_of(col, y);
                ctx.noc_async_read(
                    ctx.get_noc_addr(src[e] + L.byte_offset(y, c0 - 1) - off),
                    slots_addr + (static_cast<std::uint32_t>(f) * nslots + slot) * sbytes,
                    read_bytes,
                    static_cast<int>(static_cast<std::uint32_t>(f) * nslots + slot));
              };
              const std::int64_t r0 = grid.rg.row_lo;
              const std::int64_t r1 = grid.rg.row_hi;
              for (std::size_t e = 0; e < nf; ++e) {
                max_row[e] = r1 - 1 + pass.reads[e].hi;
                issued_hi[e] = r0 + pass.reads[e].lo - 1;
              }
              for (std::int64_t j = r0; j < r1; ++j) {
                // Flow control: a free page means the compute kernel popped
                // batch j-N, so the slots the next issues rotate into are no
                // longer referenced. EVERY issue of this column sits behind
                // one of these reserves — including the first batch's
                // prologue below — which is what bounds the reader's
                // cross-column run-ahead (see general_slot_ring).
                for (std::size_t e = 0; e < nf; ++e) {
                  ctx.cb_reserve_back(kCbFieldBase + pass.reads[e].field, 1);
                }
                // Batch j's furthest input row of field e is j+hi (earlier
                // rows were waited by earlier batches); the first batch
                // issues its whole window [r0+lo, r0+hi] — clamped to the
                // last row any batch of this column needs; fields without
                // vertical taps read one row per batch, so the
                // fewer-taps-run-faster cost structure extends to the
                // reader — and waits it untagged.
                if (j == r0) {
                  for (std::size_t e = 0; e < nf; ++e) {
                    const std::int64_t hi =
                        std::min<std::int64_t>(r0 + pass.reads[e].hi, max_row[e]);
                    while (issued_hi[e] < hi) issue_row(e, ++issued_hi[e]);
                  }
                  ctx.noc_async_read_barrier();
                } else {
                  for (std::size_t e = 0; e < nf; ++e) {
                    const int f = pass.reads[e].field;
                    const std::uint32_t slot = grid.slot_of(
                        col, std::min<std::int64_t>(j + pass.reads[e].hi, max_row[e]));
                    ctx.noc_async_read_barrier(
                        static_cast<int>(static_cast<std::uint32_t>(f) * nslots + slot));
                  }
                }
                // ...and issue non-blocking reads up to N batches ahead.
                for (std::size_t e = 0; e < nf; ++e) {
                  while (issued_hi[e] <
                         std::min<std::int64_t>(j + depth - 1 + pass.reads[e].hi,
                                                max_row[e])) {
                    issue_row(e, ++issued_hi[e]);
                  }
                }
                for (std::size_t e = 0; e < nf; ++e) {
                  ctx.cb_push_back(kCbFieldBase + pass.reads[e].field, 1);
                }
                ctx.loop_tick();
              }
            }
            ctx.global_barrier(sh->barrier_id);
          }
        }
      },
      label + "_reader");

  // ---------------- compute cores ----------------
  prog.create_kernel(
      cores,
      [sh, slots_addr, sbytes, wtab, nslots](ttmetal::ComputeCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        // A redirected tile covers only the chunk's elements, not a full
        // 2 KiB page — declared so the race detector's read spans stay
        // within this batch's slots, and so the host computes only the
        // chunk's lanes.
        const std::uint32_t valid = grid.chunk * 2;
        sh->chain->prologue(ctx, wtab);
        bfloat16_t residual{0.0f};
        for (int it = 0; it < sh->iterations; ++it) {
          const bool track = sh->residual_addr != 0 && it == sh->iterations - 1;
          for (std::size_t p = 0; p < sh->passes.size(); ++p) {
            const LoweredPass& pass = sh->passes[p];
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
                for (const auto& pf : pass.reads) {
                  ctx.cb_wait_front(kCbFieldBase + pf.field, 1);
                }
                // Tap alias: field f's row j+dr slot, shifted by dc elements
                // (the slot holds elements from column c0-1).
                auto tap_at = [&](int f, int dr, int dc) {
                  return slots_addr +
                         (static_cast<std::uint32_t>(f) * nslots +
                          grid.slot_of(col, j + dr)) * sbytes +
                         off + static_cast<std::uint32_t>(2 + 2 * dc);
                };
                sh->chain->emit_point(ctx, p, wtab, valid, tap_at, [&](int reg) {
                  ctx.cb_reserve_back(kCbGOut, 1);
                  ctx.pack_tile(reg, kCbGOut);
                  if (track) {
                    // Device-side residual: |unew - u| over this chunk,
                    // reduced on the FPU. The freshly packed page aliases
                    // through kCbRes (the writer reads kCbGOut's pointer)
                    // and the centre tap through the field's stream CB.
                    constexpr int dst1 = 1;
                    const int self = kCbFieldBase + pass.target;
                    ctx.cb_set_rd_ptr(kCbRes, ctx.get_write_ptr(kCbGOut), valid);
                    ctx.cb_set_rd_ptr(self, tap_at(pass.target, 0, 0), valid);
                    ctx.sub_tiles(kCbRes, self, 0, 0, dst1);
                    ctx.cb_clear_rd_ptr(kCbRes);
                    ctx.abs_tile(dst1);
                    const bfloat16_t m = ctx.reduce_max(dst1);
                    if (static_cast<float>(m) > static_cast<float>(residual)) residual = m;
                  }
                  ctx.cb_push_back(kCbGOut, 1);
                });
                for (const auto& pf : pass.reads) {
                  ctx.cb_pop_front(kCbFieldBase + pf.field, 1);
                }
                ctx.loop_tick();
              }
            }
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
      label + "_compute");

  // ---------------- writing data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        for (int it = 0; it < sh->iterations; ++it) {
          for (const LoweredPass& pass : sh->passes) {
            const std::uint64_t dst = sh->dst_of(pass.target, it);
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
                ctx.cb_wait_front(kCbGOut, 1);
                ctx.noc_async_write(ctx.get_read_ptr(kCbGOut),
                                    ctx.get_noc_addr(dst + L.byte_offset(j, c0)),
                                    grid.chunk * 2);
                ctx.noc_async_write_barrier();
                ctx.cb_pop_front(kCbGOut, 1);
                ctx.loop_tick();
              }
            }
            ctx.global_barrier(sh->barrier_id);
          }
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
      label + "_writer");
}

void validate_general_launch(const GeneralStencilProblem& p,
                             const DeviceRunConfig& cfg, Surface surface,
                             int workers) {
  p.validate();
  validate_launch(p.geometry(), cfg, surface, workers);
  if (cfg.strategy == DeviceStrategy::kSramResident &&
      (p.fields.size() != 1 || p.passes.size() != 1)) {
    TTSIM_THROW_API("the SRAM-resident strategy holds ONE field's slabs in "
                    "L1: single-field single-pass programs only");
  }
  if (cfg.strategy == DeviceStrategy::kTemporal && p.passes.size() != 1) {
    TTSIM_THROW_API("temporal tiling chains generations of ONE pass through "
                    "L1: single-pass programs only (multi-pass leapfrogs "
                    "would need every written field's skirt per sub-step)");
  }
}

std::shared_ptr<GeneralShared> resolve_general(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg,
                                               const CoreSelection& sel,
                                               std::vector<std::uint64_t> d1,
                                               std::vector<std::uint64_t> d2) {
  auto sh = std::make_shared<GeneralShared>(PaddedLayout(p.width, p.height));
  lower_program(p, *sh);
  sh->strategy = cfg.strategy;
  sh->chunk_elems = cfg.chunk_elems;
  sh->read_ahead = cfg.read_ahead;
  sh->temporal_depth = cfg.temporal_depth;
  sh->d1 = std::move(d1);
  sh->d2 = std::move(d2);
  sh->ranges = decompose(p.geometry(), sel.cores_x, sel.cores_y, 16);
  sh->core_ids = sel.core_ids;
  sh->chain = make_tap_chain(*sh);
  return sh;
}

void build_general_program(ttmetal::Program& prog, std::shared_ptr<GeneralShared> sh) {
  if (sh->strategy == DeviceStrategy::kSramResident) {
    build_general_sram_program(prog, std::move(sh));
  } else if (sh->strategy == DeviceStrategy::kTemporal) {
    build_general_temporal_group(prog, std::move(sh));
  } else {
    build_general_rowchunk_group(prog, std::move(sh));
  }
}

}  // namespace detail

std::vector<bfloat16_t> general_field_image(const PaddedLayout& layout,
                                            const GeneralStencilProblem& p,
                                            int field) {
  const FieldSpec& f = p.fields[static_cast<std::size_t>(field)];
  JacobiProblem g = p.geometry();
  g.bc_left = f.bc_left;
  g.bc_right = f.bc_right;
  g.bc_top = f.bc_top;
  g.bc_bottom = f.bc_bottom;
  g.initial = f.initial;
  auto image = layout.initial_image(g);
  if (!f.initial_field.empty()) {
    TTSIM_CHECK_MSG(f.initial_field.size() == p.points(),
                    "initial_field of field " << field
                                              << " must be width*height values");
    for (std::int64_t r = 0; r < p.height; ++r) {
      for (std::int64_t c = 0; c < p.width; ++c) {
        image[layout.index(r, c)] =
            bfloat16_t{f.initial_field[static_cast<std::size_t>(r) * p.width +
                                       static_cast<std::size_t>(c)]};
      }
    }
  }
  return image;
}

GeneralRunResult run_general_stencil_on_device(ttmetal::Device& device,
                                               const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg) {
  detail::validate_general_launch(p, cfg, detail::Surface::kCertified,
                                  device.num_workers());
  const PaddedLayout layout(p.width, p.height);
  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  const int nfields = static_cast<int>(p.fields.size());

  // One buffer pair per field — read-only fields live in a single buffer
  // (their d2 address stays 0 and src_of always resolves to d1).
  std::vector<std::shared_ptr<ttmetal::Buffer>> d1, d2;
  std::vector<std::uint64_t> d1_addr, d2_addr;
  for (int f = 0; f < nfields; ++f) {
    d1.push_back(device.create_buffer(bc));
    d2.push_back(p.written_pass(f) >= 0 ? device.create_buffer(bc) : nullptr);
    d1_addr.push_back(d1.back()->address());
    d2_addr.push_back(d2.back() ? d2.back()->address() : 0);
  }

  const SimTime t_start = device.now();
  for (int f = 0; f < nfields; ++f) {
    const auto image = general_field_image(layout, p, f);
    device.write_buffer(*d1[static_cast<std::size_t>(f)], std::as_bytes(std::span{image}));
    // The parity partner needs the same boundary cells (and, before its
    // first write lands, the same interior the early rows' halo reads see).
    if (d2[static_cast<std::size_t>(f)]) {
      device.write_buffer(*d2[static_cast<std::size_t>(f)], std::as_bytes(std::span{image}));
    }
  }

  const auto shared = detail::resolve_general(p, cfg, detail::requested_cores(cfg),
                                              std::move(d1_addr), std::move(d2_addr));
  ttmetal::Program prog;
  // Prove the protocol race/deadlock-free, then lower; the graph's emit
  // closure is build_general_program.
  ir::lower(detail::make_general_graph(
                shared, static_cast<std::int64_t>(device.spec().sram_bytes)),
            prog);
  device.run_program(prog);

  GeneralRunResult result;
  result.fields.resize(static_cast<std::size_t>(nfields));
  for (int f = 0; f < nfields; ++f) {
    auto& final_buf = shared->final_of(f) == shared->d1[static_cast<std::size_t>(f)]
                          ? *d1[static_cast<std::size_t>(f)]
                          : *d2[static_cast<std::size_t>(f)];
    std::vector<bfloat16_t> out(layout.elems());
    device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));
    result.fields[static_cast<std::size_t>(f)] = layout.extract_interior(out);
  }
  result.kernel_time = device.last_kernel_duration();
  result.total_time = device.now() - t_start;
  result.cores_used = cfg.cores_x * cfg.cores_y;
  result.solution = result.fields[static_cast<std::size_t>(p.primary_field())];

  if (cfg.verify) {
    const auto ref = cpu::general_reference_bf16(p);
    result.verified_ok = ref.size() == result.fields.size();
    for (int f = 0; result.verified_ok && f < nfields; ++f) {
      const auto& rf = ref[static_cast<std::size_t>(f)];
      const auto& df = result.fields[static_cast<std::size_t>(f)];
      result.verified_ok = rf.size() == df.size();
      for (std::size_t i = 0; result.verified_ok && i < rf.size(); ++i) {
        if (static_cast<float>(rf[i]) != df[i]) result.verified_ok = false;
      }
    }
  }
  return result;
}

GeneralRunResult run_general_stencil_on_device(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg,
                                               sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_general_stencil_on_device(*device, p, cfg);
}

void build_batched_stencil_program(ttmetal::Program& prog,
                                   const GeneralStencilProblem& p,
                                   const DeviceRunConfig& cfg,
                                   const std::vector<GeneralBatchSlot>& slots) {
  validate_stencil_request(p, cfg);
  detail::check_batch_slots(slots, static_cast<std::size_t>(cfg.cores_x * cfg.cores_y));
  const std::size_t nfields = p.fields.size();
  for (std::size_t g = 0; g < slots.size(); ++g) {
    if (slots[g].d1.size() != nfields || slots[g].d2.size() != nfields) {
      TTSIM_THROW_API("batch slot " << g << " must supply one buffer pair per "
                      "field (" << nfields << ")");
    }
  }
  // One resolve for the batch: the slots differ only in their grids,
  // workers and barrier.
  const auto base = detail::resolve_general(p, cfg, detail::requested_cores(cfg), {}, {});
  detail::build_batch_slots(prog, *base, slots, detail::build_general_program);
}

void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg) {
  detail::validate_general_launch(p, cfg, detail::Surface::kBatch, 0);
}

DeviceRunResult run_stencil_on_device(ttmetal::Device& device, const StencilProblem& p,
                                      const DeviceRunConfig& cfg) {
  if (p.stencil.active_taps() == 0) TTSIM_THROW_API("stencil has no non-zero taps");
  DeviceRunConfig c = cfg;
  c.toggles = {};
  if (c.strategy != DeviceStrategy::kSramResident &&
      c.strategy != DeviceStrategy::kTemporal) {
    c.strategy = DeviceStrategy::kRowChunk;
  }
  auto r = run_general_stencil_on_device(device, to_general(p), c);
  DeviceRunResult out;
  out.solution = std::move(r.solution);
  out.kernel_time = r.kernel_time;
  out.total_time = r.total_time;
  out.cores_used = r.cores_used;
  out.verified_ok = r.verified_ok;
  return out;
}

DeviceRunResult run_stencil_on_device(const StencilProblem& p,
                                      const DeviceRunConfig& cfg,
                                      sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_stencil_on_device(*device, p, cfg);
}

}  // namespace ttsim::core
