/// \file stencil_device.cpp
/// The Section VI row-chunk program, for every problem: classic Jacobi
/// runs it as the one-field, one-pass general program to_general makes.
/// Batches are one-dimensional chunks of (up to) 1024 elements along X
/// (Fig. 6); each batch needs one contiguous read of chunk+2 elements per
/// referenced row (the chunk plus one halo element per side). Every pass
/// of every iteration streams each field it reads through its own rotating
/// window of row slots in local SRAM, read-ahead deep with one tagged
/// barrier per batch, and never copies memory: the compute kernel
/// redirects CB read pointers into the mover's slots with the
/// cb_set_rd_ptr SDK extension — tap (dr, dc) of field f at batch j is
///   slot(f, j + dr) + off + 2 + 2*dc
/// where `off` is the Listing-4 alignment offset of the strip's left halo
/// (so classic Jacobi's x-1 tile is slot(j) + off, its x+1 tile
/// slot(j) + off + 4 B and its y-1/y+1 tiles the rows above and below,
/// centred). The tap chain replays the per-point op chain: a weighted term
/// costs one FPU multiply against the weight table plus (after the seed)
/// one addition, a unit term only the addition — so classic Jacobi runs
/// ((xm + xp) + ym + yp) * 0.25 in four FPU ops, a 3-tap upwind advection
/// still runs cheaper per point than 5-tap diffusion, and a field whose
/// taps need no vertical halo streams one row per batch instead of three.
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

#include "stencil_internal.hpp"
#include "ttsim/core/field_grids.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

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

  // Distinct weights in first-appearance order: the table index each
  // multiply aliases kCbWgt onto. Unit terms multiply nothing (rule U).
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
                                     term.weight == 1.0f ? -1 : weight_index(term.weight)});
      touch(term.field, dr);
    }
    if (lp.post == PostOp::kScale) lp.post_widx = weight_index(pass.post_scale);
    // The Life recombination reads the self field's centre row — stream it
    // even when no tap term references it.
    if (lp.post == PostOp::kLife) touch(lp.self_field, 0);
    sh.passes.push_back(std::move(lp));
  }
}

}  // namespace

std::vector<CbSpec> rowchunk_cbs(const GeneralShared& sh, std::uint32_t depth) {
  std::vector<CbSpec> cbs = tap_chain_cbs(sh, depth, 4);
  if (sh.residual_addr != 0) cbs.push_back({kCbRes, 1, "cb-res", 32});
  return cbs;
}

void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);
  const int nfields = sh->nfields();
  // The residual page reuses the id of kCbGTmp2, which only the Life
  // post-op allocates; the residual is |unew - u| of a pass's own field.
  TTSIM_CHECK(sh->residual_addr == 0 ||
              (sh->passes.size() == 1 && sh->passes[0].post != PostOp::kLife));

  // Read-ahead depth N: the reader keeps up to N row batches in flight.
  // Stream CBs carry no data (read pointers are aliased); N pages give the
  // reader exactly the flow control that keeps a slot alive until the
  // compute kernel is done with the batches that read it.
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  const std::uint32_t nslots =
      general_slot_ring(depth, sh->ranges, sh->tagged_fields()).nslots;
  create_cbs(prog, cores, rowchunk_cbs(*sh, depth));

  const std::uint32_t sbytes = slot_bytes(max_chunk(sh->ranges, sh->chunk_elems));
  // Field f's rotation lives at slots_addr + f*nslots*sbytes.
  const std::uint32_t slots_addr = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(nfields) * nslots * sbytes));
  const std::uint32_t wtab =
      sh->table_bytes() > 0
          ? prog.l1_buffer_address(prog.create_l1_buffer(cores, sh->table_bytes()))
          : 0;
  // Reader and writer rendezvous after EVERY pass: a pass may read fields
  // the previous pass just wrote (FDTD's leapfrog), so no core's reader may
  // start pass p+1 until every writer has finished pass p.
  prog.create_global_barrier(sh->barrier_id, 2 * ncores);

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
      "stencil_reader");

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
        fill_weight_table(ctx, wtab, sh->weights);
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
                emit_tap_chain(ctx, wtab, pass, valid, tap_at, [&](int reg) {
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
      "stencil_compute");

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
      "stencil_writer");
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
  if (cfg.strategy == DeviceStrategy::kRowChunk) {
    // The slot ring's read tags must fit a data mover's tag space.
    const auto sh = resolve_general(p, cfg, requested_cores(cfg), {}, {});
    (void)general_slot_ring(static_cast<std::uint32_t>(cfg.read_ahead), sh->ranges,
                            sh->tagged_fields());
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
  return sh;
}

bool matches_general_reference(const GeneralStencilProblem& p,
                               std::span<const std::vector<float>> fields) {
  const auto ref = cpu::general_reference_bf16(p);
  if (ref.size() != fields.size()) return false;
  for (std::size_t f = 0; f < ref.size(); ++f) {
    if (ref[f].size() != fields[f].size()) return false;
    for (std::size_t i = 0; i < ref[f].size(); ++i) {
      if (static_cast<float>(ref[f][i]) != fields[f][i]) return false;
    }
  }
  return true;
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

DeviceRunResult solve_on_device(ttmetal::Device& device, const GeneralStencilProblem& p,
                                const DeviceRunConfig& cfg, Surface surface,
                                const LaunchPlan& plan) {
  validate_general_launch(p, cfg, surface, device.num_workers());
  const CoreSelection sel = select_cores(device, p.geometry(), cfg);
  FieldGrids grids(device, p, cfg);
  auto& cq = device.command_queue(0);
  const std::uint64_t retries_before = device.transfer_retries();
  const PaddedLayout& layout = grids.layout();
  const int nfields = static_cast<int>(p.fields.size());

  const SimTime t_start = device.now();
  for (int f = 0; f < nfields; ++f) {
    grids.stage(f, general_field_image(layout, p, f), cq, /*blocking=*/true);
  }
  DeviceRunResult result;
  int sweeps = p.iterations;
  if (plan) {
    sweeps = plan(grids, sel, result);
  } else {
    result.kernel_time = grids.launch(sweeps, sel);
  }
  std::vector<bfloat16_t> image(layout.elems());
  for (int f = 0; f < nfields; ++f) {
    grids.read(f, image, cq, /*blocking=*/true);
    result.fields.push_back(layout.extract_interior(image));
  }
  result.total_time = device.now() - t_start;
  result.cores_used = sel.ncores();
  result.transfer_retries =
      static_cast<int>(device.transfer_retries() - retries_before);
  if (cfg.verify && cfg.toggles.all_enabled()) {
    GeneralStencilProblem ran = p;
    ran.iterations = sweeps;
    result.verified_ok = matches_general_reference(ran, result.fields);
  }
  return result;
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
  GeneralRunResult result =
      detail::solve_on_device(device, p, cfg, detail::Surface::kCertified);
  result.solution = result.fields[static_cast<std::size_t>(p.primary_field())];
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
  if (slots.empty()) TTSIM_THROW_API("batched launch needs at least one slot");
  const auto ncores = static_cast<std::size_t>(cfg.cores_x * cfg.cores_y);
  const std::size_t nfields = p.fields.size();
  std::vector<int> used;
  for (std::size_t g = 0; g < slots.size(); ++g) {
    if (slots[g].core_ids.size() != ncores) {
      TTSIM_THROW_API("batch slot " << g << " supplies " << slots[g].core_ids.size()
                      << " cores but the decomposition needs " << ncores);
    }
    for (int id : slots[g].core_ids) {
      if (std::find(used.begin(), used.end(), id) != used.end()) {
        TTSIM_THROW_API("batch slots must use disjoint cores (worker " << id
                        << " appears twice)");
      }
      used.push_back(id);
    }
    if (slots[g].d1.size() != nfields || slots[g].d2.size() != nfields) {
      TTSIM_THROW_API("batch slot " << g << " must supply one buffer pair per "
                      "field (" << nfields << ")");
    }
  }
  // One resolve for the batch: the slots differ only in their grids,
  // workers and barrier, which is the group's own.
  const auto base = detail::resolve_general(p, cfg, detail::requested_cores(cfg), {}, {});
  for (std::size_t g = 0; g < slots.size(); ++g) {
    auto sh = std::make_shared<detail::GeneralShared>(*base);
    sh->d1 = slots[g].d1;
    sh->d2 = slots[g].d2;
    sh->core_ids = slots[g].core_ids;
    sh->barrier_id = static_cast<int>(g);
    detail::build_general_program(prog, std::move(sh));
  }
}

void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg) {
  detail::validate_general_launch(p, cfg, detail::Surface::kBatch, 0);
}

}  // namespace ttsim::core
