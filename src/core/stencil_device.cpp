/// \file stencil_device.cpp
/// The general radius-1 stencil lowering onto the Section VI row-chunk
/// machinery: every pass of every iteration streams each referenced field
/// through its own slot rotation (contiguous chunk+halo reads, read-ahead
/// deep, no memcpy — the compute kernel aliases CB read pointers into the
/// mover's slots), and the shared tap-chain emitter replays the problem's
/// terms in listed order. Each term costs one FPU multiply against the
/// weight table plus (after the first) one addition — so a 3-tap upwind
/// advection still runs cheaper per point than 5-tap diffusion, and a
/// field whose taps need no vertical halo streams one row per batch
/// instead of three.

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

void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);
  const int nfields = sh->nfields();

  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  // Continuous rotation bound. With every read issue gated behind a CB
  // reserve (the prologue is folded into batch 0's reserve below), at most
  // N batches are reserved-but-unpopped, so the newest issued row is at
  // most 2N rows past the oldest row a pending batch still reads — plus 2
  // halo rows for every column boundary inside that window. A window of N
  // batches crosses at most ceil(N/nrows_min) boundaries, which matters
  // when the decomposition leaves fewer rows per core than the read-ahead
  // depth (jacobi_rowchunk never sees that regime; the general frontend's
  // conformance sweep does).
  std::uint32_t nrows_min = UINT32_MAX;
  for (const auto& rg : sh->ranges) {
    nrows_min = std::min(nrows_min, rg.row_hi - rg.row_lo);
  }
  nrows_min = std::max(nrows_min, 1u);
  const std::uint32_t nslots =
      2 * depth + 3 + 2 * ((depth + nrows_min - 1) / nrows_min);

  // One stream CB per field any pass references; the accumulator CBs only
  // when a chain is long enough to need them.
  std::vector<char> streamed(static_cast<std::size_t>(nfields), 0);
  bool needs_inter = false, needs_post = false;
  for (const auto& pass : sh->passes) {
    for (const auto& pf : pass.reads) streamed[static_cast<std::size_t>(pf.field)] = 1;
    if (pass.terms.size() > 1) needs_inter = true;
    if (pass.post != PostOp::kNone) needs_post = true;
  }
  for (int f = 0; f < nfields; ++f) {
    if (streamed[static_cast<std::size_t>(f)]) {
      prog.create_cb(kCbFieldBase + f, cores, kTileBytes, depth);
    }
  }
  create_chain_cbs(prog, cores, needs_inter, needs_post, 4);

  const std::uint32_t sbytes = slot_bytes(max_chunk(sh->ranges, sh->chunk_elems));
  // Field f's rotation lives at slots_addr + f*nslots*sbytes.
  const std::uint32_t slots_addr = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(nfields) * nslots * sbytes));
  const std::uint32_t wtab = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(sh->weights.size()) * kTileBytes));
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
              // Reads are tagged per (field, slot) so a batch waits only on
              // the one row it still needs while `depth` batches of reads
              // stay in flight (see jacobi_rowchunk for the rotation and
              // tag-reuse argument; tags of different fields never clash).
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
                // cross-column run-ahead (see the nslots derivation).
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
        ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
        fill_weight_table(ctx, wtab, sh->weights);
        std::vector<TapAddr> taps;
        for (int it = 0; it < sh->iterations; ++it) {
          for (const LoweredPass& pass : sh->passes) {
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              // A redirected tile covers only the chunk's elements, not a
              // full 2 KiB page — declared so the race detector's read spans
              // stay within this batch's slots.
              const std::uint32_t valid = grid.chunk * 2;
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
                taps.clear();
                for (const auto& t : pass.terms) {
                  taps.push_back(TapAddr{kCbFieldBase + t.field,
                                         tap_at(t.field, t.dr, t.dc), valid, t.widx});
                }
                const TapAddr self{kCbFieldBase + pass.self_field,
                                   tap_at(pass.self_field, 0, 0), valid, 0};
                emit_tap_chain(ctx, wtab, taps, pass.post, self, [&](int reg) {
                  ctx.cb_reserve_back(kCbGOut, 1);
                  ctx.pack_tile(reg, kCbGOut);
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
