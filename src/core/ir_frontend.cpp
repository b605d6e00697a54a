/// \file ir_frontend.cpp
/// Dataflow-IR models of the hand-wired program builders. Every op list
/// here is a flattened, symbolically-counted transcript of the protocol
/// calls the corresponding builder emits (same ids, same pages, same
/// program order of first occurrence); every region list replays the
/// builder's create_cb / create_l1_buffer calls in creation order, which
/// is exactly Program::plan_allocate's bump order. The emit closures
/// guarantee the *lowered* program can never drift, because it is the
/// builder's own output; tests/ir/test_ir_program.cpp checks that each
/// graph's CBs, L1 regions and per-CB push/pop counts match that program,
/// and the conformance and cross-validation tests catch protocol drift.

#include "ir_frontend.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ttsim/common/check.hpp"
#include "ttsim/common/units.hpp"
#include "ttsim/core/ir_frontend.hpp"

namespace ttsim::core::detail {
namespace {

using ir::Count;
using ir::Graph;
using ir::Guard;
using ir::KernelModel;
using ir::Op;
using ir::OpKind;
using ir::Peer;

// File-local ids of the SRAM-resident lowering (stencil_sram.cpp) and the
// temporal lowering (jacobi_temporal.cpp).
constexpr int kSemTopHalo = 0;
constexpr int kSemBottomHalo = 1;
constexpr int kSemComputeDm0 = 2;
constexpr int kSemComputeDm1 = 3;
constexpr int kSemRestored = 4;
constexpr int kSemLoaded = 0;
constexpr int kSemComputed = 1;
constexpr int kSemFree = 2;

Op make_op(OpKind k, int id, Count c, int pages = 1,
           Guard g = Guard::kAlways, Peer peer = Peer::kSelf,
           int iter_delta = 0) {
  Op o(k, id, std::move(c), pages);
  o.guard = g;
  o.peer = peer;
  o.iter_delta = iter_delta;
  return o;
}

Op flow_op(OpKind k, Count c, std::string note) {
  Op o(k, -1, std::move(c));
  o.note = std::move(note);
  return o;
}

/// Core-0 chunk grid (the representative instance bound to the graph's
/// "points"/"columns" symbols) plus the across-cores maxima the builders
/// size shared buffers with.
struct StripGeom {
  std::uint32_t ncols0 = 0, nrows0 = 0;
  std::uint32_t max_chunk = 16, max_rows = 0;
};

StripGeom strip_geom(const std::vector<CoreRange>& ranges,
                     std::uint32_t chunk_elems) {
  StripGeom g;
  const ChunkGrid grid0(ranges.front(), chunk_elems, 1);
  g.ncols0 = grid0.ncols;
  g.nrows0 = grid0.nrows;
  g.max_chunk = max_chunk(ranges, chunk_elems);
  for (const CoreRange& rg : ranges) {
    g.max_rows = std::max(g.max_rows, rg.row_hi - rg.row_lo);
  }
  return g;
}

/// Replays the simulator's bump allocator over the graph's regions at the
/// concrete bindings. When the *launched* configuration would exhaust core
/// SRAM, the program's allocator would raise ApiError at launch; raise the
/// same error here so a certified launch reports the allocator's diagnostic
/// instead of a static-checker sram-overflow finding.
void require_sram_fit(const Graph& g) {
  std::int64_t top = 0;
  for (const auto& r : g.regions) {
    const std::int64_t size = r.bytes.eval(g.bindings);
    const std::int64_t base =
        r.pinned_addr >= 0 ? r.pinned_addr : align_up(top, 32);
    if (base + size > g.sram_bytes) {
      TTSIM_THROW_API("Tensix SRAM exhausted: requested "
                      << size << " bytes with " << (g.sram_bytes - top)
                      << " of " << g.sram_bytes << " free");
    }
    top = base + size;
  }
}

/// A builder's CB list (create_cbs), declared in the same order. Each
/// create_cb allocates pages*page_bytes right away: mirrored as a region.
void declare_cbs(Graph& g, const std::vector<CbSpec>& cbs) {
  for (const CbSpec& cb : cbs) {
    g.cbs.push_back(ir::CbDecl{cb.id, Count(cb.pages), cb.page_bytes, cb.name});
    g.regions.push_back(
        ir::RegionDecl{cb.name, Count(cb.pages) * Count(cb.page_bytes)});
  }
}

// ---------------------------------------------------------------------------
// The row-chunk program (stencil_device.cpp): the tap chain supplies the
// CBs, the weight table and the per-point ops. Depth is bound concretely —
// the slot count's ceil(depth/nrows_min) term is not polynomial.
// ---------------------------------------------------------------------------
Graph rowchunk_graph(const GeneralShared& sh, std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh.ranges.size());
  const int nfields = sh.nfields();
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh.read_ahead));
  const StripGeom geo = strip_geom(sh.ranges, sh.chunk_elems);
  const SlotRing slots = general_slot_ring(depth, sh.ranges, sh.tagged_fields());
  const std::uint32_t sbytes = slot_bytes(geo.max_chunk);

  Graph g;
  g.name = "stencil-rowchunk";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  const Count it = Count::sym("iters");
  const Count P = Count::sym("points");
  g.bindings["iters"] = sh.iterations;
  g.bindings["points"] = static_cast<std::int64_t>(sh.iterations) *
                         geo.nrows0 * geo.ncols0;
  g.bindings["columns"] = geo.ncols0;

  declare_cbs(g, rowchunk_cbs(sh, depth));
  g.regions.push_back(ir::RegionDecl{
      "row-slots",
      Count(static_cast<std::int64_t>(nfields) * slots.nslots * sbytes)});
  if (sh.table_bytes() > 0) {
    g.regions.push_back(ir::RegionDecl{"weight-table", Count(sh.table_bytes())});
  }
  g.barriers.push_back(ir::BarrierDecl{sh.barrier_id, Count(2 * ncores)});

  // One ring per (pass, read field): same slot rotation, but each field's
  // window [lo, hi] bounds its own reuse distance. The +extra slots absorb
  // the reader's cross-column run-ahead when strips have fewer rows than
  // the read-ahead depth.
  KernelModel reader{"stencil_reader", 0, Count(ncores), {}};
  KernelModel compute{"stencil_compute", 2, Count(ncores), {}};
  KernelModel writer{"stencil_writer", 1, Count(ncores), {}};
  for (std::size_t p = 0; p < sh.passes.size(); ++p) {
    const LoweredPass& pass = sh.passes[p];
    const std::string pname = "pass " + std::to_string(p);
    reader.ops.push_back(flow_op(OpKind::kReadRegion, P,
                                 pname + " row batches, depth in flight"));
    for (const PassField& pf : pass.reads) {
      const int ring = static_cast<int>(g.rings.size());
      g.rings.push_back(ir::RingDecl{
          "pass" + std::to_string(p) + "-field" + std::to_string(pf.field),
          Count(slots.nslots), Count(depth - 1 + pf.hi), Count(depth), pf.lo,
          pf.hi, Count(slots.extra), true, Count::sym("columns")});
      reader.ops.push_back(
          make_op(OpKind::kCbReserve, kCbFieldBase + pf.field, P));
      reader.ops.push_back(make_op(OpKind::kRingWrite, ring, P));
      compute.ops.push_back(make_op(OpKind::kRingRead, ring, P));
    }
    for (const PassField& pf : pass.reads) {
      reader.ops.push_back(
          make_op(OpKind::kCbPush, kCbFieldBase + pf.field, P));
    }
    reader.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, it));

    for (const PassField& pf : pass.reads) {
      compute.ops.push_back(
          make_op(OpKind::kCbWait, kCbFieldBase + pf.field, P));
    }
    compute.ops.push_back(flow_op(OpKind::kComputeTile, P,
                                  pname + " point chain per chunk"));
    for (Op& op : tap_chain_ops(pass, P)) compute.ops.push_back(std::move(op));
    compute.ops.push_back(make_op(OpKind::kCbReserve, kCbGOut, P));
    compute.ops.push_back(make_op(OpKind::kCbPush, kCbGOut, P));
    for (const PassField& pf : pass.reads) {
      compute.ops.push_back(
          make_op(OpKind::kCbPop, kCbFieldBase + pf.field, P));
    }

    writer.ops.push_back(make_op(OpKind::kCbWait, kCbGOut, P));
    writer.ops.push_back(flow_op(OpKind::kWriteRegion, P,
                                 pname + " interior chunks"));
    writer.ops.push_back(make_op(OpKind::kCbPop, kCbGOut, P));
    writer.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, it));
  }
  if (sh.residual_addr != 0) {
    compute.ops.push_back(make_op(OpKind::kCbReserve, kCbRes, Count(1)));
    compute.ops.push_back(make_op(OpKind::kCbPush, kCbRes, Count(1)));
    writer.ops.push_back(make_op(OpKind::kCbWait, kCbRes, Count(1)));
    writer.ops.push_back(make_op(OpKind::kCbPop, kCbRes, Count(1)));
  }
  g.kernels.push_back(std::move(reader));
  g.kernels.push_back(std::move(compute));
  g.kernels.push_back(std::move(writer));

  return g;
}

// ---------------------------------------------------------------------------
// The slab programs (stencil_sram.cpp, jacobi_temporal.cpp): the tap chain
// supplies the CBs, the weight table and the per-point ops.
// ---------------------------------------------------------------------------

/// SRAM-resident: five semaphores choreograph the halo exchange/restore
/// between iterations; the iteration-(k-1) waits carry iter_delta = -1 —
/// the slack that makes the wait-for graph acyclic.
Graph sram_graph(const GeneralShared& sh, std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh.ranges.size());
  const SlabRows rows(sh.layout);
  const StripGeom geo = strip_geom(sh.ranges, rows.chunk);
  const Count slab_bytes(static_cast<std::int64_t>(geo.max_rows + 2) * rows.row_stride);
  const Count it = Count::sym("iters");

  Graph g;
  g.name = "stencil-sram";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  g.bindings["iters"] = sh.iterations;
  g.bindings["points"] = static_cast<std::int64_t>(sh.iterations) * geo.nrows0 *
                         (sh.layout.width() / rows.chunk);

  declare_cbs(g, tap_chain_cbs(sh, 1, 1));
  g.regions.push_back(ir::RegionDecl{"slab-a", slab_bytes});
  g.regions.push_back(ir::RegionDecl{"slab-b", slab_bytes});
  if (sh.table_bytes() > 0) {
    g.regions.push_back(ir::RegionDecl{"weight-table", Count(sh.table_bytes())});
  }
  g.sems = {ir::SemDecl{kSemTopHalo, 0, "sem-top-halo"},
            ir::SemDecl{kSemBottomHalo, 0, "sem-bottom-halo"},
            ir::SemDecl{kSemComputeDm0, 0, "sem-compute-dm0"},
            ir::SemDecl{kSemComputeDm1, 0, "sem-compute-dm1"},
            ir::SemDecl{kSemRestored, 0, "sem-restored"}};
  g.barriers.push_back(ir::BarrierDecl{sh.barrier_id, Count(3 * ncores)});

  KernelModel dm0{"stencil_sram_dm0", 0, Count(ncores), {}};
  dm0.ops.push_back(flow_op(OpKind::kReadRegion, Count(2),
                            "both parities' slabs, rows+2 rows each"));
  dm0.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, Count(1)));
  dm0.ops.push_back(make_op(OpKind::kSemWait, kSemComputeDm0, it - Count(1), 1,
                            Guard::kAlways, Peer::kSelf, -1));
  dm0.ops.push_back(flow_op(OpKind::kHaloExchange, it - Count(1),
                            "top edge row -> upper neighbour"));
  dm0.ops.push_back(make_op(OpKind::kSemPost, kSemBottomHalo, it - Count(1), 1,
                            Guard::kHasUpper, Peer::kUpper));
  g.kernels.push_back(std::move(dm0));

  KernelModel compute{"stencil_sram_compute", 2, Count(ncores), {}};
  compute.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, Count(1)));
  compute.ops.push_back(make_op(OpKind::kSemWait, kSemTopHalo, it - Count(1),
                                1, Guard::kHasUpper, Peer::kSelf, -1));
  compute.ops.push_back(make_op(OpKind::kSemWait, kSemBottomHalo,
                                it - Count(1), 1, Guard::kHasLower,
                                Peer::kSelf, -1));
  compute.ops.push_back(make_op(OpKind::kSemWait, kSemRestored, it - Count(1),
                                1, Guard::kAlways, Peer::kSelf, -1));
  compute.ops.push_back(flow_op(OpKind::kComputeTile, Count::sym("points"),
                                "slab-aliased point chain per chunk"));
  for (Op& op : tap_chain_ops(sh.passes[0], Count::sym("points"))) {
    compute.ops.push_back(std::move(op));
  }
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputeDm0, it));
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputeDm1, it));
  g.kernels.push_back(std::move(compute));

  KernelModel dm1{"stencil_sram_dm1", 1, Count(ncores), {}};
  dm1.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, Count(1)));
  dm1.ops.push_back(make_op(OpKind::kSemWait, kSemComputeDm1, it - Count(1),
                            1, Guard::kAlways, Peer::kSelf, -1));
  dm1.ops.push_back(make_op(OpKind::kSemPost, kSemRestored, it - Count(1)));
  dm1.ops.push_back(flow_op(OpKind::kHaloExchange, it - Count(1),
                            "bottom edge row -> lower neighbour"));
  dm1.ops.push_back(make_op(OpKind::kSemPost, kSemTopHalo, it - Count(1), 1,
                            Guard::kHasLower, Peer::kLower));
  dm1.ops.push_back(make_op(OpKind::kSemWait, kSemComputeDm1, Count(1)));
  dm1.ops.push_back(flow_op(OpKind::kWriteRegion, Count(1),
                            "final slab -> DRAM writeback"));
  g.kernels.push_back(std::move(dm1));
  return g;
}

/// Temporal tiling: Loaded / Computed / Free(initial 1) circulate per
/// block; dm0+dm1 rendezvous on the epoch barrier.
Graph temporal_graph(const GeneralShared& sh, std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh.ranges.size());
  const int wf = sh.passes.front().target;
  const SlabRows rows(sh.layout);
  const StripGeom geo = strip_geom(sh.ranges, rows.chunk);
  const TemporalGeometry tg = temporal_geometry(sh);
  const Count slab_bytes(static_cast<std::int64_t>(tg.slab_rows) * rows.row_stride);
  const Count E = Count::sym("epochs");
  const Count EB = Count::sym("epochs") * Count::sym("blocks");

  Graph g;
  g.name = "stencil-temporal";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  g.bindings["iters"] = sh.iterations;
  g.bindings["epochs"] = sh.generations();
  g.bindings["blocks"] = (geo.nrows0 + tg.block_rows - 1) / tg.block_rows;
  // Lower bound: the trapezoid recomputes skirt rows on top of these.
  g.bindings["points"] = static_cast<std::int64_t>(sh.iterations) * geo.nrows0 *
                         (sh.layout.width() / rows.chunk);

  declare_cbs(g, tap_chain_cbs(sh, 1, 1));
  if (sh.table_bytes() > 0) {
    g.regions.push_back(ir::RegionDecl{"weight-table", Count(sh.table_bytes())});
  }
  for (int f = 0; f < sh.nfields(); ++f) {
    if (!tg.streamed[static_cast<std::size_t>(f)]) continue;
    g.regions.push_back(ir::RegionDecl{"slab-a-field" + std::to_string(f), slab_bytes});
    if (f == wf) {
      g.regions.push_back(ir::RegionDecl{"slab-b-field" + std::to_string(f), slab_bytes});
    }
  }
  g.sems = {ir::SemDecl{kSemLoaded, 0, "sem-loaded"},
            ir::SemDecl{kSemComputed, 0, "sem-computed"},
            ir::SemDecl{kSemFree, 1, "sem-free"}};
  g.barriers.push_back(ir::BarrierDecl{sh.barrier_id, Count(2 * ncores)});

  KernelModel dm0{"temporal_reader", 0, Count(ncores), {}};
  dm0.ops.push_back(make_op(OpKind::kSemWait, kSemFree, EB));
  dm0.ops.push_back(flow_op(OpKind::kReadRegion, EB,
                            "block rows + trapezoid skirt per slab"));
  dm0.ops.push_back(make_op(OpKind::kSemPost, kSemLoaded, EB));
  dm0.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, E));
  g.kernels.push_back(std::move(dm0));

  KernelModel compute{"temporal_compute", 2, Count(ncores), {}};
  compute.ops.push_back(make_op(OpKind::kSemWait, kSemLoaded, EB));
  compute.ops.push_back(flow_op(OpKind::kComputeTile, Count::sym("points"),
                                "depth chained sub-steps per block"));
  for (Op& op : tap_chain_ops(sh.passes[0], Count::sym("points"))) {
    compute.ops.push_back(std::move(op));
  }
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputed, EB));
  g.kernels.push_back(std::move(compute));

  KernelModel dm1{"temporal_writer", 1, Count(ncores), {}};
  dm1.ops.push_back(make_op(OpKind::kSemWait, kSemComputed, EB));
  dm1.ops.push_back(flow_op(OpKind::kWriteRegion, EB,
                            "final generation rows -> DRAM"));
  dm1.ops.push_back(make_op(OpKind::kSemPost, kSemFree, EB));
  dm1.ops.push_back(make_op(OpKind::kBarrierArrive, sh.barrier_id, E));
  g.kernels.push_back(std::move(dm1));
  return g;
}

}  // namespace

ir::Graph make_general_graph(std::shared_ptr<GeneralShared> sh,
                             std::int64_t sram_bytes) {
  Graph g;
  switch (sh->strategy) {
    case DeviceStrategy::kRowChunk:
      g = rowchunk_graph(*sh, sram_bytes);
      break;
    case DeviceStrategy::kSramResident:
      g = sram_graph(*sh, sram_bytes);
      break;
    case DeviceStrategy::kTemporal:
      g = temporal_graph(*sh, sram_bytes);
      break;
    default:
      TTSIM_CHECK_MSG(false, "no IR model of " << to_string(sh->strategy));
  }
  require_sram_fit(g);
  g.emit = [sh](ttmetal::Program& prog) { build_general_program(prog, sh); };
  return g;
}

}  // namespace ttsim::core::detail

namespace ttsim::core {

namespace {

// Placeholder DRAM addresses for the problem-level graphs: distinct,
// DRAM-plausible, never dereferenced (the graphs are for check/dump, not
// for emitting a launchable program).
constexpr std::uint64_t kDummyBase = 0x100000;
constexpr std::uint64_t kDummyStep = 0x100000;

}  // namespace

ir::Graph jacobi_ir_graph(const JacobiProblem& p, const DeviceRunConfig& cfg,
                          std::int64_t sram_bytes) {
  return general_ir_graph(to_general(p), cfg, sram_bytes);
}

ir::Graph general_ir_graph(const GeneralStencilProblem& p,
                           const DeviceRunConfig& cfg,
                           std::int64_t sram_bytes) {
  detail::validate_general_launch(p, cfg, detail::Surface::kCertified, 0);
  std::vector<std::uint64_t> d1, d2;
  for (int f = 0; f < static_cast<int>(p.fields.size()); ++f) {
    d1.push_back(kDummyBase + static_cast<std::uint64_t>(2 * f) * kDummyStep);
    d2.push_back(p.written_pass(f) >= 0
                     ? kDummyBase + static_cast<std::uint64_t>(2 * f + 1) * kDummyStep
                     : 0);
  }
  return detail::make_general_graph(
      detail::resolve_general(p, cfg, detail::requested_cores(cfg), std::move(d1),
                              std::move(d2)),
      sram_bytes);
}

}  // namespace ttsim::core
