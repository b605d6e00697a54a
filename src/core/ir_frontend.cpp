/// \file ir_frontend.cpp
/// Dataflow-IR models of the hand-wired program builders. Every op list
/// here is a flattened, symbolically-counted transcript of the protocol
/// calls the corresponding builder emits (same ids, same pages, same
/// program order of first occurrence); every region list replays the
/// builder's create_cb / create_l1_buffer calls in creation order, which
/// is exactly Program::plan_allocate's bump order. When a builder changes
/// its protocol, the conformance and cross-validation tests catch the
/// drift — the emit closures guarantee the *lowered* program can never
/// drift, because it is the builder's own output.

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
  std::uint32_t chunk0 = 0, ncols0 = 0, nrows0 = 0;
  std::uint32_t max_chunk = 16, max_rows = 0, min_rows = 1;
};

StripGeom strip_geom(const std::vector<CoreRange>& ranges,
                     std::uint32_t chunk_elems) {
  StripGeom g;
  const ChunkGrid grid0(ranges.front(), chunk_elems, 1);
  g.chunk0 = grid0.chunk;
  g.ncols0 = grid0.ncols;
  g.nrows0 = grid0.nrows;
  g.max_chunk = max_chunk(ranges, chunk_elems);
  std::uint32_t min_rows = UINT32_MAX;
  for (const CoreRange& rg : ranges) {
    g.max_rows = std::max(g.max_rows, rg.row_hi - rg.row_lo);
    min_rows = std::min(min_rows, rg.row_hi - rg.row_lo);
  }
  g.min_rows = std::max(min_rows, 1u);
  return g;
}

void declare_cb(Graph& g, int id, Count pages, std::uint32_t page_size,
                const std::string& name) {
  g.cbs.push_back(ir::CbDecl{id, pages, page_size, name});
  // create_cb allocates pages*page_size right away: mirror as a region.
  g.regions.push_back(ir::RegionDecl{name, g.cbs.back().pages *
                                               Count(page_size)});
}

/// Replays the simulator's bump allocator over the graph's regions at the
/// concrete bindings. When the *launched* configuration would exhaust core
/// SRAM, the program's allocator would raise ApiError at launch; raise the
/// same error here so a certified launch reports the allocator's diagnostic
/// instead of a static-checker sram-overflow finding. (The checker still
/// sweeps the declared symbol ranges for non-launched depths.)
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

/// Accumulator-chain protocol ops of emit_tap_chain for one pass, scaled
/// by the per-point count P. Totals per point (t = #terms):
///   kCbGInter: t-1 of each op;  kCbGTmp: t+1 with a post-op else t-1;
///   kCbGTmp2: 2 with a post-op. All traffic is compute-local.
void append_chain_ops(std::vector<Op>& ops, const LoweredPass& pass,
                      const Count& P) {
  const auto t = static_cast<std::int64_t>(pass.terms.size());
  const bool post = pass.post != PostOp::kNone;
  auto quad = [&](int cb, std::int64_t per_point) {
    if (per_point <= 0) return;
    const Count c = Count(per_point) * P;
    ops.push_back(make_op(OpKind::kCbReserve, cb, c));
    ops.push_back(make_op(OpKind::kCbPush, cb, c));
    ops.push_back(make_op(OpKind::kCbWait, cb, c));
    ops.push_back(make_op(OpKind::kCbPop, cb, c));
  };
  quad(kCbGTmp, post ? t + 1 : t - 1);
  quad(kCbGInter, t - 1);
  quad(kCbGTmp2, post ? 2 : 0);
}

/// The CBs create_chain_cbs makes, declared after the field CBs.
void declare_chain_cbs(Graph& g, bool inter, bool post, std::int64_t out_pages) {
  declare_cb(g, kCbWgt, Count(1), kTileBytes, "cb-wgt");  // alias vehicle
  if (inter) declare_cb(g, kCbGInter, Count(2), kTileBytes, "cb-ginter");
  if (inter || post) declare_cb(g, kCbGTmp, Count(2), kTileBytes, "cb-gtmp");
  if (post) declare_cb(g, kCbGTmp2, Count(2), kTileBytes, "cb-gtmp2");
  declare_cb(g, kCbGOut, Count(out_pages), kTileBytes, "cb-gout");
}

/// The CBs create_classic_slab_cbs makes.
void declare_classic_slab_cbs(Graph& g) {
  declare_cb(g, kCbScalar, Count(1), kTileBytes, "cb-scalar");
  declare_cb(g, kCbInter, Count(2), kTileBytes, "cb-inter");
  declare_cb(g, kCbOut, Count(1), kTileBytes, "cb-out");  // alias vehicle
}

/// fill_scalar_page's reserve/push of the scalar page: the classic slab
/// compute kernels' prologue.
std::vector<Op> classic_prologue_ops() {
  return {make_op(OpKind::kCbReserve, kCbScalar, Count(1)),
          make_op(OpKind::kCbPush, kCbScalar, Count(1))};
}

/// Protocol ops of emit_classic_point, scaled by the per-point count P:
/// 4 reserve/push/pop legs through cb-inter, 3 of them waited (the first
/// add aliases the freshly pushed page without waiting); the last leg also
/// waits the scalar page.
std::vector<Op> classic_chain_ops(const Count& P) {
  return {make_op(OpKind::kCbReserve, kCbInter, Count(4) * P),
          make_op(OpKind::kCbPush, kCbInter, Count(4) * P),
          make_op(OpKind::kCbWait, kCbInter, Count(3) * P),
          make_op(OpKind::kCbWait, kCbScalar, P),
          make_op(OpKind::kCbPop, kCbInter, Count(4) * P)};
}

// ---------------------------------------------------------------------------
// Jacobi, kRowChunk (jacobi_rowchunk.cpp). Depth is kept symbolic: the CB
// capacities, the slot count 2*depth+3 and the ring's reuse distance are
// all polynomials in "depth", so the checker's verdict covers every depth
// in the declared range, not just the launched one.
// ---------------------------------------------------------------------------
Graph jacobi_rowchunk_graph(const std::shared_ptr<KernelShared>& sh,
                            std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  const StripGeom geo = strip_geom(sh->ranges, sh->chunk_elems);
  const std::uint32_t sbytes = slot_bytes(geo.max_chunk);
  const bool residual = sh->residual_addr != 0;

  Graph g;
  g.name = "jacobi-rowchunk";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  const Count d = Count::sym("depth");
  const Count it = Count::sym("iters");
  const Count P = Count::sym("points");
  g.bindings["iters"] = sh->iterations;
  g.bindings["depth"] = depth;
  g.bindings["points"] = static_cast<std::int64_t>(sh->iterations) *
                         geo.nrows0 * geo.ncols0;
  g.bindings["columns"] = geo.ncols0;
  g.ranges["depth"] = {2, std::max<std::int64_t>(8, depth)};

  declare_cb(g, kCbIn0, d, kTileBytes, "cb-in0");
  declare_cb(g, kCbIn1, d, kTileBytes, "cb-in1");
  declare_cb(g, kCbIn2, d, kTileBytes, "cb-in2");
  declare_cb(g, kCbIn3, d, kTileBytes, "cb-in3");
  declare_cb(g, kCbScalar, Count(1), kTileBytes, "cb-scalar");
  declare_cb(g, kCbInter, Count(2), kTileBytes, "cb-inter");
  declare_cb(g, kCbOut, Count(4), kTileBytes, "cb-out");
  if (residual) declare_cb(g, kCbRes, Count(1), 32, "cb-res");
  g.regions.push_back(
      ir::RegionDecl{"row-slots", (2 * d + Count(3)) * Count(sbytes)});
  g.barriers.push_back(ir::BarrierDecl{sh->barrier_id, Count(2 * ncores)});
  // Continuous rotation: a new column strip continues after the previous
  // one's tail. The reader runs at most depth-1 batches past the waited
  // one plus the +1 halo row, and depth reserved-but-unpopped batches can
  // still read their [-1, +1] windows.
  g.rings.push_back(ir::RingDecl{"row-slots", 2 * d + Count(3), d, d, -1, +1,
                                 Count(0), true, Count::sym("columns")});

  KernelModel reader{"jacobi_reader", 0, Count(ncores), {}};
  reader.ops.push_back(make_op(OpKind::kCbReserve, kCbScalar, Count(1)));
  reader.ops.push_back(make_op(OpKind::kCbPush, kCbScalar, Count(1)));
  reader.ops.push_back(flow_op(OpKind::kReadRegion, P,
                               "one row batch per point, depth in flight"));
  for (int cb = kCbIn0; cb <= kCbIn3; ++cb) {
    reader.ops.push_back(make_op(OpKind::kCbReserve, cb, P));
  }
  reader.ops.push_back(make_op(OpKind::kRingWrite, 0, P));
  for (int cb = kCbIn0; cb <= kCbIn3; ++cb) {
    reader.ops.push_back(make_op(OpKind::kCbPush, cb, P));
  }
  reader.ops.push_back(make_op(OpKind::kBarrierArrive, sh->barrier_id, it));
  g.kernels.push_back(std::move(reader));

  KernelModel compute{"jacobi_compute", 2, Count(ncores), {}};
  compute.ops.push_back(flow_op(OpKind::kComputeTile, P,
                                "((xm+xp)+ym+yp)*0.25 per chunk"));
  compute.ops.push_back(make_op(OpKind::kRingRead, 0, P));
  compute.ops.push_back(make_op(OpKind::kCbWait, kCbIn0, P));
  compute.ops.push_back(make_op(OpKind::kCbWait, kCbIn1, P));
  compute.ops.push_back(make_op(OpKind::kCbPop, kCbIn1, P));
  compute.ops.push_back(make_op(OpKind::kCbPop, kCbIn0, P));
  for (int leg = 0; leg < 3; ++leg) {
    compute.ops.push_back(make_op(OpKind::kCbReserve, kCbInter, P));
    compute.ops.push_back(make_op(OpKind::kCbPush, kCbInter, P));
    const int in_cb = leg == 0 ? kCbIn2 : leg == 1 ? kCbIn3 : kCbScalar;
    compute.ops.push_back(make_op(OpKind::kCbWait, in_cb, P));
    compute.ops.push_back(make_op(OpKind::kCbWait, kCbInter, P));
    compute.ops.push_back(make_op(OpKind::kCbPop, kCbInter, P));
    if (in_cb != kCbScalar) {
      compute.ops.push_back(make_op(OpKind::kCbPop, in_cb, P));
    }
  }
  compute.ops.push_back(make_op(OpKind::kCbReserve, kCbOut, P));
  compute.ops.push_back(make_op(OpKind::kCbPush, kCbOut, P));
  if (residual) {
    compute.ops.push_back(make_op(OpKind::kCbReserve, kCbRes, Count(1)));
    compute.ops.push_back(make_op(OpKind::kCbPush, kCbRes, Count(1)));
  }
  g.kernels.push_back(std::move(compute));

  KernelModel writer{"jacobi_writer", 1, Count(ncores), {}};
  writer.ops.push_back(make_op(OpKind::kCbWait, kCbOut, P));
  writer.ops.push_back(flow_op(OpKind::kWriteRegion, P,
                               "one interior chunk per point"));
  writer.ops.push_back(make_op(OpKind::kCbPop, kCbOut, P));
  writer.ops.push_back(make_op(OpKind::kBarrierArrive, sh->barrier_id, it));
  if (residual) {
    writer.ops.push_back(make_op(OpKind::kCbWait, kCbRes, Count(1)));
    writer.ops.push_back(make_op(OpKind::kCbPop, kCbRes, Count(1)));
  }
  g.kernels.push_back(std::move(writer));

  return g;
}

// ---------------------------------------------------------------------------
// SRAM-resident (stencil_sram.cpp), classic and general. Five semaphores
// choreograph the halo exchange/restore between iterations; the
// iteration-(k-1) waits carry iter_delta = -1 — the slack that makes the
// wait-for graph acyclic.
// ---------------------------------------------------------------------------

/// Shared SRAM-resident skeleton. The caller names the graph and declares
/// its CBs; this adds the two slabs, then the weight table when
/// `table_bytes` > 0 (the general path), the five semaphores, the load
/// barrier and the kernels <prefix>_dm0 / _compute / _dm1 around the
/// caller's compute prologue and per-point chain ops.
template <typename Shared>
void sram_protocol(Graph& g, const Shared& sh, const std::string& prefix,
                   std::int64_t table_bytes, std::vector<Op> compute_prologue,
                   std::vector<Op> chain_ops) {
  const int ncores = static_cast<int>(sh.ranges.size());
  const SlabRows rows(sh.layout);
  const StripGeom geo = strip_geom(sh.ranges, rows.chunk);
  const Count slab_bytes(static_cast<std::int64_t>(geo.max_rows + 2) * rows.row_stride);
  const Count it = Count::sym("iters");
  g.ncores = Count(ncores);
  g.bindings["iters"] = sh.iterations;
  g.bindings["points"] = static_cast<std::int64_t>(sh.iterations) * geo.nrows0 *
                         (sh.layout.width() / rows.chunk);

  g.regions.push_back(ir::RegionDecl{"slab-a", slab_bytes});
  g.regions.push_back(ir::RegionDecl{"slab-b", slab_bytes});
  if (table_bytes > 0) {
    g.regions.push_back(ir::RegionDecl{"weight-table", Count(table_bytes)});
  }
  g.sems = {ir::SemDecl{kSemTopHalo, 0, "sem-top-halo"},
            ir::SemDecl{kSemBottomHalo, 0, "sem-bottom-halo"},
            ir::SemDecl{kSemComputeDm0, 0, "sem-compute-dm0"},
            ir::SemDecl{kSemComputeDm1, 0, "sem-compute-dm1"},
            ir::SemDecl{kSemRestored, 0, "sem-restored"}};
  g.barriers.push_back(ir::BarrierDecl{sh.barrier_id, Count(3 * ncores)});

  KernelModel dm0{prefix + "_dm0", 0, Count(ncores), {}};
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

  KernelModel compute{prefix + "_compute", 2, Count(ncores), {}};
  compute.ops = std::move(compute_prologue);
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
  for (Op& op : chain_ops) compute.ops.push_back(std::move(op));
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputeDm0, it));
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputeDm1, it));
  g.kernels.push_back(std::move(compute));

  KernelModel dm1{prefix + "_dm1", 1, Count(ncores), {}};
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
}

Graph jacobi_sram_graph(const std::shared_ptr<KernelShared>& sh,
                        std::int64_t sram_bytes) {
  Graph g;
  g.name = "jacobi-sram";
  g.sram_bytes = sram_bytes;
  declare_classic_slab_cbs(g);
  sram_protocol(g, *sh, "jacobi_sram", 0, classic_prologue_ops(),
                classic_chain_ops(Count::sym("points")));
  return g;
}

// ---------------------------------------------------------------------------
// Temporal tiling (jacobi_temporal.cpp), classic and general. Loaded /
// Computed / Free(initial 1) circulate per block; dm0+dm1 rendezvous on the
// epoch barrier.
// ---------------------------------------------------------------------------
struct TemporalSizing {
  std::uint32_t row_stride = 0, slab_bytes = 0;
  std::int64_t block_rows = 0;
  int nslabs = 0;
};

TemporalSizing temporal_sizing(std::uint32_t width, std::int64_t height,
                               int depth, int v, int reach, int nslabs) {
  TemporalSizing s;
  s.nslabs = nslabs;
  s.row_stride = slab_row_stride(width);
  const std::uint32_t fixed =
      2 * static_cast<std::uint32_t>((depth - 1) * v + reach);
  const std::int64_t rows_budget =
      static_cast<std::int64_t>(kSlabBudget / s.row_stride) / nslabs -
      static_cast<std::int64_t>(fixed);
  s.block_rows = std::min<std::int64_t>(rows_budget, height);
  if (s.block_rows < 1) {
    TTSIM_THROW_API("temporal depth " << depth << " on a " << width
                    << "-wide domain leaves no room for a row block in the "
                    "1 MiB L1 (" << nslabs << " slabs of " << fixed
                    << "+ skirt rows); lower the depth");
  }
  s.slab_bytes =
      (static_cast<std::uint32_t>(s.block_rows) + fixed) * s.row_stride;
  return s;
}

/// Shared temporal skeleton: CBs/regions/chain ops come from the caller,
/// the Loaded/Computed/Free circulation and the epoch barrier are common.
void temporal_protocol(Graph& g, int ncores, int barrier_id,
                       std::vector<Op> compute_prologue,
                       std::vector<Op> chain_ops) {
  const Count E = Count::sym("epochs");
  const Count EB = Count::sym("epochs") * Count::sym("blocks");
  g.sems = {ir::SemDecl{kSemLoaded, 0, "sem-loaded"},
            ir::SemDecl{kSemComputed, 0, "sem-computed"},
            ir::SemDecl{kSemFree, 1, "sem-free"}};
  g.barriers.push_back(ir::BarrierDecl{barrier_id, Count(2 * ncores)});

  KernelModel dm0{"temporal_reader", 0, Count(ncores), {}};
  dm0.ops.push_back(make_op(OpKind::kSemWait, kSemFree, EB));
  dm0.ops.push_back(flow_op(OpKind::kReadRegion, EB,
                            "block rows + trapezoid skirt per slab"));
  dm0.ops.push_back(make_op(OpKind::kSemPost, kSemLoaded, EB));
  dm0.ops.push_back(make_op(OpKind::kBarrierArrive, barrier_id, E));
  g.kernels.push_back(std::move(dm0));

  KernelModel compute{"temporal_compute", 2, Count(ncores), {}};
  compute.ops = std::move(compute_prologue);
  compute.ops.push_back(make_op(OpKind::kSemWait, kSemLoaded, EB));
  compute.ops.push_back(flow_op(OpKind::kComputeTile, Count::sym("points"),
                                "depth chained sub-steps per block"));
  for (Op& op : chain_ops) compute.ops.push_back(std::move(op));
  compute.ops.push_back(make_op(OpKind::kSemPost, kSemComputed, EB));
  g.kernels.push_back(std::move(compute));

  KernelModel dm1{"temporal_writer", 1, Count(ncores), {}};
  dm1.ops.push_back(make_op(OpKind::kSemWait, kSemComputed, EB));
  dm1.ops.push_back(flow_op(OpKind::kWriteRegion, EB,
                            "final generation rows -> DRAM"));
  dm1.ops.push_back(make_op(OpKind::kSemPost, kSemFree, EB));
  dm1.ops.push_back(make_op(OpKind::kBarrierArrive, barrier_id, E));
  g.kernels.push_back(std::move(dm1));
}

Graph jacobi_temporal_graph(const std::shared_ptr<KernelShared>& sh,
                            std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::uint32_t W = sh->layout.width();
  const std::uint32_t chunk = SlabRows(sh->layout).chunk;
  const StripGeom geo = strip_geom(sh->ranges, chunk);
  // Classic Jacobi: one written+streamed field (2 slabs), v = reach = 1.
  const TemporalSizing siz =
      temporal_sizing(W, sh->layout.height(), sh->temporal_depth, 1, 1, 2);
  const int depth = sh->temporal_depth;
  const std::int64_t E = (sh->iterations + depth - 1) / depth;
  const std::int64_t blocks =
      (geo.nrows0 + siz.block_rows - 1) / siz.block_rows;

  Graph g;
  g.name = "jacobi-temporal";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  g.bindings["iters"] = sh->iterations;
  g.bindings["epochs"] = E;
  g.bindings["blocks"] = blocks;
  // Lower bound: the trapezoid recomputes skirt rows on top of these.
  g.bindings["points"] = static_cast<std::int64_t>(sh->iterations) *
                         geo.nrows0 * (W / chunk);

  declare_classic_slab_cbs(g);
  g.regions.push_back(ir::RegionDecl{"slab-a", Count(siz.slab_bytes)});
  g.regions.push_back(ir::RegionDecl{"slab-b", Count(siz.slab_bytes)});
  temporal_protocol(g, ncores, sh->barrier_id, classic_prologue_ops(),
                    classic_chain_ops(Count::sym("points")));

  return g;
}

// ---------------------------------------------------------------------------
// General radius-1 stencils (stencil_device.cpp / stencil_sram.cpp /
// jacobi_temporal.cpp's general path). Depth stays concrete here — the
// slot count's ceil(depth/nrows_min) term is not polynomial.
// ---------------------------------------------------------------------------
Graph general_rowchunk_graph(const std::shared_ptr<GeneralShared>& sh,
                             std::int64_t sram_bytes) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const int nfields = sh->nfields();
  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  const StripGeom geo = strip_geom(sh->ranges, sh->chunk_elems);
  const std::uint32_t extra = 2 * ((depth + geo.min_rows - 1) / geo.min_rows);
  const std::uint32_t nslots = 2 * depth + 3 + extra;
  const std::uint32_t sbytes = slot_bytes(geo.max_chunk);

  std::vector<char> streamed(static_cast<std::size_t>(nfields), 0);
  bool needs_inter = false, needs_post = false;
  for (const LoweredPass& pass : sh->passes) {
    for (const PassField& pf : pass.reads) {
      streamed[static_cast<std::size_t>(pf.field)] = 1;
    }
    if (pass.terms.size() > 1) needs_inter = true;
    if (pass.post != PostOp::kNone) needs_post = true;
  }

  Graph g;
  g.name = "stencil-rowchunk";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  const Count it = Count::sym("iters");
  const Count P = Count::sym("points");
  g.bindings["iters"] = sh->iterations;
  g.bindings["points"] = static_cast<std::int64_t>(sh->iterations) *
                         geo.nrows0 * geo.ncols0;
  g.bindings["columns"] = geo.ncols0;

  for (int f = 0; f < nfields; ++f) {
    if (streamed[static_cast<std::size_t>(f)]) {
      declare_cb(g, kCbFieldBase + f, Count(depth), kTileBytes,
                 "cb-field" + std::to_string(f));
    }
  }
  declare_chain_cbs(g, needs_inter, needs_post, 4);
  g.regions.push_back(ir::RegionDecl{
      "row-slots",
      Count(static_cast<std::int64_t>(nfields) * nslots * sbytes)});
  g.regions.push_back(ir::RegionDecl{
      "weight-table",
      Count(static_cast<std::int64_t>(sh->weights.size()) * kTileBytes)});
  g.barriers.push_back(ir::BarrierDecl{sh->barrier_id, Count(2 * ncores)});

  // One ring per (pass, read field): same slot rotation, but each field's
  // window [lo, hi] bounds its own reuse distance. The +extra slots absorb
  // the reader's cross-column run-ahead when strips have fewer rows than
  // the read-ahead depth.
  KernelModel reader{"stencil_reader", 0, Count(ncores), {}};
  KernelModel compute{"stencil_compute", 2, Count(ncores), {}};
  KernelModel writer{"stencil_writer", 1, Count(ncores), {}};
  const auto npasses = static_cast<std::int64_t>(sh->passes.size());
  for (std::int64_t p = 0; p < npasses; ++p) {
    const LoweredPass& pass = sh->passes[static_cast<std::size_t>(p)];
    reader.ops.push_back(flow_op(OpKind::kReadRegion, P,
                                 "pass " + std::to_string(p) +
                                     " row batches, depth in flight"));
    for (const PassField& pf : pass.reads) {
      const int ring = static_cast<int>(g.rings.size());
      g.rings.push_back(ir::RingDecl{
          "pass" + std::to_string(p) + "-field" + std::to_string(pf.field),
          Count(nslots), Count(depth - 1 + pf.hi), Count(depth), pf.lo, pf.hi,
          Count(extra), true, Count::sym("columns")});
      reader.ops.push_back(
          make_op(OpKind::kCbReserve, kCbFieldBase + pf.field, P));
      reader.ops.push_back(make_op(OpKind::kRingWrite, ring, P));
      compute.ops.push_back(make_op(OpKind::kRingRead, ring, P));
    }
    for (const PassField& pf : pass.reads) {
      reader.ops.push_back(
          make_op(OpKind::kCbPush, kCbFieldBase + pf.field, P));
    }
    reader.ops.push_back(make_op(OpKind::kBarrierArrive, sh->barrier_id, it));

    for (const PassField& pf : pass.reads) {
      compute.ops.push_back(
          make_op(OpKind::kCbWait, kCbFieldBase + pf.field, P));
    }
    compute.ops.push_back(flow_op(OpKind::kComputeTile, P,
                                  "pass " + std::to_string(p) +
                                      " tap chain per chunk"));
    append_chain_ops(compute.ops, pass, P);
    compute.ops.push_back(make_op(OpKind::kCbReserve, kCbGOut, P));
    compute.ops.push_back(make_op(OpKind::kCbPush, kCbGOut, P));
    for (const PassField& pf : pass.reads) {
      compute.ops.push_back(
          make_op(OpKind::kCbPop, kCbFieldBase + pf.field, P));
    }

    writer.ops.push_back(make_op(OpKind::kCbWait, kCbGOut, P));
    writer.ops.push_back(flow_op(OpKind::kWriteRegion, P,
                                 "pass " + std::to_string(p) +
                                     " interior chunks"));
    writer.ops.push_back(make_op(OpKind::kCbPop, kCbGOut, P));
    writer.ops.push_back(make_op(OpKind::kBarrierArrive, sh->barrier_id, it));
  }
  g.kernels.push_back(std::move(reader));
  g.kernels.push_back(std::move(compute));
  g.kernels.push_back(std::move(writer));

  return g;
}

Graph general_sram_graph(const std::shared_ptr<GeneralShared>& sh,
                         std::int64_t sram_bytes) {
  TTSIM_CHECK(sh->nfields() == 1 && sh->passes.size() == 1);
  const LoweredPass& pass = sh->passes.front();
  Graph g;
  g.name = "stencil-sram";
  g.sram_bytes = sram_bytes;
  declare_cb(g, kCbFieldBase, Count(1), kTileBytes, "cb-field0");  // alias
  declare_chain_cbs(g, pass.terms.size() > 1, pass.post != PostOp::kNone, 1);
  std::vector<Op> chain;
  append_chain_ops(chain, pass, Count::sym("points"));
  sram_protocol(g, *sh, "stencil_sram",
                static_cast<std::int64_t>(sh->weights.size()) * kTileBytes, {},
                std::move(chain));
  return g;
}

Graph general_temporal_graph(const std::shared_ptr<GeneralShared>& sh,
                             std::int64_t sram_bytes) {
  TTSIM_CHECK(sh->passes.size() == 1);
  const int ncores = static_cast<int>(sh->ranges.size());
  const int nfields = sh->nfields();
  const LoweredPass& pass = sh->passes.front();
  const int wf = pass.target;
  const std::uint32_t W = sh->layout.width();
  const std::uint32_t chunk = SlabRows(sh->layout).chunk;
  const StripGeom geo = strip_geom(sh->ranges, chunk);

  std::vector<char> streamed(static_cast<std::size_t>(nfields), 0);
  for (const PassField& pf : pass.reads) {
    streamed[static_cast<std::size_t>(pf.field)] = 1;
  }
  streamed[static_cast<std::size_t>(wf)] = 1;
  int v = 0, reach = 0;
  for (const LoweredTerm& t : pass.terms) {
    const int adr = t.dr < 0 ? -t.dr : t.dr;
    if (t.field == wf) v = std::max(v, adr);
    reach = std::max(reach, adr);
  }
  reach = std::max(reach, v);
  int nslabs = 0;
  for (int f = 0; f < nfields; ++f) {
    if (streamed[static_cast<std::size_t>(f)]) nslabs += f == wf ? 2 : 1;
  }
  const TemporalSizing siz = temporal_sizing(
      W, sh->layout.height(), sh->temporal_depth, v, reach, nslabs);
  const int depth = sh->temporal_depth;
  const std::int64_t E = (sh->iterations + depth - 1) / depth;
  const std::int64_t blocks =
      (geo.nrows0 + siz.block_rows - 1) / siz.block_rows;

  Graph g;
  g.name = "stencil-temporal";
  g.ncores = Count(ncores);
  g.sram_bytes = sram_bytes;
  g.bindings["iters"] = sh->iterations;
  g.bindings["epochs"] = E;
  g.bindings["blocks"] = blocks;
  g.bindings["points"] = static_cast<std::int64_t>(sh->iterations) *
                         geo.nrows0 * (W / chunk);

  for (int f = 0; f < nfields; ++f) {
    if (streamed[static_cast<std::size_t>(f)]) {
      declare_cb(g, kCbFieldBase + f, Count(1), kTileBytes,
                 "cb-field" + std::to_string(f));  // alias vehicle
    }
  }
  declare_chain_cbs(g, pass.terms.size() > 1, pass.post != PostOp::kNone, 1);
  g.regions.push_back(ir::RegionDecl{
      "weight-table",
      Count(static_cast<std::int64_t>(sh->weights.size()) * kTileBytes)});
  for (int f = 0; f < nfields; ++f) {
    if (!streamed[static_cast<std::size_t>(f)]) continue;
    g.regions.push_back(ir::RegionDecl{"slab-a-field" + std::to_string(f),
                                       Count(siz.slab_bytes)});
    if (f == wf) {
      g.regions.push_back(ir::RegionDecl{"slab-b-field" + std::to_string(f),
                                         Count(siz.slab_bytes)});
    }
  }

  const Count P = Count::sym("points");
  std::vector<Op> chain;
  append_chain_ops(chain, pass, P);
  temporal_protocol(g, ncores, sh->barrier_id, {}, std::move(chain));

  return g;
}

}  // namespace

ir::Graph make_jacobi_graph(std::shared_ptr<KernelShared> sh,
                            std::int64_t sram_bytes) {
  Graph g;
  switch (sh->strategy) {
    case DeviceStrategy::kRowChunk:
      g = jacobi_rowchunk_graph(sh, sram_bytes);
      break;
    case DeviceStrategy::kSramResident:
      g = jacobi_sram_graph(sh, sram_bytes);
      break;
    case DeviceStrategy::kTemporal:
      g = jacobi_temporal_graph(sh, sram_bytes);
      break;
    default:
      TTSIM_CHECK_MSG(false, "no IR model of " << to_string(sh->strategy));
  }
  require_sram_fit(g);
  g.emit = [sh](ttmetal::Program& prog) { build_jacobi_program(prog, sh); };
  return g;
}

ir::Graph make_general_graph(std::shared_ptr<GeneralShared> sh,
                             std::int64_t sram_bytes) {
  Graph g;
  switch (sh->strategy) {
    case DeviceStrategy::kRowChunk:
      g = general_rowchunk_graph(sh, sram_bytes);
      break;
    case DeviceStrategy::kSramResident:
      g = general_sram_graph(sh, sram_bytes);
      break;
    case DeviceStrategy::kTemporal:
      g = general_temporal_graph(sh, sram_bytes);
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
  detail::validate_launch(p, cfg, detail::Surface::kCertified, 0);
  return detail::make_jacobi_graph(
      detail::resolve_jacobi(p, cfg, detail::requested_cores(cfg), kDummyBase,
                             kDummyBase + kDummyStep),
      sram_bytes);
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
