/// \file point_chain.cpp
/// The per-point chains (PointChain) the row-chunk, SRAM-resident and
/// temporal skeletons drive: classic Jacobi's chain and the general tap
/// chain, each with its CBs, weight table, compute prologue, per-point
/// emission and the IR transcript of both. Also the two general-program
/// views the skeletons start from: the classic Jacobi launch as a
/// one-field, one-pass program, and the temporal geometry.

#include <algorithm>
#include <utility>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

using ir::Count;
using ir::Op;
using ir::OpKind;

/// Classic Jacobi: ((xm + xp) + ym + yp) * 0.25, every operand aliased out
/// of the source rows and every intermediate through the kCbInter
/// accumulator. The first add needs two distinct CB handles, so xp aliases
/// through kCbInter; xm, ym and yp alias through the read vehicle: the
/// field's stream CB on row-chunk, where kCbOut is a managed page the
/// writer reads, and kCbOut on the slab strategies, where it is only the
/// pack's write-alias vehicle.
class ClassicChain final : public PointChain {
 public:
  explicit ClassicChain(bool streamed)
      : streamed_(streamed), read_cb_(streamed ? kCbFieldBase : kCbOut) {}

  std::string label() const override { return "jacobi"; }

  /// The field's stream CB (row-chunk only), the scalar page, the kCbInter
  /// accumulator pair and kCbOut.
  std::vector<CbSpec> cbs(std::uint32_t stream_pages,
                          std::uint32_t out_pages) const override {
    std::vector<CbSpec> cbs;
    if (streamed_) cbs.push_back({kCbFieldBase, stream_pages, "cb-field0"});
    cbs.push_back({kCbScalar, 1, "cb-scalar"});
    cbs.push_back({kCbInter, 2, "cb-inter"});
    cbs.push_back({kCbOut, out_pages, "cb-out"});
    return cbs;
  }

  std::uint32_t table_bytes() const override { return 0; }

  void prologue(ttmetal::ComputeCtx& ctx, std::uint32_t /*wtab*/) const override {
    fill_scalar_page(ctx, kCbScalar, 0.25f);
  }

  /// fill_scalar_page's reserve/push of the scalar page.
  std::vector<Op> prologue_ops() const override {
    return {Op(OpKind::kCbReserve, kCbScalar, Count(1)),
            Op(OpKind::kCbPush, kCbScalar, Count(1))};
  }

  void emit_point(ttmetal::ComputeCtx& ctx, std::size_t /*pass*/, std::uint32_t /*wtab*/,
                  std::uint32_t valid, TapAddr tap_at, PackTile pack) const override {
    constexpr int dst0 = 0;
    ctx.cb_set_rd_ptr(read_cb_, tap_at(0, 0, -1), valid);  // xm
    ctx.cb_reserve_back(kCbInter, 1);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_set_rd_ptr(kCbInter, tap_at(0, 0, 1), valid);  // xp
    ctx.add_tiles(read_cb_, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);

    for (const int dr : {-1, 1}) {  // + ym, + yp
      ctx.cb_reserve_back(kCbInter, 1);
      ctx.pack_tile(dst0, kCbInter);
      ctx.cb_push_back(kCbInter, 1);
      ctx.cb_set_rd_ptr(read_cb_, tap_at(0, dr, 0), valid);
      ctx.cb_wait_front(kCbInter, 1);
      ctx.add_tiles(read_cb_, kCbInter, 0, 0, dst0);
      ctx.cb_pop_front(kCbInter, 1);
    }

    ctx.cb_reserve_back(kCbInter, 1);
    ctx.pack_tile(dst0, kCbInter);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_wait_front(kCbScalar, 1);
    ctx.cb_wait_front(kCbInter, 1);
    ctx.mul_tiles(kCbScalar, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);
    pack(dst0);
  }

  /// 4 reserve/push/pop legs through cb-inter, 3 of them waited (the first
  /// add aliases the freshly pushed page without waiting); the last leg
  /// also waits the scalar page.
  std::vector<Op> point_ops(std::size_t /*pass*/, const Count& P) const override {
    return {Op(OpKind::kCbReserve, kCbInter, Count(4) * P),
            Op(OpKind::kCbPush, kCbInter, Count(4) * P),
            Op(OpKind::kCbWait, kCbInter, Count(3) * P),
            Op(OpKind::kCbWait, kCbScalar, P),
            Op(OpKind::kCbPop, kCbInter, Count(4) * P)};
  }

 private:
  bool streamed_;
  int read_cb_;
};

/// Protocol ops of `points` emit_tap_chain calls on `pass` (the IR
/// transcript). Totals per point (t = #terms): kCbGInter: t-1 of each op;
/// kCbGTmp: t+1 with a post-op else t-1; kCbGTmp2: 2 with a post-op. All
/// traffic is compute-local.
std::vector<Op> tap_chain_ops(const LoweredPass& pass, const Count& P) {
  const auto t = static_cast<std::int64_t>(pass.terms.size());
  const bool post = pass.post != PostOp::kNone;
  std::vector<Op> ops;
  auto quad = [&](int cb, std::int64_t per_point) {
    if (per_point <= 0) return;
    const Count c = Count(per_point) * P;
    for (OpKind k : {OpKind::kCbReserve, OpKind::kCbPush, OpKind::kCbWait, OpKind::kCbPop}) {
      ops.emplace_back(k, cb, c);
    }
  };
  quad(kCbGTmp, post ? t + 1 : t - 1);
  quad(kCbGInter, t - 1);
  quad(kCbGTmp2, post ? 2 : 0);
  return ops;
}

/// A general program: emit_tap_chain over the weight table, each field's
/// CB the taps' read-alias vehicle (a stream on row-chunk), the
/// accumulator CBs carrying real pages.
class TapChain final : public PointChain {
 public:
  TapChain(std::vector<LoweredPass> passes, std::vector<float> weights,
           std::vector<char> fields)
      : passes_(std::move(passes)), weights_(std::move(weights)), fields_(std::move(fields)) {}

  std::string label() const override { return "stencil"; }

  /// One CB per field in `fields_`, the weight alias vehicle, the
  /// accumulators some pass's chain uses (kCbGInter with more than one
  /// term, kCbGTmp2 with a post-op, kCbGTmp with either) and the output CB.
  std::vector<CbSpec> cbs(std::uint32_t stream_pages,
                          std::uint32_t out_pages) const override {
    bool inter = false, post = false;
    for (const LoweredPass& pass : passes_) {
      inter = inter || pass.terms.size() > 1;
      post = post || pass.post != PostOp::kNone;
    }
    std::vector<CbSpec> cbs;
    for (std::size_t f = 0; f < fields_.size(); ++f) {
      if (fields_[f]) {
        cbs.push_back({kCbFieldBase + static_cast<int>(f), stream_pages,
                       "cb-field" + std::to_string(f)});
      }
    }
    cbs.push_back({kCbWgt, 1, "cb-wgt"});  // alias vehicle
    if (inter) cbs.push_back({kCbGInter, 2, "cb-ginter"});
    if (inter || post) cbs.push_back({kCbGTmp, 2, "cb-gtmp"});
    if (post) cbs.push_back({kCbGTmp2, 2, "cb-gtmp2"});
    cbs.push_back({kCbGOut, out_pages, "cb-gout"});
    return cbs;
  }

  std::uint32_t table_bytes() const override {
    return static_cast<std::uint32_t>(weights_.size()) * kTileBytes;
  }

  void prologue(ttmetal::ComputeCtx& ctx, std::uint32_t wtab) const override {
    ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
    fill_weight_table(ctx, wtab, weights_);
  }

  std::vector<Op> prologue_ops() const override { return {}; }

  void emit_point(ttmetal::ComputeCtx& ctx, std::size_t pass, std::uint32_t wtab,
                  std::uint32_t valid, TapAddr tap_at, PackTile pack) const override {
    emit_tap_chain(ctx, wtab, passes_[pass], valid, tap_at, pack);
  }

  std::vector<Op> point_ops(std::size_t pass, const Count& P) const override {
    return tap_chain_ops(passes_[pass], P);
  }

 private:
  std::vector<LoweredPass> passes_;
  std::vector<float> weights_;
  std::vector<char> fields_;
};

/// Per field, 1 when a slab program holds it in L1: the fields the pass
/// reads, and the one it writes.
std::vector<char> slab_fields(const LoweredPass& pass, int nfields) {
  std::vector<char> held(static_cast<std::size_t>(nfields), 0);
  for (const PassField& pf : pass.reads) held[static_cast<std::size_t>(pf.field)] = 1;
  held[static_cast<std::size_t>(pass.target)] = 1;
  return held;
}

/// Per field, 1 when some pass of a row-chunk program streams it.
std::vector<char> streamed_fields(const GeneralShared& sh) {
  std::vector<char> streamed(static_cast<std::size_t>(sh.nfields()), 0);
  for (const LoweredPass& pass : sh.passes) {
    for (const PassField& pf : pass.reads) streamed[static_cast<std::size_t>(pf.field)] = 1;
  }
  return streamed;
}

}  // namespace

std::shared_ptr<const PointChain> make_tap_chain(const GeneralShared& sh) {
  if (is_slab(sh.strategy)) {
    TTSIM_CHECK(sh.passes.size() == 1);
    return std::make_shared<TapChain>(sh.passes, sh.weights,
                                      slab_fields(sh.passes[0], sh.nfields()));
  }
  return std::make_shared<TapChain>(sh.passes, sh.weights, streamed_fields(sh));
}

std::shared_ptr<GeneralShared> classic_program(const KernelShared& sh) {
  TTSIM_CHECK(!is_tiled(sh.strategy));
  auto g = std::make_shared<GeneralShared>(sh.layout);
  g->iterations = sh.iterations;
  g->strategy = sh.strategy;
  g->chunk_elems = sh.chunk_elems;
  g->read_ahead = sh.read_ahead;
  g->temporal_depth = sh.temporal_depth;
  g->d1 = {sh.d1};
  g->d2 = {sh.d2};
  g->written_pass = {0};
  LoweredPass pass;
  pass.terms = {{0, 0, -1, 0}, {0, 0, 1, 0}, {0, -1, 0, 0}, {0, 1, 0, 0}};
  pass.reads = {{0, -1, 1}};
  g->passes = {std::move(pass)};
  g->ranges = sh.ranges;
  g->core_ids = sh.core_ids;
  g->barrier_id = sh.barrier_id;
  g->chain = std::make_shared<ClassicChain>(sh.strategy == DeviceStrategy::kRowChunk);
  return g;
}

TemporalGeometry temporal_geometry(const GeneralShared& sh) {
  TTSIM_CHECK(sh.passes.size() == 1);
  const LoweredPass& pass = sh.passes[0];
  TemporalGeometry geo;
  geo.streamed = slab_fields(pass, sh.nfields());
  // Trapezoid shrink v: the written field's vertical reach (only its rows
  // age between sub-steps). Skirt reach: the widest vertical tap of any
  // field, so one load extent serves every slab.
  for (const LoweredTerm& t : pass.terms) {
    const int adr = t.dr < 0 ? -t.dr : t.dr;
    if (t.field == pass.target) geo.v = std::max(geo.v, adr);
    geo.reach = std::max(geo.reach, adr);
  }
  for (std::size_t f = 0; f < geo.streamed.size(); ++f) {
    if (geo.streamed[f]) geo.nslabs += static_cast<int>(f) == pass.target ? 2 : 1;
  }
  TTSIM_CHECK(geo.nslabs >= 2);
  const std::uint32_t W = sh.layout.width();
  const std::uint32_t fixed =
      2 * static_cast<std::uint32_t>((sh.temporal_depth - 1) * geo.v + geo.reach);
  const std::int64_t rows_budget =
      static_cast<std::int64_t>(kSlabBudget / slab_row_stride(W)) / geo.nslabs -
      static_cast<std::int64_t>(fixed);
  const std::int64_t B = std::min<std::int64_t>(rows_budget, sh.layout.height());
  if (B < 1) {
    TTSIM_THROW_API("temporal depth " << sh.temporal_depth << " on a " << W
                    << "-wide domain leaves no room for a row block in the "
                    "1 MiB L1 (" << geo.nslabs << " slabs of "
                    << fixed << "+ skirt rows); lower the depth");
  }
  geo.block_rows = static_cast<std::uint32_t>(B);
  geo.slab_rows = geo.block_rows + fixed;
  return geo;
}

}  // namespace ttsim::core::detail
