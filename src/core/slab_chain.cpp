/// \file slab_chain.cpp
/// The slab strategies' per-point chains (SlabChain): classic Jacobi's
/// chain and the general tap chain, each with its CBs, weight table,
/// compute prologue, per-point emission and the IR transcript of both.
/// Also the two general-program views the slab skeletons start from: the
/// classic Jacobi launch as a one-field, one-pass program, and the
/// temporal geometry.

#include <algorithm>
#include <utility>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

using ir::Count;
using ir::Op;
using ir::OpKind;

/// Classic Jacobi on slab rows: ((xm + xp) + ym + yp) * 0.25, every operand
/// aliased out of the source slab and every intermediate through the
/// kCbInter accumulator, in the row-chunk program's op order.
class ClassicChain final : public SlabChain {
 public:
  std::string label() const override { return "jacobi"; }

  /// The scalar page, the kCbInter accumulator pair and kCbOut, the alias
  /// vehicle of both the xm reads and the pack (never pushed).
  std::vector<CbSpec> cbs() const override {
    return {{kCbScalar, 1, "cb-scalar"}, {kCbInter, 2, "cb-inter"}, {kCbOut, 1, "cb-out"}};
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

  void emit_point(ttmetal::ComputeCtx& ctx, const SlabRows& s, std::uint32_t /*wtab*/,
                  std::span<const std::uint32_t> src, std::uint32_t dst,
                  std::uint32_t lr, std::uint32_t c0) const override {
    constexpr int dst0 = 0;
    // Lanes past the chunk are don't-care; declaring that keeps the host
    // from computing them.
    const std::uint32_t valid = s.chunk * 2;
    const std::uint32_t row_c = s.row_data(src[0], lr) + c0 * 2;
    const std::uint32_t row_n = s.row_data(src[0], lr - 1) + c0 * 2;
    const std::uint32_t row_s = s.row_data(src[0], lr + 1) + c0 * 2;
    // xm at elem c0 (global col c0-1), xp at elem c0+2: the first add needs
    // two distinct CB handles, so xp aliases through the inter CB.
    ctx.cb_set_rd_ptr(kCbOut, row_c, valid);  // reuse out cb as xm vehicle
    ctx.cb_reserve_back(kCbInter, 1);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_set_rd_ptr(kCbInter, row_c + 4, valid);  // xp
    ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);

    ctx.cb_reserve_back(kCbInter, 1);
    ctx.pack_tile(dst0, kCbInter);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_set_rd_ptr(kCbOut, row_n + 2, valid);  // ym
    ctx.cb_wait_front(kCbInter, 1);
    ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);

    ctx.cb_reserve_back(kCbInter, 1);
    ctx.pack_tile(dst0, kCbInter);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_set_rd_ptr(kCbOut, row_s + 2, valid);  // yp
    ctx.cb_wait_front(kCbInter, 1);
    ctx.add_tiles(kCbOut, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);

    ctx.cb_reserve_back(kCbInter, 1);
    ctx.pack_tile(dst0, kCbInter);
    ctx.cb_push_back(kCbInter, 1);
    ctx.cb_wait_front(kCbScalar, 1);
    ctx.cb_wait_front(kCbInter, 1);
    ctx.mul_tiles(kCbScalar, kCbInter, 0, 0, dst0);
    ctx.cb_pop_front(kCbInter, 1);

    // Pack straight into the destination slab row (interior col c0 = data
    // elem c0+1). On the simulated clock the pack's unused lanes spill past
    // the interior into R and the pad; the host stores only the chunk.
    ctx.cb_set_wr_ptr(kCbOut, s.row_data(dst, lr) + (c0 + 1) * 2);
    ctx.pack_tile(dst0, kCbOut);
  }

  /// 4 reserve/push/pop legs through cb-inter, 3 of them waited (the first
  /// add aliases the freshly pushed page without waiting); the last leg
  /// also waits the scalar page.
  std::vector<Op> point_ops(const Count& P) const override {
    return {Op(OpKind::kCbReserve, kCbInter, Count(4) * P),
            Op(OpKind::kCbPush, kCbInter, Count(4) * P),
            Op(OpKind::kCbWait, kCbInter, Count(3) * P),
            Op(OpKind::kCbWait, kCbScalar, P),
            Op(OpKind::kCbPop, kCbInter, Count(4) * P)};
  }
};

/// A general single-pass program: emit_tap_chain over the weight table,
/// each held field's CB a read-alias vehicle and kCbGOut the pack's
/// write-alias vehicle (alias CBs are never pushed; the accumulator CBs
/// carry real pages).
class TapChain final : public SlabChain {
 public:
  TapChain(LoweredPass pass, std::vector<float> weights, std::vector<char> fields)
      : pass_(std::move(pass)), weights_(std::move(weights)), fields_(std::move(fields)) {}

  std::string label() const override { return "stencil"; }

  std::vector<CbSpec> cbs() const override {
    return general_cbs(fields_, 1, pass_.terms.size() > 1, pass_.post != PostOp::kNone, 1);
  }

  std::uint32_t table_bytes() const override {
    return static_cast<std::uint32_t>(weights_.size()) * kTileBytes;
  }

  void prologue(ttmetal::ComputeCtx& ctx, std::uint32_t wtab) const override {
    ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
    fill_weight_table(ctx, wtab, weights_);
  }

  std::vector<Op> prologue_ops() const override { return {}; }

  void emit_point(ttmetal::ComputeCtx& ctx, const SlabRows& s, std::uint32_t wtab,
                  std::span<const std::uint32_t> src, std::uint32_t dst,
                  std::uint32_t lr, std::uint32_t c0) const override {
    // Tap alias: field f's slab row lr+dr, data elem c0+1+dc (elem 0 is L,
    // the boundary column).
    auto tap_at = [&](int f, int dr, int dc) {
      return s.row_data(src[static_cast<std::size_t>(f)],
                        static_cast<std::uint32_t>(static_cast<int>(lr) + dr)) +
             c0 * 2 + static_cast<std::uint32_t>(2 + 2 * dc);
    };
    emit_tap_chain(ctx, wtab, pass_, s.chunk * 2, tap_at, [&](int reg) {
      // Pack straight into the destination slab row (interior col c0 =
      // data elem c0+1).
      ctx.cb_set_wr_ptr(kCbGOut, s.row_data(dst, lr) + (c0 + 1) * 2);
      ctx.pack_tile(reg, kCbGOut);
    });
  }

  std::vector<Op> point_ops(const Count& P) const override {
    return tap_chain_ops(pass_, P);
  }

 private:
  LoweredPass pass_;
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

}  // namespace

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

std::vector<CbSpec> general_cbs(const std::vector<char>& streamed,
                                std::uint32_t field_pages, bool inter, bool post,
                                std::uint32_t out_pages) {
  std::vector<CbSpec> cbs;
  for (std::size_t f = 0; f < streamed.size(); ++f) {
    if (streamed[f]) {
      cbs.push_back({kCbFieldBase + static_cast<int>(f), field_pages,
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

std::shared_ptr<const SlabChain> make_tap_chain(const GeneralShared& sh) {
  TTSIM_CHECK(sh.passes.size() == 1);
  return std::make_shared<TapChain>(sh.passes[0], sh.weights,
                                    slab_fields(sh.passes[0], sh.nfields()));
}

std::shared_ptr<GeneralShared> classic_slab_program(const KernelShared& sh) {
  TTSIM_CHECK(is_slab(sh.strategy));
  auto g = std::make_shared<GeneralShared>(sh.layout);
  g->iterations = sh.iterations;
  g->strategy = sh.strategy;
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
  g->chain = std::make_shared<ClassicChain>();
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
