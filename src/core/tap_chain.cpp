/// \file tap_chain.cpp
/// The tap chain's side of the three skeletons (row-chunk, SRAM-resident,
/// temporal): its CB list and the IR transcript of emit_tap_chain. Also
/// the temporal geometry the temporal builder and its IR model share.

#include <algorithm>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {
namespace {

using ir::Count;
using ir::Op;
using ir::OpKind;

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

/// Terms after the seed that carry a weight (each parks a product in
/// kCbGTmp).
std::int64_t later_weighted(const LoweredPass& pass) {
  return std::count_if(pass.terms.begin() + static_cast<std::ptrdiff_t>(pass.seed_terms()),
                       pass.terms.end(), [](const LoweredTerm& t) { return !t.unit(); });
}

}  // namespace

/// Per point: kCbGInter one waited leg per later term and per scale, plus
/// an unwaited reserve/push/pop for a leading unit pair's aliased operand;
/// kCbGTmp one leg per later weighted term and two with Life; kCbGTmp2 two
/// with Life.
std::vector<Op> tap_chain_ops(const LoweredPass& pass, const Count& P) {
  const bool life = pass.post == PostOp::kLife;
  const auto seed = static_cast<std::int64_t>(pass.seed_terms());
  const std::int64_t legs = static_cast<std::int64_t>(pass.terms.size()) - seed +
                            (pass.post == PostOp::kScale ? 1 : 0);
  std::vector<Op> ops;
  auto leg_ops = [&](int cb, std::int64_t moved, std::int64_t waited) {
    for (const auto& [kind, n] : {std::pair{OpKind::kCbReserve, moved},
                                  std::pair{OpKind::kCbPush, moved},
                                  std::pair{OpKind::kCbWait, waited},
                                  std::pair{OpKind::kCbPop, moved}}) {
      if (n > 0) ops.emplace_back(kind, cb, Count(n) * P);
    }
  };
  const std::int64_t tmp = later_weighted(pass) + (life ? 2 : 0);
  leg_ops(kCbGTmp, tmp, tmp);
  leg_ops(kCbGInter, legs + (seed == 2 ? 1 : 0), legs);
  leg_ops(kCbGTmp2, life ? 2 : 0, life ? 2 : 0);
  return ops;
}

std::vector<CbSpec> tap_chain_cbs(const GeneralShared& sh, std::uint32_t field_pages,
                                  std::uint32_t out_pages) {
  bool inter = false, tmp = false, life = false;
  for (const LoweredPass& pass : sh.passes) {
    inter = inter || pass.terms.size() > 1 || pass.post == PostOp::kScale;
    life = life || pass.post == PostOp::kLife;
    tmp = tmp || pass.post == PostOp::kLife || later_weighted(pass) > 0;
  }
  const std::vector<char> fields = is_slab(sh.strategy)
                                       ? slab_fields(sh.passes.at(0), sh.nfields())
                                       : streamed_fields(sh);
  std::vector<CbSpec> cbs;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (fields[f]) {
      cbs.push_back({kCbFieldBase + static_cast<int>(f), field_pages,
                     "cb-field" + std::to_string(f)});
    }
  }
  if (!sh.weights.empty()) cbs.push_back({kCbWgt, 1, "cb-wgt"});  // alias vehicle
  // The accumulators never leave the compute kernel.
  auto local = [](int id, const char* name) {
    return CbSpec{.id = id, .pages = 2, .name = name, .kernel_local = true};
  };
  if (inter) cbs.push_back(local(kCbGInter, "cb-ginter"));
  if (tmp) cbs.push_back(local(kCbGTmp, "cb-gtmp"));
  if (life) cbs.push_back(local(kCbGTmp2, "cb-gtmp2"));
  cbs.push_back({kCbGOut, out_pages, "cb-gout"});
  return cbs;
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
