/// \file test_ir_cross.cpp
/// Cross-validation between the static protocol checker and the dynamic
/// detectors (race detector + deadlock diagnoser):
///   * every graph the frontend certifies lowers to a program that runs
///     CLEAN under the dynamic race detector — the static proof is not
///     vacuous, it certifies exactly the programs the runtime agrees are
///     race-free;
///   * the broken-kernel classes the tests/verify gallery catches at run
///     time are, where the IR can express them, rejected STATICALLY —
///     before a device is ever opened.

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ttsim/core/field_grids.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/check.hpp"
#include "ttsim/ir/lower.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/verify/lint.hpp"
#include "ttsim/verify/race.hpp"

namespace ttsim {
namespace {

using core::DeviceRunConfig;
using core::DeviceStrategy;
using verify::LintError;

std::string render(const std::vector<verify::Finding>& fs) {
  std::ostringstream os;
  for (const auto& f : fs) {
    os << verify::to_string(f.kind) << " core " << f.core << ": " << f.what
       << "\n";
  }
  return os.str();
}

core::JacobiProblem jacobi_problem(std::uint32_t w = 64, std::uint32_t h = 64,
                                   int iters = 2) {
  core::JacobiProblem p;
  p.width = w;
  p.height = h;
  p.iterations = iters;
  return p;
}

// ---- certified graphs: static check clean, dynamic detector clean -----

TEST(IrCross, JacobiGraphsCertifyCleanAcrossStrategiesAndDepths) {
  for (const DeviceStrategy s :
       {DeviceStrategy::kRowChunk, DeviceStrategy::kSramResident,
        DeviceStrategy::kTemporal}) {
    DeviceRunConfig cfg;
    cfg.strategy = s;
    cfg.cores_y = 4;
    const auto g = core::jacobi_ir_graph(jacobi_problem(), cfg);
    const auto fs = ir::check(g);
    EXPECT_TRUE(fs.empty()) << core::to_string(s) << ":\n"
                            << verify::format_lint(fs);
  }
  // The row-chunk graph binds the read-ahead depth concretely (its slot
  // count's ceil(depth/nrows_min) term is not polynomial): certify each
  // depth in [2, 8].
  for (int depth = 2; depth <= 8; ++depth) {
    DeviceRunConfig cfg;
    cfg.read_ahead = depth;
    const auto fs = ir::check(core::jacobi_ir_graph(jacobi_problem(), cfg));
    EXPECT_TRUE(fs.empty()) << "depth " << depth << ":\n"
                            << verify::format_lint(fs);
  }
}

TEST(IrCross, GalleryGraphsCertifyCleanAcrossStrategies) {
  for (const auto& entry : core::gallery::suite()) {
    for (const DeviceStrategy s :
         {DeviceStrategy::kRowChunk, DeviceStrategy::kSramResident,
          DeviceStrategy::kTemporal}) {
      if (s != DeviceStrategy::kRowChunk && entry.problem.passes.size() > 1) {
        continue;  // the device driver itself rejects these configs
      }
      if (s == DeviceStrategy::kSramResident &&
          entry.problem.fields.size() > 1) {
        continue;
      }
      DeviceRunConfig cfg;
      cfg.strategy = s;
      const auto fs =
          ir::check(core::general_ir_graph(entry.problem, cfg));
      EXPECT_TRUE(fs.empty()) << entry.name << " / " << core::to_string(s)
                              << ":\n" << verify::format_lint(fs);
    }
  }
}

TEST(IrCross, CertifiedLoweringRunsCleanUnderTheDynamicRaceDetector) {
  struct Case {
    DeviceStrategy strategy;
    int read_ahead, cores_y;
  };
  // Each strategy on two cores.
  for (const Case& c : {Case{DeviceStrategy::kRowChunk, 2, 2},
                        Case{DeviceStrategy::kSramResident, 2, 2},
                        Case{DeviceStrategy::kTemporal, 2, 2}}) {
    ttmetal::DeviceConfig dc;
    dc.enable_verify = true;
    auto dev = ttmetal::Device::open({}, dc);
    DeviceRunConfig cfg;
    cfg.strategy = c.strategy;
    cfg.read_ahead = c.read_ahead;
    cfg.cores_y = c.cores_y;
    const auto r = core::run_jacobi_on_device(*dev, jacobi_problem(), cfg);
    const auto fs = dev->verifier()->findings();
    EXPECT_TRUE(fs.empty()) << core::to_string(c.strategy) << " read_ahead "
                            << c.read_ahead << " cores_y " << c.cores_y
                            << ":\n" << render(fs);
    EXPECT_FALSE(r.solution.empty());
  }
}

TEST(IrCross, IrAndHandWiredPathsAgreeUnderTheRaceDetector) {
  // A single solve is certified, then lowered; a batched launch calls the
  // same hand-wired builder with no proof. Same program bits, same solution,
  // same (absent) findings: the IR path adds proof, not behaviour.
  const core::JacobiProblem p = jacobi_problem();
  DeviceRunConfig cfg;
  cfg.read_ahead = 4;
  cfg.cores_y = 4;
  ttmetal::DeviceConfig dc;
  dc.enable_verify = true;

  auto ir_dev = ttmetal::Device::open({}, dc);
  const auto r = core::run_jacobi_on_device(*ir_dev, p, cfg);
  EXPECT_TRUE(ir_dev->verifier()->findings().empty())
      << render(ir_dev->verifier()->findings());

  auto hw_dev = ttmetal::Device::open({}, dc);
  core::FieldGrids grids(*hw_dev, core::to_general(p), cfg);
  auto& cq = hw_dev->command_queue(0);
  grids.stage(0, grids.layout().initial_image(p), cq, /*blocking=*/true);
  const auto usable = hw_dev->usable_workers();
  ttmetal::Program prog;
  core::build_batched_stencil_program(
      prog, core::to_general(p), cfg,
      {grids.bind(p.iterations, {usable.begin(), usable.begin() + cfg.cores_y})});
  hw_dev->run_program(prog);
  std::vector<bfloat16_t> out(grids.layout().elems());
  grids.read(0, out, cq, /*blocking=*/true);
  EXPECT_TRUE(hw_dev->verifier()->findings().empty())
      << render(hw_dev->verifier()->findings());

  ASSERT_FALSE(r.solution.empty());
  EXPECT_EQ(grids.layout().extract_interior(out), r.solution);
}

// ---- the tests/verify broken classes, caught statically ---------------
//
// The dynamic gallery (tests/verify/test_verify_gallery.cpp) breaks real
// kernels and watches the detector fire mid-run. The same bug classes,
// expressed in the IR, must die in check() — no device, no run.

TEST(IrCross, CbPushPopImbalanceClassIsRejectedStatically) {
  // Dynamic twin: VerifyGallery.CbPushPopImbalance (a consumer popping
  // pages the producer never pushed).
  ir::Graph g;
  g.name = "broken-imbalance";
  g.ncores = ir::Count(1);
  g.bindings["iters"] = 3;
  const ir::Count it = ir::Count::sym("iters");
  g.cbs.push_back(ir::CbDecl{0, ir::Count(2), 2048, "cb-rows"});
  ir::KernelModel prod{"reader", 0, ir::Count(1), {}};
  prod.ops.push_back(ir::Op(ir::OpKind::kCbReserve, 0, it));
  prod.ops.push_back(ir::Op(ir::OpKind::kCbPush, 0, it));
  ir::KernelModel cons{"compute", 2, ir::Count(1), {}};
  cons.ops.push_back(ir::Op(ir::OpKind::kCbWait, 0, it + ir::Count(1)));
  cons.ops.push_back(ir::Op(ir::OpKind::kCbPop, 0, it + ir::Count(1)));
  g.kernels = {prod, cons};
  const auto fs = ir::check(g);
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].code, LintError::Code::kCbCreditImbalance);
}

TEST(IrCross, UnpairedSemaphoreWaitClassIsRejectedStatically) {
  // Dynamic twin: VerifyGallery.UnpairedSemaphoreWait (a wait whose post
  // never comes hangs the kernel until the watchdog fires).
  ir::Graph g;
  g.name = "broken-unpaired-wait";
  g.ncores = ir::Count(1);
  g.sems.push_back(ir::SemDecl{0, 0, "sem-never-posted"});
  ir::KernelModel dm{"dm0", 0, ir::Count(1), {}};
  dm.ops.push_back(ir::Op(ir::OpKind::kSemWait, 0, ir::Count(1)));
  g.kernels = {dm};
  const auto fs = ir::check(g);
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].code, LintError::Code::kSemImbalance);
}

TEST(IrCross, BarrierParticipantMismatchClassIsRejectedStatically) {
  // Dynamic twin: VerifyGallery.BarrierIdMismatch / the missing-halo-
  // barrier Conway case — a rendezvous some participants never join.
  ir::Graph g;
  g.name = "broken-barrier";
  g.ncores = ir::Count(2);
  g.barriers.push_back(ir::BarrierDecl{0, ir::Count(4)});
  ir::KernelModel dm{"dm0", 0, ir::Count(2), {}};
  dm.ops.push_back(ir::Op(ir::OpKind::kBarrierArrive, 0, ir::Count(1)));
  g.kernels = {dm};
  const auto fs = ir::check(g);
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].code, LintError::Code::kBadBarrier);
}

TEST(IrCross, ReadAheadSlotRecycleClassIsRejectedStatically) {
  // Dynamic twin: VerifyGallery.ReadAheadSlotRecycle — the pre-fix PR 3
  // ring, one slot short at every depth. The dynamic detector needs a
  // run per depth; the IR kills the whole family symbolically.
  ir::Graph g;
  g.name = "broken-slot-recycle";
  g.ncores = ir::Count(1);
  g.bindings["depth"] = 2;
  g.ranges["depth"] = {2, 8};
  const ir::Count d = ir::Count::sym("depth");
  ir::RingDecl ring;
  ring.name = "row-slots";
  ring.slots = 2 * d + ir::Count(1);  // pre-fix sizing
  ring.issue_ahead = d;
  ring.credit_depth = d;
  ring.read_lo = -1;
  ring.read_hi = 1;
  ring.boundary_extra = ir::Count(0);
  g.rings.push_back(ring);
  const auto fs = ir::check(g);
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].code, LintError::Code::kSlotReuse);
}

TEST(IrCross, TwoKernelDeadlockCycleClassIsRejectedStatically) {
  // Dynamic twin: VerifyGallery.TwoKernelCbDeadlockCycle — each kernel's
  // first wait needs the other to push first.
  ir::Graph g;
  g.name = "broken-cycle";
  g.ncores = ir::Count(1);
  g.bindings["iters"] = 2;
  const ir::Count it = ir::Count::sym("iters");
  g.cbs.push_back(ir::CbDecl{0, ir::Count(2), 2048, "cb-ab"});
  g.cbs.push_back(ir::CbDecl{1, ir::Count(2), 2048, "cb-ba"});
  ir::KernelModel a{"kernel-a", 0, ir::Count(1), {}};
  a.ops.push_back(ir::Op(ir::OpKind::kCbReserve, 0, it));
  a.ops.push_back(ir::Op(ir::OpKind::kCbWait, 1, it));
  a.ops.push_back(ir::Op(ir::OpKind::kCbPop, 1, it));
  a.ops.push_back(ir::Op(ir::OpKind::kCbPush, 0, it));
  ir::KernelModel b{"kernel-b", 2, ir::Count(1), {}};
  b.ops.push_back(ir::Op(ir::OpKind::kCbReserve, 1, it));
  b.ops.push_back(ir::Op(ir::OpKind::kCbWait, 0, it));
  b.ops.push_back(ir::Op(ir::OpKind::kCbPop, 0, it));
  b.ops.push_back(ir::Op(ir::OpKind::kCbPush, 1, it));
  g.kernels = {a, b};
  const auto fs = ir::check(g);
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].code, LintError::Code::kWaitCycle);
}

}  // namespace
}  // namespace ttsim
