/// \file test_ir_program.cpp
/// Each certified IR graph against the program its emit closure builds:
///   * the graph declares exactly the CBs the builder creates (id, pages
///     and page size, in creation order) and exactly its L1 buffers (size,
///     in creation order — the graph's regions minus the CB mirrors);
///   * in a traced run of the same launch, every declared CB sees on core 0
///     as many cb_push_back / cb_pop_front calls as the graph's push and pop
///     ops count at its bindings. Row-chunk and SRAM-resident bind "points"
///     exactly; the temporal graph's "points" is a documented lower bound
///     (the trapezoid recomputes skirt rows on top), so there the run may
///     count more.
/// Covered: classic Jacobi, every gallery program and the unit-term/scale
/// chains, on row-chunk at read-ahead depths 2 and 8, SRAM-resident and
/// temporal, wherever the driver accepts the program.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/lower.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/ttmetal/program.hpp"

namespace ttsim {
namespace {

using core::DeviceRunConfig;
using core::DeviceStrategy;

struct Launch {
  std::string what;
  DeviceRunConfig cfg;
};

/// The certified strategies a program with `fields` fields and `passes`
/// passes runs on: row-chunk at depths 2 and 8, SRAM-resident (one field,
/// one pass) and temporal (one pass, depth 2).
std::vector<Launch> launches(std::size_t fields, std::size_t passes) {
  std::vector<Launch> out;
  for (const int depth : {2, 8}) {
    DeviceRunConfig cfg;
    cfg.read_ahead = depth;
    cfg.cores_y = 2;
    out.push_back({"rowchunk depth " + std::to_string(depth), cfg});
  }
  if (fields == 1 && passes == 1) {
    DeviceRunConfig cfg;
    cfg.strategy = DeviceStrategy::kSramResident;
    cfg.cores_y = 2;
    out.push_back({"sram", cfg});
  }
  if (passes == 1) {
    DeviceRunConfig cfg;
    cfg.strategy = DeviceStrategy::kTemporal;
    cfg.temporal_depth = 2;
    cfg.cores_y = 2;
    out.push_back({"temporal", cfg});
  }
  return out;
}

/// The graph's declarations against the Program its emit closure builds.
void expect_declares_what_it_builds(const ir::Graph& g, const std::string& what) {
  ttmetal::Program prog;
  ir::lower(g, prog);
  const verify::ProgramInfo info = prog.verify_info();

  ASSERT_EQ(info.cbs.size(), g.cbs.size()) << what << ": CB count";
  std::set<std::string> cb_names;
  for (std::size_t i = 0; i < g.cbs.size(); ++i) {
    const ir::CbDecl& decl = g.cbs[i];
    cb_names.insert(decl.name);
    EXPECT_EQ(info.cbs[i].cb_id, decl.id) << what << ": CB " << i;
    EXPECT_EQ(info.cbs[i].num_pages, decl.pages.eval(g.bindings))
        << what << ": pages of " << decl.name;
    EXPECT_EQ(info.cbs[i].page_size, decl.page_size)
        << what << ": page size of " << decl.name;
  }

  std::vector<std::int64_t> buffers;
  for (const ir::RegionDecl& r : g.regions) {
    if (cb_names.count(r.name) == 0) buffers.push_back(r.bytes.eval(g.bindings));
  }
  ASSERT_EQ(info.l1_buffers.size(), buffers.size()) << what << ": L1 buffer count";
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(info.l1_buffers[i].size, buffers[i]) << what << ": L1 buffer " << i;
  }
}

/// Every declared CB's push and pop calls on core 0 of a traced run of the
/// same launch against the graph's counts: equal, or (`lower_bound`) at
/// least the graph's.
void expect_counts(const ir::Graph& g, const std::function<void(ttmetal::Device&)>& run,
                   bool lower_bound, const std::string& what) {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open({}, dc);
  run(*dev);
  std::map<std::pair<sim::TraceEventKind, int>, std::int64_t> seen;
  for (const sim::TraceEvent& e : dev->trace()->events()) {
    if ((e.kind == sim::TraceEventKind::kCbPush || e.kind == sim::TraceEventKind::kCbPop) &&
        e.core == 0) {
      ++seen[{e.kind, e.a}];
    }
  }
  for (const ir::CbDecl& cb : g.cbs) {
    for (const auto& [op_kind, ev_kind] :
         {std::pair{ir::OpKind::kCbPush, sim::TraceEventKind::kCbPush},
          std::pair{ir::OpKind::kCbPop, sim::TraceEventKind::kCbPop}}) {
      std::int64_t declared = 0;
      for (const ir::KernelModel& k : g.kernels) {
        for (const ir::Op& op : k.ops) {
          if (op.kind == op_kind && op.id == cb.id) declared += op.count.eval(g.bindings);
        }
      }
      const std::int64_t traced = seen[{ev_kind, cb.id}];
      const std::string which = what + ": " + cb.name +
                                (op_kind == ir::OpKind::kCbPush ? " pushes" : " pops");
      if (lower_bound) {
        EXPECT_GE(traced, declared) << which;
      } else {
        EXPECT_EQ(traced, declared) << which;
      }
    }
  }
}

TEST(IrProgram, ClassicJacobiGraphsMatchTheirPrograms) {
  core::JacobiProblem p;
  p.width = 64;
  p.height = 32;
  p.iterations = 3;
  for (const Launch& l : launches(1, 1)) {
    const std::string what = "jacobi " + l.what;
    const ir::Graph g = core::jacobi_ir_graph(p, l.cfg);
    expect_declares_what_it_builds(g, what);
    expect_counts(
        g, [&](ttmetal::Device& dev) { core::run_jacobi_on_device(dev, p, l.cfg); },
        l.cfg.strategy == DeviceStrategy::kTemporal, what);
  }
}

/// One-field programs exercising the tap-order rules U and S: a lone unit
/// term with a scale (copy seed, no kCbGTmp), a unit seed followed by a
/// weighted term, and a weighted seed followed by a unit term.
TEST(IrProgram, UnitTermAndScaleGraphsMatchTheirPrograms) {
  using core::Tap;
  using core::TapTerm;
  struct Case {
    const char* name;
    std::vector<TapTerm> terms;
    bool scale;
  };
  const std::vector<Case> cases = {
      {"unit-scale", {TapTerm{0, Tap::kC, 1.0f}}, true},
      {"unit-weighted", {TapTerm{0, Tap::kC, 1.0f}, TapTerm{0, Tap::kN, 0.25f}}, false},
      {"weighted-unit", {TapTerm{0, Tap::kW, 0.5f}, TapTerm{0, Tap::kS, 1.0f}}, false},
  };
  for (const Case& c : cases) {
    core::GeneralStencilProblem p;
    p.width = 64;
    p.height = 32;
    p.iterations = 3;
    core::FieldSpec f;
    f.name = "u";
    f.bc_top = 1.0f;
    f.initial = 0.5f;
    p.fields.push_back(f);
    core::StencilPass pass;
    pass.terms = c.terms;
    if (c.scale) {
      pass.post = core::PostOp::kScale;
      pass.post_scale = 0.75f;
    }
    p.passes.push_back(pass);
    for (const Launch& l : launches(1, 1)) {
      const std::string what = std::string(c.name) + " " + l.what;
      const ir::Graph g = core::general_ir_graph(p, l.cfg);
      expect_declares_what_it_builds(g, what);
      expect_counts(
          g,
          [&](ttmetal::Device& dev) {
            core::DeviceRunConfig cfg = l.cfg;
            cfg.verify = true;
            EXPECT_TRUE(core::run_general_stencil_on_device(dev, p, cfg).verified_ok)
                << what;
          },
          l.cfg.strategy == DeviceStrategy::kTemporal, what);
    }
  }
}

TEST(IrProgram, GalleryGraphsMatchTheirPrograms) {
  for (const auto& entry : core::gallery::suite()) {
    const core::GeneralStencilProblem& p = entry.problem;
    for (const Launch& l : launches(p.fields.size(), p.passes.size())) {
      const std::string what = std::string(entry.name) + " " + l.what;
      const ir::Graph g = core::general_ir_graph(p, l.cfg);
      expect_declares_what_it_builds(g, what);
      expect_counts(
          g,
          [&](ttmetal::Device& dev) { core::run_general_stencil_on_device(dev, p, l.cfg); },
          l.cfg.strategy == DeviceStrategy::kTemporal, what);
    }
  }
}

}  // namespace
}  // namespace ttsim
