/// \file test_field_grids.cpp
/// The grid object's parity rule as an oracle: n sweeps run as several
/// launches of uneven sizes on one FieldGrids must leave every field
/// bit-identical to one n-sweep launch (and to the BF16 CPU reference).
/// Covers a tiled Section IV program and the row-chunk, SRAM-resident and
/// temporal lowerings; temporal chunks of 1, 2, 3 and 4 sweeps at depth 3
/// give odd, even and partial epochs. Programs: classic Jacobi, FDTD-2D (three fields, three passes)
/// and hotspot, whose read-only power field must never flip.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "jacobi_internal.hpp"
#include "ttsim/core/field_grids.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace {

using namespace ttsim;
using core::DeviceStrategy;

struct Case {
  std::string name;
  core::GeneralStencilProblem problem;
  DeviceStrategy strategy;
  int temporal_depth = 1;
  std::vector<int> chunks;  ///< launch sizes, in order
};

core::GeneralStencilProblem jacobi(std::uint32_t width, std::uint32_t height) {
  core::JacobiProblem p;
  p.width = width;
  p.height = height;
  p.bc_left = 1.0f;
  p.bc_top = 0.5f;
  p.initial = 0.25f;
  return core::to_general(p);
}

std::vector<Case> cases() {
  return {
      {"jacobi-tiled", jacobi(64, 64), DeviceStrategy::kWriteOptimised, 1, {1, 2, 3}},
      {"jacobi-rowchunk", jacobi(64, 32), DeviceStrategy::kRowChunk, 1, {2, 1, 3}},
      {"jacobi-sram", jacobi(64, 32), DeviceStrategy::kSramResident, 1, {1, 3, 2}},
      {"jacobi-temporal-k3", jacobi(64, 48), DeviceStrategy::kTemporal, 3,
       {1, 2, 3, 4}},
      {"fdtd2d-rowchunk", core::gallery::fdtd2d(64, 32), DeviceStrategy::kRowChunk, 1,
       {3, 1, 2}},
      {"hotspot-rowchunk", core::gallery::hotspot(64, 32), DeviceStrategy::kRowChunk,
       1, {1, 2, 2}},
      {"hotspot-temporal-k3", core::gallery::hotspot(64, 48), DeviceStrategy::kTemporal,
       3, {1, 2, 3, 4}},
  };
}

/// Every field's padded image after running `chunks` launches on one grid
/// object; `ro_fresh` receives each read-only field's fresh buffer after
/// every launch.
std::vector<std::vector<bfloat16_t>> run_chunks(
    const Case& c, const std::vector<int>& chunks,
    std::vector<const ttmetal::Buffer*>* ro_fresh = nullptr) {
  auto device = ttmetal::Device::open({});
  core::DeviceRunConfig cfg;
  cfg.strategy = c.strategy;
  cfg.cores_y = 2;
  cfg.temporal_depth = c.temporal_depth;
  core::GeneralStencilProblem p = c.problem;
  p.iterations = std::accumulate(chunks.begin(), chunks.end(), 0);
  const auto sel = core::detail::select_cores(*device, p.geometry(), cfg);

  core::FieldGrids grids(*device, p, cfg);
  auto& cq = device->command_queue(0);
  const int nfields = static_cast<int>(p.fields.size());
  for (int f = 0; f < nfields; ++f) {
    grids.stage(f, core::general_field_image(grids.layout(), p, f), cq, true);
  }
  for (int sweeps : chunks) {
    grids.launch(sweeps, sel);
    for (int f = 0; ro_fresh != nullptr && f < nfields; ++f) {
      if (p.written_pass(f) < 0) ro_fresh->push_back(&grids.fresh(f));
    }
  }
  std::vector<std::vector<bfloat16_t>> images;
  for (int f = 0; f < nfields; ++f) {
    images.emplace_back(grids.layout().elems());
    grids.read(f, images.back(), cq, true);
  }
  return images;
}

TEST(FieldGrids, UnevenLaunchesMatchOneLaunchInEveryField) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const int n = std::accumulate(c.chunks.begin(), c.chunks.end(), 0);
    std::vector<const ttmetal::Buffer*> ro_fresh;
    const auto chunked = run_chunks(c, c.chunks, &ro_fresh);
    const auto whole = run_chunks(c, {n});
    ASSERT_EQ(chunked.size(), whole.size());
    for (std::size_t f = 0; f < whole.size(); ++f) {
      EXPECT_TRUE(chunked[f] == whole[f]) << "field " << f;
    }

    // Both agree with the CPU reference, interior for interior.
    core::GeneralStencilProblem p = c.problem;
    p.iterations = n;
    const core::PaddedLayout layout(p.width, p.height);
    const auto ref = cpu::general_reference_bf16(p);
    for (std::size_t f = 0; f < whole.size(); ++f) {
      const auto got = layout.extract_interior(whole[f]);
      ASSERT_EQ(got.size(), ref[f].size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<float>(ref[f][i])) << "field " << f << " @" << i;
      }
    }

    // A read-only field keeps its one buffer and its staged image.
    for (const auto* buf : ro_fresh) EXPECT_EQ(buf, ro_fresh.front());
    for (int f = 0; f < static_cast<int>(p.fields.size()); ++f) {
      if (p.written_pass(f) >= 0) continue;
      EXPECT_TRUE(chunked[static_cast<std::size_t>(f)] ==
                  core::general_field_image(layout, p, f));
    }
  }
}

TEST(FieldGrids, BindOrdersThePairSoTheLaunchReadsTheFreshGrid) {
  // The binding itself, on temporal launches at depth 3: a launch whose
  // epoch and sweep counts differ in parity reads d2 first.
  auto device = ttmetal::Device::open({});
  core::DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kTemporal;
  cfg.temporal_depth = 3;
  const auto p = jacobi(64, 32);
  core::FieldGrids grids(*device, p, cfg);
  const std::uint64_t a = grids.fresh(0).address();
  const std::uint64_t b = grids.stale(0).address();
  const auto image = core::general_field_image(grids.layout(), p, 0);
  auto& cq = device->command_queue(0);
  grids.stage(0, image, cq, true);

  // 2 sweeps (one epoch) read d2 first and finish in d1. A staged pair
  // binds in allocation order all the same.
  auto s = grids.bind(2, {});
  EXPECT_EQ(s.d1[0], a);
  EXPECT_EQ(s.d2[0], b);
  EXPECT_EQ(grids.fresh(0).address(), a);
  // Again: now the fresh a must be the d2 the launch reads first.
  s = grids.bind(2, {});
  EXPECT_EQ(s.d1[0], b);
  EXPECT_EQ(s.d2[0], a);
  EXPECT_EQ(grids.fresh(0).address(), b);
  // 6 sweeps (two epochs) read d1 first and finish there.
  s = grids.bind(6, {});
  EXPECT_EQ(s.d1[0], b);
  EXPECT_EQ(grids.fresh(0).address(), b);
  // 3 sweeps (one epoch) read d1 first and finish in d2.
  s = grids.bind(3, {});
  EXPECT_EQ(s.d1[0], b);
  EXPECT_EQ(s.d2[0], a);
  EXPECT_EQ(grids.fresh(0).address(), a);
  EXPECT_EQ(grids.stale(0).address(), b);
  // Restaging returns the pair to allocation order.
  grids.stage(0, image, cq, true);
  EXPECT_EQ(grids.fresh(0).address(), a);
  s = grids.bind(1, {});
  EXPECT_EQ(s.d1[0], a);
  EXPECT_EQ(grids.fresh(0).address(), b);
}

}  // namespace
