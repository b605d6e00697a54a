/// \file test_stencil.cpp
/// Tests for 5-point weighted stencils on the general frontend (the
/// paper's future-work direction): device runs must replay the BF16 CPU
/// reference bit-exactly for every stencil shape, and the classic
/// numerical properties (stability bounds, conservation-ish behaviour,
/// transport) must hold.

#include "ttsim/core/stencil.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "ttsim/cpu/stencil_cpu.hpp"

namespace ttsim::core {
namespace {

/// Weights of a 5-point pass: centre, west (x-1), east (x+1), north (y-1)
/// and south (y+1).
struct Weights {
  float c = 0.0f, w = 0.0f, e = 0.0f, n = 0.0f, s = 0.0f;
};

/// Explicit (FTCS) heat diffusion: u += r*laplacian, stable for r <= 0.25.
Weights diffusion(float r) { return {1.0f - 4.0f * r, r, r, r, r}; }

/// First-order upwind advection with Courant numbers cx, cy >= 0 (flow
/// towards +x/+y), stable for cx + cy <= 1.
Weights upwind(float cx, float cy) { return {1.0f - cx - cy, cx, 0.0f, cy, 0.0f}; }

/// The Jacobi average as four 0.25 weights: the same maths as classic
/// Jacobi, which sums the four neighbours first and scales once, but a
/// different BF16 rounding.
Weights quarter_weights() { return {0.0f, 0.25f, 0.25f, 0.25f, 0.25f}; }

/// One field "u" under one pass of `wt`'s non-zero taps in C, W, E, N, S
/// order.
GeneralStencilProblem five_point(Weights wt, std::uint32_t width, std::uint32_t height,
                                 int iterations) {
  GeneralStencilProblem g;
  g.width = width;
  g.height = height;
  g.iterations = iterations;
  g.fields.push_back(FieldSpec{"u"});
  StencilPass pass;
  const std::pair<float, Tap> taps[] = {
      {wt.c, Tap::kC}, {wt.w, Tap::kW}, {wt.e, Tap::kE}, {wt.n, Tap::kN}, {wt.s, Tap::kS}};
  for (const auto& [weight, tap] : taps) {
    if (weight != 0.0f) pass.terms.push_back(TapTerm{0, tap, weight});
  }
  g.passes.push_back(std::move(pass));
  return g;
}

void expect_bit_exact(const GeneralStencilProblem& p, const DeviceRunResult& r) {
  const auto ref = cpu::general_reference_bf16(p)[0];
  ASSERT_EQ(ref.size(), r.solution.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<float>(ref[i]) != r.solution[i] && ++bad <= 3) {
      ADD_FAILURE() << "mismatch at " << i << ": device " << r.solution[i]
                    << " vs ref " << static_cast<float>(ref[i]);
    }
  }
  EXPECT_EQ(bad, 0u);
}

GeneralStencilProblem base_problem(Weights s, int iters = 6) {
  auto p = five_point(s, 64, 48, iters);
  FieldSpec& u = p.fields[0];
  u.bc_left = 1.0f;
  u.bc_top = 0.5f;
  u.initial = 0.25f;
  return p;
}

struct NamedStencil {
  const char* name;
  Weights s;
  friend std::ostream& operator<<(std::ostream& os, const NamedStencil& n) {
    return os << n.name;
  }
};

class StencilSweep : public ::testing::TestWithParam<NamedStencil> {};

TEST_P(StencilSweep, DeviceMatchesReferenceBitExact) {
  const auto p = base_problem(GetParam().s);
  DeviceRunConfig cfg;
  const auto r = run_general_stencil_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST_P(StencilSweep, MultiCoreMatchesReference) {
  const auto p = base_problem(GetParam().s, 4);
  DeviceRunConfig cfg;
  cfg.cores_y = 3;
  cfg.cores_x = 2;
  const auto r = run_general_stencil_on_device(p, cfg);
  expect_bit_exact(p, r);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StencilSweep,
    ::testing::Values(
        NamedStencil{"jacobi_weights", quarter_weights()},
        NamedStencil{"diffusion", diffusion(0.2f)},
        NamedStencil{"advection_x", upwind(0.5f, 0.0f)},
        NamedStencil{"advection_xy", upwind(0.25f, 0.25f)},
        NamedStencil{"advection_y", upwind(0.0f, 0.5f)},
        NamedStencil{"centre_only", Weights{0.5f, 0, 0, 0, 0}},
        NamedStencil{"asymmetric", Weights{0.1f, 0.3f, 0.2f, 0.25f, 0.15f}}));

TEST(Stencil, InitialFieldCarriesThroughDevice) {
  auto p = five_point(upwind(0.5f, 0.0f), 32, 32, 3);
  auto& field = p.fields[0].initial_field;
  field.assign(32 * 32, 0.0f);
  field[16 * 32 + 8] = 1.0f;  // a point plume
  DeviceRunConfig cfg;
  const auto r = run_general_stencil_on_device(p, cfg);
  expect_bit_exact(p, r);
  // The plume moved right (positive x transport), not left.
  float left_mass = 0, right_mass = 0;
  for (std::uint32_t c = 0; c < 8; ++c) left_mass += r.solution[16 * 32 + c];
  for (std::uint32_t c = 9; c < 16; ++c) right_mass += r.solution[16 * 32 + c];
  EXPECT_GT(right_mass, left_mass);
}

TEST(Stencil, StableSchemesStayBounded) {
  // Convex-combination stencils (weights >= 0, sum <= 1) cannot exceed the
  // data range: run long and assert boundedness.
  for (const auto& s : {diffusion(0.25f), upwind(0.4f, 0.4f)}) {
    auto p = five_point(s, 32, 32, 100);
    p.fields[0].bc_left = 1.0f;
    p.fields[0].initial = 0.5f;
    DeviceRunConfig cfg;
    const auto r = run_general_stencil_on_device(p, cfg);
    for (float v : r.solution) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(Stencil, PureAdvectionTranslatesThePlume) {
  // cx = 1 moves the field exactly one cell right per step.
  auto p = five_point(upwind(1.0f, 0.0f), 64, 16, 10);
  auto& field = p.fields[0].initial_field;
  field.assign(64 * 16, 0.0f);
  field[8 * 64 + 5] = 1.0f;
  DeviceRunConfig cfg;
  const auto r = run_general_stencil_on_device(p, cfg);
  EXPECT_EQ(r.solution[8 * 64 + 15], 1.0f);  // moved 10 cells right
  EXPECT_EQ(r.solution[8 * 64 + 5], 0.0f);
}

TEST(Stencil, FewerTapsRunFaster) {
  // The device cost scales with active taps: 3-tap advection beats 5-tap
  // diffusion on the same geometry.
  DeviceRunConfig cfg;
  const auto five_tap =
      run_general_stencil_on_device(five_point(diffusion(0.2f), 512, 64, 4), cfg);
  const auto three_tap =
      run_general_stencil_on_device(five_point(upwind(0.5f, 0.0f), 512, 64, 4), cfg);
  EXPECT_LT(three_tap.kernel_time, five_tap.kernel_time);
}

TEST(Stencil, JacobiWeightsCloseToDedicatedKernel) {
  // Same maths, different BF16 rounding order: results agree to rounding.
  JacobiProblem jp;
  jp.width = 64;
  jp.height = 64;
  jp.iterations = 20;
  jp.bc_left = 1.0f;
  jp.bc_top = 0.5f;
  jp.bc_bottom = 0.5f;
  auto sp = five_point(quarter_weights(), jp.width, jp.height, jp.iterations);
  sp.fields[0] = to_general(jp).fields[0];
  const auto generic = run_general_stencil_on_device(sp, DeviceRunConfig{});
  const auto dedicated = run_jacobi_on_device(jp, DeviceRunConfig{});
  double max_diff = 0;
  for (std::size_t i = 0; i < generic.solution.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(
                                      generic.solution[i] - dedicated.solution[i])));
  }
  EXPECT_LT(max_diff, 0.02);
}

TEST(Stencil, InvalidConfigsRejected) {
  auto p = five_point(Weights{}, 64, 64, 100);  // all taps zero
  EXPECT_THROW(run_general_stencil_on_device(p, DeviceRunConfig{}), ApiError);
  p = five_point(quarter_weights(), 64, 64, 100);
  p.fields[0].initial_field.assign(7, 0.0f);  // wrong size
  EXPECT_THROW(run_general_stencil_on_device(p, DeviceRunConfig{}), CheckError);
}

TEST(StencilCpu, F32AndBf16AgreeWithinRounding) {
  const auto p = base_problem(diffusion(0.15f), 50);
  const auto f = cpu::general_reference_f32(p)[0];
  const auto b = cpu::general_reference_bf16(p)[0];
  // 50 iterations of five rounded BF16 products accumulate a few percent of
  // drift on O(1) values — the precision cost the paper acknowledges when
  // comparing BF16 device results against the FP32 CPU.
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], static_cast<float>(b[i]), 0.05f);
  }
}

}  // namespace
}  // namespace ttsim::core
