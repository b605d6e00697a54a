/// \file test_adaptive.cpp
/// Tests for convergence-driven solving: device-side FPU residuals plus the
/// relaunching host driver.

#include <gtest/gtest.h>

#include <cmath>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"

namespace ttsim::core {
namespace {

JacobiProblem wide_problem(std::uint32_t height, int max_iters) {
  JacobiProblem p;
  p.width = 1024;  // full chunks, required by device-side residuals
  p.height = height;
  p.iterations = max_iters;
  p.bc_left = 1.0f;
  p.bc_right = 0.0f;
  p.bc_top = 0.5f;
  p.bc_bottom = 0.5f;
  return p;
}

TEST(AdaptiveJacobi, ConvergesAndStopsEarly) {
  auto p = wide_problem(16, 10000);
  AdaptiveOptions opt;
  opt.tolerance = 1e-3;
  opt.check_every = 25;
  const auto r = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations_run, p.iterations);
  EXPECT_LE(r.final_residual, opt.tolerance);
  EXPECT_EQ(r.iterations_run % opt.check_every, 0);
}

TEST(AdaptiveJacobi, VerifiesTheSweepsItRan) {
  // An early stop leaves the solution of iterations_run sweeps, not of the
  // requested maximum: verification checks it against that reference.
  auto p = wide_problem(16, 10000);
  AdaptiveOptions opt;
  opt.tolerance = 1e-3;
  opt.check_every = 25;
  DeviceRunConfig cfg;
  cfg.cores_y = 2;
  cfg.verify = true;
  const auto r = run_jacobi_adaptive(p, opt, cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_LT(r.iterations_run, p.iterations);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.cores_used, 2);
  EXPECT_EQ(r.transfer_retries, 0);
  EXPECT_TRUE(r.fields.empty());
  p.iterations = r.iterations_run;
  const auto ref = cpu::jacobi_reference_bf16(p);
  ASSERT_EQ(ref.size(), r.solution.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(static_cast<float>(ref[i]), r.solution[i]) << i;
  }
}

TEST(AdaptiveJacobi, SolutionMatchesFixedCountRun) {
  auto p = wide_problem(16, 300);
  AdaptiveOptions opt;
  opt.tolerance = 1e-9;  // never met: runs all 300 iterations
  opt.check_every = 60;
  const auto adaptive = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  EXPECT_FALSE(adaptive.converged);
  EXPECT_EQ(adaptive.iterations_run, 300);
  const auto fixed = run_jacobi_on_device(p, DeviceRunConfig{});
  ASSERT_EQ(adaptive.solution.size(), fixed.solution.size());
  for (std::size_t i = 0; i < fixed.solution.size(); ++i) {
    ASSERT_EQ(adaptive.solution[i], fixed.solution[i]) << i;
  }
}

TEST(AdaptiveJacobi, ResidualMatchesHostComputation) {
  // One chunk of N iterations: the device residual must equal the BF16
  // difference between the N-th and (N-1)-th reference sweeps.
  auto p = wide_problem(8, 40);
  AdaptiveOptions opt;
  opt.tolerance = 1e-12;
  opt.check_every = 40;
  const auto r = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  auto ref_n = cpu::jacobi_reference_bf16(p);
  p.iterations = 39;
  auto ref_n1 = cpu::jacobi_reference_bf16(p);
  float host_residual = 0.0f;
  for (std::size_t i = 0; i < ref_n.size(); ++i) {
    // Replay the device arithmetic: BF16 subtract then |.|.
    const bfloat16_t d = ref_n[i] - ref_n1[i];
    host_residual =
        std::max(host_residual, std::fabs(static_cast<float>(d)));
  }
  EXPECT_FLOAT_EQ(static_cast<float>(r.final_residual), host_residual);
}

TEST(AdaptiveJacobi, ResidualDecreasesAcrossChecks) {
  auto p = wide_problem(16, 100);
  AdaptiveOptions opt;
  opt.check_every = 50;
  opt.tolerance = 1e-12;
  const auto r100 = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  p.iterations = 50;
  const auto r50 = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  EXPECT_LT(r100.final_residual, r50.final_residual);
}

TEST(AdaptiveJacobi, MultiCoreResidualIsGlobalMax) {
  auto p = wide_problem(32, 60);
  AdaptiveOptions opt;
  opt.check_every = 60;
  opt.tolerance = 1e-12;
  const auto one = run_jacobi_adaptive(p, opt, DeviceRunConfig{});
  DeviceRunConfig multi;
  multi.cores_y = 4;
  const auto four = run_jacobi_adaptive(p, opt, multi);
  EXPECT_FLOAT_EQ(static_cast<float>(one.final_residual),
                  static_cast<float>(four.final_residual));
}

// Pins the exact simulated result of a multi-chunk, multi-core adaptive
// solve: the launch sequence, the residual readbacks between launches and
// the final readback all land on the simulated clock, so a refactor of the
// driver that changes any launch, buffer or transfer moves these figures.
TEST(AdaptiveJacobi, PinnedSimulatedResult) {
  auto p = wide_problem(32, 400);
  AdaptiveOptions opt;
  opt.tolerance = 4e-3;
  opt.check_every = 30;
  DeviceRunConfig cfg;
  cfg.cores_y = 2;
  const auto r = run_jacobi_adaptive(p, opt, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations_run, 240);
  EXPECT_EQ(r.final_residual, 0.00390625);
  EXPECT_EQ(r.kernel_time, 4930561112);
  EXPECT_EQ(r.total_time, 9051357912);
}

TEST(AdaptiveJacobi, InvalidConfigsRejected) {
  auto p = wide_problem(16, 100);
  AdaptiveOptions opt;
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kDoubleBuffered;
  EXPECT_THROW(run_jacobi_adaptive(p, opt, cfg), ApiError);

  cfg = DeviceRunConfig{};
  p.width = 512;  // partial chunks would pollute the FPU reduction
  EXPECT_THROW(run_jacobi_adaptive(p, opt, cfg), ApiError);

  p = wide_problem(16, 100);
  opt.check_every = 0;
  EXPECT_THROW(run_jacobi_adaptive(p, opt, DeviceRunConfig{}), ApiError);
}

}  // namespace
}  // namespace ttsim::core
