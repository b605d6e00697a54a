/// \file until_converged.cpp
/// Convergence-driven solving: instead of the paper's fixed iteration count,
/// let the device track its own residual (max |unew - u| reduced on the
/// FPU) and stop once the field is stationary to a tolerance. Shows the
/// residual trajectory and the cost of checking. Every run's solution is
/// checked bit-exact against the BF16 CPU reference at the sweeps it ran;
/// a mismatch exits 1.
///
///   $ ./examples/until_converged [tolerance]

#include <cstdio>
#include <cstdlib>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"

int main(int argc, char** argv) {
  using namespace ttsim;

  const double tolerance = argc > 1 ? std::atof(argv[1]) : 2e-3;

  core::JacobiProblem p;
  p.width = 1024;  // device-side residuals need full FPU chunks
  p.height = 128;
  p.iterations = 20000;  // safety cap
  p.bc_left = 1.0f;
  p.bc_right = 0.0f;
  p.bc_top = 0.5f;
  p.bc_bottom = 0.5f;

  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  std::printf("solving %ux%u until max|unew-u| <= %g (checked on the device)\n\n",
              p.width, p.height, tolerance);
  std::printf("%12s %16s %14s  %s\n", "check every", "iterations run", "residual",
              "vs BF16 reference");
  core::JacobiProblem ran = p;
  std::vector<bfloat16_t> ref;  // at ran.iterations sweeps
  bool all_exact = true;
  for (int check_every : {25, 100, 400}) {
    core::AdaptiveOptions opt;
    opt.tolerance = tolerance;
    opt.check_every = check_every;
    const auto r = core::run_jacobi_adaptive(p, opt, cfg);
    if (ref.empty() || ran.iterations != r.iterations_run) {
      ran.iterations = r.iterations_run;
      ref = cpu::jacobi_reference_bf16(ran);
    }
    bool exact = ref.size() == r.solution.size();
    for (std::size_t i = 0; exact && i < ref.size(); ++i) {
      exact = static_cast<float>(ref[i]) == r.solution[i];
    }
    all_exact = all_exact && exact;
    std::printf("%12d %16d %14.5f  %-9s %s\n", check_every, r.iterations_run,
                r.final_residual, exact ? "bit-exact" : "MISMATCH",
                r.converged ? "(converged)" : "(hit the cap!)");
  }
  std::printf(
      "\nCoarser checking overshoots the stopping point but relaunches less;\n"
      "the residual itself costs one extra FPU subtract/abs/reduce per chunk\n"
      "on checking sweeps plus a 2-byte DRAM write per core.\n");
  return all_exact ? 0 : 1;
}
