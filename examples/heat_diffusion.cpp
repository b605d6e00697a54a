/// \file heat_diffusion.cpp
/// Domain-science example: steady-state heat diffusion in a cross-section of
/// a cooling plate — a hot component on the left wall, coolant channels top
/// and bottom, open (cold) right edge. Demonstrates convergence monitoring
/// by re-running the device solver with growing iteration counts, comparing
/// the accelerator (BF16) against the CPU (FP32) answer, and rendering the
/// temperature field. Every run is checked bit-exact against the BF16 CPU
/// reference; a mismatch exits 1.
///
///   $ ./examples/heat_diffusion [--iters N]

#include <cmath>
#include <cstdio>
#include <cstring>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"

int main(int argc, char** argv) {
  using namespace ttsim;

  int max_iters = 800;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0) max_iters = std::atoi(argv[i + 1]);
  }

  core::JacobiProblem plate;
  plate.width = 128;
  plate.height = 64;
  plate.bc_left = 90.0f;   // hot component, degrees C
  plate.bc_right = 20.0f;  // ambient edge
  plate.bc_top = 30.0f;    // coolant channel
  plate.bc_bottom = 30.0f; // coolant channel
  plate.initial = 25.0f;

  std::printf("cooling-plate cross section, %ux%u cells\n\n", plate.width, plate.height);
  std::printf("%8s %14s %16s %12s  %s\n", "iters", "device GPt/s", "max|bf16-f32|",
              "residual", "vs BF16 reference");

  std::vector<float> prev;
  bool all_exact = true;
  for (int iters = 100; iters <= max_iters; iters *= 2) {
    plate.iterations = iters;

    core::DeviceRunConfig cfg;
    cfg.strategy = core::DeviceStrategy::kRowChunk;
    const auto device_run = core::run_jacobi_on_device(plate, cfg);
    const auto cpu_run = cpu::jacobi_reference_f32(plate, cpu::max_host_threads());
    const auto bf16_ref = cpu::jacobi_reference_bf16(plate);

    bool exact = bf16_ref.size() == device_run.solution.size();
    for (std::size_t i = 0; exact && i < bf16_ref.size(); ++i) {
      exact = static_cast<float>(bf16_ref[i]) == device_run.solution[i];
    }
    all_exact = all_exact && exact;

    // BF16 vs FP32 drift: how much precision the accelerator costs.
    float max_diff = 0.0f;
    for (std::size_t i = 0; i < cpu_run.size(); ++i) {
      max_diff = std::max(max_diff, std::fabs(cpu_run[i] - device_run.solution[i]));
    }
    // Convergence: change since the previous (half-length) run.
    float residual = 0.0f;
    if (!prev.empty()) {
      for (std::size_t i = 0; i < prev.size(); ++i) {
        residual = std::max(residual, std::fabs(device_run.solution[i] - prev[i]));
      }
    }
    prev = device_run.solution;
    std::printf("%8d %14.3f %16.3f %12.4f  %s\n", iters, device_run.gpts(plate, true),
                static_cast<double>(max_diff), static_cast<double>(residual),
                exact ? "bit-exact" : "MISMATCH");
  }

  // Render the final temperature field as an ASCII heat map.
  std::printf("\ntemperature field (every 4th cell):\n");
  const char* shades = " .:-=+*#%@";
  for (std::uint32_t r = 0; r < plate.height; r += 4) {
    for (std::uint32_t c = 0; c < plate.width; c += 2) {
      const float t = prev[r * plate.width + c];
      const float norm = (t - 20.0f) / (90.0f - 20.0f);
      const int idx = std::min(9, std::max(0, static_cast<int>(norm * 10.0f)));
      std::putchar(shades[idx]);
    }
    std::putchar('\n');
  }
  std::printf("(@ = %.0fC near the hot wall, ' ' = ambient %.0fC)\n", 90.0, 20.0);
  return all_exact ? 0 : 1;
}
