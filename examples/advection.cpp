/// \file advection.cpp
/// Atmospheric-style advection on the simulated Grayskull — the workload
/// the paper names as its next target ("we are now looking at more complex
/// stencil algorithms, such as atmospheric advection, on the Grayskull").
/// A Gaussian pollutant plume is transported diagonally by a first-order
/// upwind scheme; every run is verified bit-exactly against the BF16 CPU
/// reference (the program exits 1 on a mismatch) and the plume is rendered
/// as it crosses the domain.
///
///   $ ./examples/advection

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

int main() {
  using namespace ttsim;

  constexpr std::uint32_t kW = 128, kH = 64;
  // Wind towards +x/+y with Courant numbers cx + cy <= 1 (stable).
  const float cx = 0.45f, cy = 0.25f;

  // Convection with no diffusion (k = 0) is the upwind pass: C, W, N.
  auto p = core::gallery::convection(kW, kH, 1, cx, cy, 0.0f);
  core::FieldSpec& u = p.fields[0];
  u.bc_left = 0.0f;
  // Gaussian plume released near the inflow corner.
  const float x0 = 20.0f, y0 = 12.0f, sigma = 4.0f;
  for (std::uint32_t r = 0; r < kH; ++r) {
    for (std::uint32_t c = 0; c < kW; ++c) {
      const float dx = static_cast<float>(c) - x0, dy = static_cast<float>(r) - y0;
      u.initial_field[r * kW + c] = std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
    }
  }

  std::printf("upwind advection of a plume, %ux%u cells, wind (cx, cy) = (%.2f, %.2f)\n\n",
              kW, kH, static_cast<double>(cx), static_cast<double>(cy));

  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  const char* shades = " .:-=+*#%@";
  bool all_exact = true;
  for (int steps : {0, 40, 80, 120}) {
    p.iterations = std::max(1, steps);
    std::vector<float> field;
    double gpts = 0.0;
    bool exact = true;
    if (steps == 0) {
      field = u.initial_field;
    } else {
      auto r = core::run_general_stencil_on_device(p, cfg);
      field = std::move(r.solution);
      gpts = r.gpts(p, /*kernel_only=*/true);
      const auto ref = cpu::general_reference_bf16(p)[0];
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (static_cast<float>(ref[i]) != field[i]) exact = false;
      }
      all_exact = all_exact && exact;
    }
    // Plume diagnostics: total mass and centroid.
    double mass = 0, mx = 0, my = 0, peak = 0;
    for (std::uint32_t r = 0; r < kH; ++r) {
      for (std::uint32_t c = 0; c < kW; ++c) {
        const double v = field[r * kW + c];
        mass += v;
        mx += v * c;
        my += v * r;
        peak = std::max(peak, v);
      }
    }
    std::printf("t=%3d: centroid (%.1f, %.1f), peak %.2f, mass %.1f", steps,
                mass > 0 ? mx / mass : 0, mass > 0 ? my / mass : 0, peak, mass);
    if (steps > 0) {
      std::printf(", device %.3f GPt/s, %s", gpts,
                  exact ? "bit-exact vs reference" : "MISMATCH");
    }
    std::printf("\n");
    for (std::uint32_t r = 0; r < kH; r += 4) {
      for (std::uint32_t c = 0; c < kW; c += 2) {
        const int idx = std::min(
            9, std::max(0, static_cast<int>(field[r * kW + c] * 9.99f)));
        std::putchar(shades[idx]);
      }
      std::putchar('\n');
    }
    std::putchar('\n');
  }
  std::printf("the upwind scheme transports the plume with the wind and\n"
              "(numerically) diffuses it — the expected first-order behaviour.\n");
  return all_exact ? 0 : 1;
}
