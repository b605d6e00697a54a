/// \file convection.cpp
/// 9-point convection-diffusion via the generic stencil frontend: upwind
/// transport plus the isotropic 9-point Laplacian — the diagonal-tap stress
/// case a 5-point stencil cannot express. A hot square is carried towards
/// +x/+y while diffusion rounds it off; every run is verified bit-exactly
/// against the BF16 CPU reference, and the program exits 1 on a mismatch.
///
///   $ ./examples/convection

#include <algorithm>
#include <cstdio>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

int main() {
  using namespace ttsim;

  constexpr std::uint32_t kW = 128, kH = 64;
  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  std::printf("convection-diffusion: %ux%u cells, drift (+x, +y) with "
              "9-point diffusion\n\n", kW, kH);

  const char* shades = " .:-=+*#%@";
  bool all_exact = true;
  for (int steps : {10, 60, 120}) {
    auto p = core::gallery::convection(kW, kH, steps);
    const auto r = core::run_general_stencil_on_device(p, cfg);

    const auto ref = cpu::general_reference_bf16(p);
    const auto& sref = ref[static_cast<std::size_t>(p.primary_field())];
    bool exact = true;
    for (std::size_t i = 0; i < sref.size(); ++i) {
      if (static_cast<float>(sref[i]) != r.solution[i]) exact = false;
    }
    all_exact = all_exact && exact;

    double mass = 0, mx = 0, my = 0;
    float peak = 0.0f;
    for (std::uint32_t row = 0; row < kH; ++row) {
      for (std::uint32_t col = 0; col < kW; ++col) {
        const float v = r.solution[row * kW + col];
        mass += v;
        mx += static_cast<double>(v) * col;
        my += static_cast<double>(v) * row;
        peak = std::max(peak, v);
      }
    }
    std::printf("t=%3d: centroid (%.1f, %.1f), peak %.3f, %s\n", steps,
                mass > 0 ? mx / mass : 0, mass > 0 ? my / mass : 0,
                static_cast<double>(peak),
                exact ? "bit-exact vs reference" : "MISMATCH");
    for (std::uint32_t row = 0; row < kH; row += 4) {
      for (std::uint32_t col = 0; col < kW; col += 2) {
        const float v = peak > 0 ? r.solution[row * kW + col] / peak : 0.0f;
        std::putchar(shades[std::min(9, static_cast<int>(v * 9.99f))]);
      }
      std::putchar('\n');
    }
    std::putchar('\n');
  }
  return all_exact ? 0 : 1;
}
