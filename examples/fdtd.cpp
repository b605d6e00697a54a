/// \file fdtd.cpp
/// 2-D FDTD (transverse-electric mode) via the generic stencil frontend:
/// three fields (Hx, Hy, Ez) advanced by three leapfrog passes per step,
/// with the E-pass reading the freshly updated H fields — the multi-pass
/// immediate-visibility contract. A centred Ez pulse radiates outward; all
/// three device fields are verified bit-exactly against the CPU reference.
///
///   $ ./examples/fdtd

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

int main() {
  using namespace ttsim;

  constexpr std::uint32_t kW = 96, kH = 64;
  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  std::printf("FDTD-2D (TE mode): %ux%u grid, centred Ez pulse\n\n", kW, kH);

  bool all_exact = true;
  for (int steps : {4, 12, 24}) {
    auto p = core::gallery::fdtd2d(kW, kH, steps);
    const auto r = core::run_general_stencil_on_device(p, cfg);

    const auto ref = cpu::general_reference_bf16(p);
    bool exact = true;
    for (std::size_t f = 0; f < ref.size(); ++f) {
      for (std::size_t i = 0; i < ref[f].size(); ++i) {
        if (static_cast<float>(ref[f][i]) != r.fields[f][i]) exact = false;
      }
    }
    all_exact = all_exact && exact;

    double energy = 0.0;
    float peak = 0.0f;
    for (const auto& field : r.fields) {
      for (const float v : field) energy += static_cast<double>(v) * v;
    }
    for (const float v : r.solution) peak = std::max(peak, std::abs(v));
    std::printf("t=%3d: field energy %.3f, |Ez| peak %.3f, %s\n", steps, energy,
                static_cast<double>(peak),
                exact ? "all 3 fields bit-exact vs reference" : "MISMATCH");

    // Render |Ez| — the expanding wavefront.
    const char* shades = " .:-=+*#%@";
    for (std::uint32_t row = 0; row < kH; row += 4) {
      for (std::uint32_t col = 0; col < kW; col += 2) {
        const float v = peak > 0 ? std::abs(r.solution[row * kW + col]) / peak : 0.0f;
        std::putchar(shades[std::min(9, static_cast<int>(v * 9.99f))]);
      }
      std::putchar('\n');
    }
    std::putchar('\n');
  }
  return all_exact ? 0 : 1;
}
