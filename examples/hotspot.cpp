/// \file hotspot.cpp
/// Thermal simulation with a static power-density field, via the generic
/// stencil frontend: temperature diffuses (FTCS) while two hot blocks in
/// the read-only power map inject heat. Demonstrates a two-field program
/// (one streamed and updated, one streamed read-only) lowered onto the
/// row-chunk kernels, verified bit-exactly against the BF16 CPU reference.
///
///   $ ./examples/hotspot

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

int main() {
  using namespace ttsim;

  constexpr std::uint32_t kW = 128, kH = 64;
  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  std::printf("hotspot: %ux%u thermal grid, two powered blocks\n\n", kW, kH);

  const char* shades = " .:-=+*#%@";
  bool all_exact = true;
  for (int steps : {10, 40, 160}) {
    auto p = core::gallery::hotspot(kW, kH, steps);
    const auto r = core::run_general_stencil_on_device(p, cfg);

    const auto ref = cpu::general_reference_bf16(p);
    const auto& temp_ref = ref[static_cast<std::size_t>(p.primary_field())];
    bool exact = true;
    for (std::size_t i = 0; i < temp_ref.size(); ++i) {
      if (static_cast<float>(temp_ref[i]) != r.solution[i]) exact = false;
    }
    all_exact = all_exact && exact;

    float peak = 0.0f, mean = 0.0f;
    for (const float v : r.solution) {
      peak = std::max(peak, v);
      mean += v;
    }
    mean /= static_cast<float>(r.solution.size());
    const double gpts = r.kernel_time > 0
        ? static_cast<double>(kW) * kH * steps / 1e9 / to_seconds(r.kernel_time)
        : 0.0;
    std::printf("t=%3d: peak %.3f, mean %.3f, %d cores, %.3f GPt/s, %s\n",
                steps, static_cast<double>(peak), static_cast<double>(mean),
                r.cores_used, gpts, exact ? "bit-exact vs reference" : "MISMATCH");
    for (std::uint32_t row = 0; row < kH; row += 4) {
      for (std::uint32_t col = 0; col < kW; col += 2) {
        const float v = peak > 0 ? r.solution[row * kW + col] / peak : 0.0f;
        const int s = std::min(9, static_cast<int>(v * 9.99f));
        std::putchar(shades[std::max(0, s)]);
      }
      std::putchar('\n');
    }
    std::putchar('\n');
  }
  return all_exact ? 0 : 1;
}
