/// \file conway.cpp
/// Conway's Game of Life via the generic stencil frontend: eight
/// unit-weight neighbour taps feed the threshold post-op
/// (S==3) + (S==2)*self — the non-linear stress case for the lowering.
/// A deterministic soup evolves on the device; every generation shown is
/// verified bit-exactly against the CPU reference.
///
///   $ ./examples/conway

#include <cstdio>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

int main() {
  using namespace ttsim;

  constexpr std::uint32_t kW = 96, kH = 48;
  constexpr std::uint64_t kSeed = 42;
  core::DeviceRunConfig cfg;
  cfg.cores_y = 4;

  std::printf("Conway's Game of Life: %ux%u soup, seed %llu\n\n", kW, kH,
              static_cast<unsigned long long>(kSeed));

  bool all_exact = true;
  for (int gens : {1, 8, 32}) {
    auto p = core::gallery::life(kW, kH, gens, kSeed);
    const auto r = core::run_general_stencil_on_device(p, cfg);

    const auto ref = cpu::general_reference_bf16(p);
    bool exact = true;
    int live = 0;
    for (std::size_t i = 0; i < r.solution.size(); ++i) {
      if (static_cast<float>(ref[0][i]) != r.solution[i]) exact = false;
      live += r.solution[i] != 0.0f;
    }
    all_exact = all_exact && exact;
    std::printf("gen %3d: %d live cells (%.1f%%), %s\n", gens, live,
                100.0 * live / (kW * kH),
                exact ? "bit-exact vs reference" : "MISMATCH");
    for (std::uint32_t row = 0; row < kH; row += 2) {
      for (std::uint32_t col = 0; col < kW; ++col) {
        // Two rows per character: block glyph by which halves are alive.
        const bool top = r.solution[row * kW + col] != 0.0f;
        const bool bot = row + 1 < kH && r.solution[(row + 1) * kW + col] != 0.0f;
        std::printf("%s", top ? (bot ? "#" : "\"") : (bot ? "," : " "));
      }
      std::putchar('\n');
    }
    std::putchar('\n');
  }
  return all_exact ? 0 : 1;
}
