#include "ttsim/cpu/jacobi_cpu.hpp"

#include <chrono>
#include <utility>

#ifdef TTSIM_HAVE_OPENMP
#include <omp.h>
#endif

namespace ttsim::cpu {
namespace {

/// Working grid with one halo cell on each side; (width+2) x (height+2).
template <typename T>
struct HaloGrid {
  std::uint32_t width, height;
  std::vector<T> data;

  HaloGrid(std::uint32_t w, std::uint32_t h) : width(w), height(h) {
    data.assign(static_cast<std::size_t>(w + 2) * (h + 2), T{0.0f});
  }
  T& at(std::int64_t row, std::int64_t col) {
    return data[static_cast<std::size_t>(row + 1) * (width + 2) +
                static_cast<std::size_t>(col + 1)];
  }
  T at(std::int64_t row, std::int64_t col) const {
    return data[static_cast<std::size_t>(row + 1) * (width + 2) +
                static_cast<std::size_t>(col + 1)];
  }
};

template <typename T>
HaloGrid<T> initial_grid(const core::JacobiProblem& p) {
  HaloGrid<T> g(p.width, p.height);
  for (std::int64_t r = 0; r < p.height; ++r) {
    g.at(r, -1) = T{p.bc_left};
    for (std::int64_t c = 0; c < p.width; ++c) g.at(r, c) = T{p.initial};
    g.at(r, p.width) = T{p.bc_right};
  }
  for (std::int64_t c = 0; c < p.width; ++c) {
    g.at(-1, c) = T{p.bc_top};
    g.at(p.height, c) = T{p.bc_bottom};
  }
  return g;
}

template <typename T>
std::vector<T> interior_of(const HaloGrid<T>& g) {
  std::vector<T> out(static_cast<std::size_t>(g.width) * g.height);
  for (std::uint32_t r = 0; r < g.height; ++r) {
    for (std::uint32_t c = 0; c < g.width; ++c) {
      out[static_cast<std::size_t>(r) * g.width + c] = g.at(r, c);
    }
  }
  return out;
}

void sweep_f32(const HaloGrid<float>& u, HaloGrid<float>& unew, int threads) {
  const std::int64_t h = u.height, w = u.width;
#ifdef TTSIM_HAVE_OPENMP
#pragma omp parallel for num_threads(threads) schedule(static)
#endif
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t c = 0; c < w; ++c) {
      // W, E, N, S: the device's (and to_general's) summation order.
      unew.at(r, c) = 0.25f * (u.at(r, c - 1) + u.at(r, c + 1) + u.at(r - 1, c) +
                               u.at(r + 1, c));
    }
  }
  (void)threads;
}

}  // namespace

std::vector<float> jacobi_reference_f32(const core::JacobiProblem& p, int threads) {
  auto u = initial_grid<float>(p);
  auto unew = u;  // boundary cells preserved across swaps
  for (int it = 0; it < p.iterations; ++it) {
    sweep_f32(u, unew, threads);
    std::swap(u, unew);
  }
  return interior_of(u);
}

std::vector<bfloat16_t> jacobi_reference_bf16(const core::JacobiProblem& p) {
  return jacobi_reference_bf16_cards(p, 1);
}

std::vector<bfloat16_t> jacobi_reference_bf16_cards(const core::JacobiProblem& p,
                                                    int cards) {
  TTSIM_CHECK(cards >= 1);
  auto u = initial_grid<bfloat16_t>(p);
  auto unew = u;
  // Card cut rows: the domain splits into `cards` horizontal slabs; rows on
  // either side of a cut see a frozen halo (the neighbour slab's values
  // never propagate — paper Section VII's admitted incorrectness).
  std::vector<std::int64_t> slab_of(p.height);
  {
    const std::int64_t base = p.height / cards, extra = p.height % cards;
    std::int64_t row = 0;
    for (std::int64_t s = 0; s < cards; ++s) {
      const std::int64_t n = base + (s < extra ? 1 : 0);
      for (std::int64_t k = 0; k < n; ++k) slab_of[static_cast<std::size_t>(row++)] = s;
    }
  }
  for (int it = 0; it < p.iterations; ++it) {
    for (std::int64_t r = 0; r < p.height; ++r) {
      for (std::int64_t c = 0; c < p.width; ++c) {
        // Cross-cut neighbours read the frozen initial value.
        const bool cut_up = r > 0 && slab_of[static_cast<std::size_t>(r)] !=
                                         slab_of[static_cast<std::size_t>(r - 1)];
        const bool cut_down = r + 1 < p.height &&
                              slab_of[static_cast<std::size_t>(r)] !=
                                  slab_of[static_cast<std::size_t>(r + 1)];
        const bfloat16_t ym = cut_up ? bfloat16_t{p.initial} : u.at(r - 1, c);
        const bfloat16_t yp = cut_down ? bfloat16_t{p.initial} : u.at(r + 1, c);
        const bfloat16_t xm = u.at(r, c - 1);
        const bfloat16_t xp = u.at(r, c + 1);
        // Device operation order: ((xm + xp) + ym) + yp, then * 0.25.
        const bfloat16_t sum = ((xm + xp) + ym) + yp;
        unew.at(r, c) = sum * bfloat16_t{0.25f};
      }
    }
    std::swap(u, unew);
  }
  return interior_of(u);
}

HostMeasurement measure_host_jacobi(const core::JacobiProblem& p, int threads) {
  auto u = initial_grid<float>(p);
  auto unew = u;
  const auto t0 = std::chrono::steady_clock::now();
  for (int it = 0; it < p.iterations; ++it) {
    sweep_f32(u, unew, threads);
    std::swap(u, unew);
  }
  const auto t1 = std::chrono::steady_clock::now();
  HostMeasurement m;
  m.threads = threads;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.gpts = m.seconds > 0
               ? static_cast<double>(p.total_updates()) / 1e9 / m.seconds
               : 0.0;
  // Keep the optimiser honest about the result.
  volatile float sink = u.at(0, 0);
  (void)sink;
  return m;
}

int max_host_threads() {
#ifdef TTSIM_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace ttsim::cpu
