#include "ttsim/cpu/stencil_cpu.hpp"

#include <utility>

namespace ttsim::cpu {
namespace {

template <typename T>
struct Halo {
  std::uint32_t w, h;
  std::vector<T> d;
  Halo(std::uint32_t w_, std::uint32_t h_) : w(w_), h(h_) {
    d.assign(static_cast<std::size_t>(w + 2) * (h + 2), T{0.0f});
  }
  T& at(std::int64_t r, std::int64_t c) {
    return d[static_cast<std::size_t>(r + 1) * (w + 2) + static_cast<std::size_t>(c + 1)];
  }
  T at(std::int64_t r, std::int64_t c) const {
    return d[static_cast<std::size_t>(r + 1) * (w + 2) + static_cast<std::size_t>(c + 1)];
  }
};

template <typename T>
Halo<T> init(const core::StencilProblem& p) {
  Halo<T> g(p.width, p.height);
  for (std::int64_t r = 0; r < p.height; ++r) {
    g.at(r, -1) = T{p.bc_left};
    for (std::int64_t c = 0; c < p.width; ++c) {
      const float v = p.initial_field.empty()
                          ? p.initial
                          : p.initial_field[static_cast<std::size_t>(r) * p.width +
                                            static_cast<std::size_t>(c)];
      g.at(r, c) = T{v};
    }
    g.at(r, p.width) = T{p.bc_right};
  }
  for (std::int64_t c = 0; c < p.width; ++c) {
    g.at(-1, c) = T{p.bc_top};
    g.at(p.height, c) = T{p.bc_bottom};
  }
  return g;
}

template <typename T>
std::vector<T> interior(const Halo<T>& g) {
  std::vector<T> out(static_cast<std::size_t>(g.w) * g.h);
  for (std::uint32_t r = 0; r < g.h; ++r) {
    for (std::uint32_t c = 0; c < g.w; ++c) {
      out[static_cast<std::size_t>(r) * g.w + c] = g.at(r, c);
    }
  }
  return out;
}

template <typename T>
Halo<T> init_field(const core::GeneralStencilProblem& p, const core::FieldSpec& f) {
  Halo<T> g(p.width, p.height);
  for (std::int64_t r = 0; r < p.height; ++r) {
    g.at(r, -1) = T{f.bc_left};
    for (std::int64_t c = 0; c < p.width; ++c) {
      const float v = f.initial_field.empty()
                          ? f.initial
                          : f.initial_field[static_cast<std::size_t>(r) * p.width +
                                            static_cast<std::size_t>(c)];
      g.at(r, c) = T{v};
    }
    g.at(r, p.width) = T{f.bc_right};
  }
  for (std::int64_t c = 0; c < p.width; ++c) {
    g.at(-1, c) = T{f.bc_top};
    g.at(p.height, c) = T{f.bc_bottom};
  }
  return g;
}

/// One full run of the general program over halo grids of type T. The tap
/// sum follows the contract exactly (terms in listed order, first product
/// seeds the accumulator, a unit weight's product 1*x exact); in T =
/// bfloat16_t every operation rounds as the FPU does, making this the
/// bit-exact device oracle.
template <typename T>
std::vector<std::vector<T>> run_general(const core::GeneralStencilProblem& p) {
  p.validate();
  std::vector<Halo<T>> u;
  u.reserve(p.fields.size());
  for (const auto& f : p.fields) u.push_back(init_field<T>(p, f));

  for (int it = 0; it < p.iterations; ++it) {
    for (const auto& pass : p.passes) {
      // Compute into a scratch clone, then swap in: the pass reads its own
      // target's pre-pass values, and later passes see the update.
      Halo<T> out = u[static_cast<std::size_t>(pass.target)];
      for (std::int64_t r = 0; r < p.height; ++r) {
        for (std::int64_t c = 0; c < p.width; ++c) {
          bool first = true;
          T acc{0.0f};
          for (const auto& term : pass.terms) {
            const auto& g = u[static_cast<std::size_t>(term.field)];
            const T v = g.at(r + core::tap_dr(term.tap), c + core::tap_dc(term.tap));
            const T prod = T{term.weight} * v;
            acc = first ? prod : acc + prod;
            first = false;
          }
          if (pass.post == core::PostOp::kLife) {
            // Device order: birth mask, survive mask, survive*self, then
            // birth + survive*self. Exact in BF16 (small integers, 0/1).
            const T birth{static_cast<float>(acc) == 3.0f ? 1.0f : 0.0f};
            const T survive{static_cast<float>(acc) == 2.0f ? 1.0f : 0.0f};
            const T self =
                u[static_cast<std::size_t>(pass.post_self_field)].at(r, c);
            acc = birth + survive * self;
          } else if (pass.post == core::PostOp::kScale) {
            acc = T{pass.post_scale} * acc;
          }
          out.at(r, c) = acc;
        }
      }
      std::swap(u[static_cast<std::size_t>(pass.target)], out);
    }
  }

  std::vector<std::vector<T>> result;
  result.reserve(u.size());
  for (const auto& g : u) result.push_back(interior(g));
  return result;
}

}  // namespace

std::vector<std::vector<float>> general_reference_f32(
    const core::GeneralStencilProblem& p) {
  return run_general<float>(p);
}

std::vector<std::vector<bfloat16_t>> general_reference_bf16(
    const core::GeneralStencilProblem& p) {
  return run_general<bfloat16_t>(p);
}

std::vector<float> stencil_reference_f32(const core::StencilProblem& p, int threads) {
  auto u = init<float>(p);
  auto unew = u;
  const auto& s = p.stencil;
  for (int it = 0; it < p.iterations; ++it) {
#ifdef TTSIM_HAVE_OPENMP
#pragma omp parallel for num_threads(threads) schedule(static)
#endif
    for (std::int64_t r = 0; r < p.height; ++r) {
      for (std::int64_t c = 0; c < p.width; ++c) {
        unew.at(r, c) = s.wc * u.at(r, c) + s.ww * u.at(r, c - 1) +
                        s.we * u.at(r, c + 1) + s.wn * u.at(r - 1, c) +
                        s.ws * u.at(r + 1, c);
      }
    }
    std::swap(u, unew);
  }
  (void)threads;
  return interior(u);
}

std::vector<bfloat16_t> stencil_reference_bf16(const core::StencilProblem& p) {
  auto u = init<bfloat16_t>(p);
  auto unew = u;
  const auto& s = p.stencil;
  // Device op order: product per active tap (centre, W, E, N, S), summed
  // left to right, each operation rounded to BF16.
  const std::pair<float, int> taps[] = {
      {s.wc, 0}, {s.ww, 1}, {s.we, 2}, {s.wn, 3}, {s.ws, 4}};
  for (int it = 0; it < p.iterations; ++it) {
    for (std::int64_t r = 0; r < p.height; ++r) {
      for (std::int64_t c = 0; c < p.width; ++c) {
        bool first = true;
        bfloat16_t acc{0.0f};
        for (const auto& [w, which] : taps) {
          if (w == 0.0f) continue;
          bfloat16_t v;
          switch (which) {
            case 0: v = u.at(r, c); break;
            case 1: v = u.at(r, c - 1); break;
            case 2: v = u.at(r, c + 1); break;
            case 3: v = u.at(r - 1, c); break;
            default: v = u.at(r + 1, c); break;
          }
          const bfloat16_t term = bfloat16_t{w} * v;
          acc = first ? term : acc + term;
          first = false;
        }
        unew.at(r, c) = acc;
      }
    }
    std::swap(u, unew);
  }
  return interior(u);
}

}  // namespace ttsim::cpu
