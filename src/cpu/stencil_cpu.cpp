#include "ttsim/cpu/stencil_cpu.hpp"

#include <optional>
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
  // One scratch grid per written field, cloned once so its boundary cells
  // hold the field's: a pass fills the scratch interior and then trades
  // places with the field. The pass thus reads its own target's pre-pass
  // values, and later passes see the update.
  std::vector<std::optional<Halo<T>>> scratch(p.fields.size());
  for (const auto& pass : p.passes) {
    auto& s = scratch[static_cast<std::size_t>(pass.target)];
    if (!s) s = u[static_cast<std::size_t>(pass.target)];
  }

  // A term reads its field at a fixed offset from the point: the field's
  // data shifted by the tap, indexed by the point's halo-grid position.
  struct Term {
    const T* base;
    T weight;
  };
  const std::size_t stride = static_cast<std::size_t>(p.width) + 2;
  auto at_point = [stride](std::int64_t dr, std::int64_t dc) {
    return static_cast<std::size_t>(1 + dr) * stride + static_cast<std::size_t>(1 + dc);
  };
  std::vector<Term> terms;
  for (int it = 0; it < p.iterations; ++it) {
    for (const auto& pass : p.passes) {
      terms.clear();
      for (const auto& term : pass.terms) {
        terms.push_back({u[static_cast<std::size_t>(term.field)].d.data() +
                             at_point(core::tap_dr(term.tap), core::tap_dc(term.tap)),
                         T{term.weight}});
      }
      const T* self = u[static_cast<std::size_t>(pass.post_self_field)].d.data() +
                      at_point(0, 0);
      const T post_scale{pass.post_scale};
      Halo<T>& out = *scratch[static_cast<std::size_t>(pass.target)];
      T* dst = out.d.data() + at_point(0, 0);
      for (std::size_t r = 0; r < p.height; ++r) {
        for (std::size_t c = 0; c < p.width; ++c) {
          const std::size_t i = r * stride + c;
          // validate() guarantees a term; the first product seeds the sum.
          T acc = terms[0].weight * terms[0].base[i];
          for (std::size_t t = 1; t < terms.size(); ++t) {
            acc = acc + terms[t].weight * terms[t].base[i];
          }
          if (pass.post == core::PostOp::kLife) {
            // Device order: birth mask, survive mask, survive*self, then
            // birth + survive*self. Exact in BF16 (small integers, 0/1).
            const T birth{static_cast<float>(acc) == 3.0f ? 1.0f : 0.0f};
            const T survive{static_cast<float>(acc) == 2.0f ? 1.0f : 0.0f};
            acc = birth + survive * self[i];
          } else if (pass.post == core::PostOp::kScale) {
            acc = post_scale * acc;
          }
          dst[i] = acc;
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

}  // namespace ttsim::cpu
