/// \file stencil_spec.cpp
/// Structural validation, canonical hashing and the classic Jacobi lift
/// for the general radius-1 stencil frontend.

#include <cmath>
#include <cstring>

#include "ttsim/core/stencil_spec.hpp"

namespace ttsim::core {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

std::uint64_t float_bits(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

}  // namespace

const char* to_string(Tap t) {
  switch (t) {
    case Tap::kC: return "C";
    case Tap::kW: return "W";
    case Tap::kE: return "E";
    case Tap::kN: return "N";
    case Tap::kS: return "S";
    case Tap::kNW: return "NW";
    case Tap::kNE: return "NE";
    case Tap::kSW: return "SW";
    case Tap::kSE: return "SE";
  }
  return "?";
}

void GeneralStencilProblem::validate() const {
  if (fields.empty()) TTSIM_THROW_API("stencil program has no fields");
  if (fields.size() > 4) {
    TTSIM_THROW_API("stencil program has " << fields.size()
                                           << " fields; at most 4 supported");
  }
  if (passes.empty()) TTSIM_THROW_API("stencil program has no passes");
  if (iterations < 1) TTSIM_THROW_API("need at least one iteration");
  const int nf = static_cast<int>(fields.size());
  std::vector<bool> written(fields.size(), false);
  std::vector<bool> used(fields.size(), false);
  for (const auto& pass : passes) {
    if (pass.target < 0 || pass.target >= nf) {
      TTSIM_THROW_API("pass targets field " << pass.target << " of " << nf);
    }
    if (written[static_cast<std::size_t>(pass.target)]) {
      TTSIM_THROW_API("field " << pass.target
                               << " is targeted by more than one pass");
    }
    written[static_cast<std::size_t>(pass.target)] = true;
    used[static_cast<std::size_t>(pass.target)] = true;
    if (pass.terms.empty()) TTSIM_THROW_API("pass has no non-zero tap terms");
    for (const auto& term : pass.terms) {
      if (term.field < 0 || term.field >= nf) {
        TTSIM_THROW_API("tap term reads field " << term.field << " of " << nf);
      }
      if (static_cast<int>(term.tap) >= kNumTaps) {
        TTSIM_THROW_API("tap term uses tap " << static_cast<int>(term.tap));
      }
      used[static_cast<std::size_t>(term.field)] = true;
    }
    if (pass.post == PostOp::kLife) {
      if (pass.post_self_field < 0 || pass.post_self_field >= nf) {
        TTSIM_THROW_API("life post-op reads field " << pass.post_self_field
                                                    << " of " << nf);
      }
      used[static_cast<std::size_t>(pass.post_self_field)] = true;
    }
    if (pass.post == PostOp::kScale && !std::isfinite(pass.post_scale)) {
      TTSIM_THROW_API("scale post-op factor must be finite");
    }
  }
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (!used[f]) {
      TTSIM_THROW_API("field " << f << " (" << fields[f].name
                               << ") is neither written nor read");
    }
    TTSIM_CHECK_MSG(
        fields[f].initial_field.empty() || fields[f].initial_field.size() == points(),
        "field " << f << " (" << fields[f].name
                 << ") initial_field must be width*height values");
  }
}

std::uint64_t GeneralStencilProblem::transition_hash() const {
  std::uint64_t h = kFnvOffset;
  fnv(h, fields.size());
  fnv(h, passes.size());
  for (const auto& pass : passes) {
    fnv(h, static_cast<std::uint64_t>(pass.target));
    fnv(h, static_cast<std::uint64_t>(pass.post));
    fnv(h, static_cast<std::uint64_t>(pass.post_self_field));
    // Hashed only when used, so programs without a scale keep their hash.
    if (pass.post == PostOp::kScale) fnv(h, float_bits(pass.post_scale));
    fnv(h, pass.terms.size());
    for (const auto& term : pass.terms) {
      fnv(h, static_cast<std::uint64_t>(term.field));
      fnv(h, static_cast<std::uint64_t>(term.tap));
      fnv(h, float_bits(term.weight));
    }
  }
  return h;
}

GeneralStencilProblem to_general(const JacobiProblem& p) {
  GeneralStencilProblem g;
  g.width = p.width;
  g.height = p.height;
  g.iterations = p.iterations;
  FieldSpec f;
  f.name = "u";
  f.bc_left = p.bc_left;
  f.bc_right = p.bc_right;
  f.bc_top = p.bc_top;
  f.bc_bottom = p.bc_bottom;
  f.initial = p.initial;
  g.fields.push_back(std::move(f));
  StencilPass pass;
  pass.target = 0;
  for (const Tap tap : {Tap::kW, Tap::kE, Tap::kN, Tap::kS}) {
    pass.terms.push_back(TapTerm{0, tap, 1.0f});
  }
  pass.post = PostOp::kScale;
  pass.post_scale = 0.25f;
  g.passes.push_back(std::move(pass));
  return g;
}

}  // namespace ttsim::core
