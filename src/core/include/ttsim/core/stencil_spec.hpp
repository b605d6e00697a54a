#pragma once
/// \file stencil_spec.hpp
/// Device-independent description of radius-1 stencils and their problem
/// geometry (split from stencil.hpp so CPU references build without the
/// device SDK): a GeneralStencilProblem names up to four fields, and each
/// of its passes is a per-cell transition over the 3x3 neighbourhood of
/// any field (a weighted tap sum, optionally followed by a threshold or
/// scale post-op), evaluated in BF16 with a FIXED tap order so the device
/// and the CPU reference agree bit for bit. A 5-point weighted stencil is
/// one pass of up to five terms (C, W, E, N, S).
///
/// The tap-order contract (see DESIGN.md, "Generic stencil frontend"):
/// terms are evaluated in their listed order — each term is one rounded
/// BF16 product weight*value, the first product seeds the accumulator and
/// every later one is added left to right, each operation rounded to BF16.
/// Two rules refine it:
///   * U: a term whose weight is exactly 1.0f contributes its value with no
///     multiply (1*x is exact in BF16, so the sum is unchanged) and takes
///     no weight-table entry on the device;
///   * S: a pass may end with PostOp::kScale, out = S * post_scale as one
///     rounded BF16 product.
/// With them classic Jacobi, ((xm + xp) + ym + yp) * 0.25, is the one-pass
/// program to_general(const JacobiProblem&) builds.
/// Factories list taps in the canonical order C, W, E, N, S, NW, NE, SW,
/// SE. Halo corner cells (outside both an edge row and an edge column)
/// hold 0 on the device image and in the reference — diagonal taps of
/// corner cells see that zero on both sides.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ttsim/core/problem.hpp"

namespace ttsim::core {

/// The nine taps of the 3x3 neighbourhood in their canonical (contract)
/// order.
enum class Tap : std::uint8_t { kC = 0, kW, kE, kN, kS, kNW, kNE, kSW, kSE };

inline constexpr int kNumTaps = 9;

/// Row offset of a tap (-1 = north of the cell).
constexpr int tap_dr(Tap t) {
  constexpr std::array<int, kNumTaps> dr = {0, 0, 0, -1, 1, -1, -1, 1, 1};
  return dr[static_cast<std::size_t>(t)];
}
/// Column offset of a tap (-1 = west of the cell).
constexpr int tap_dc(Tap t) {
  constexpr std::array<int, kNumTaps> dc = {0, -1, 1, 0, 0, -1, 1, -1, 1};
  return dc[static_cast<std::size_t>(t)];
}

const char* to_string(Tap t);

/// One weighted tap term of a transition: weight * field[tap offset].
struct TapTerm {
  int field = 0;
  Tap tap = Tap::kC;
  float weight = 0.0f;
};

/// Optional non-linear step applied after the weighted tap sum S.
enum class PostOp : std::uint8_t {
  kNone,
  /// Game-of-Life threshold: out = (S == 3) + (S == 2) * self, where self
  /// is the centre value of `StencilPass::post_self_field`. With 0/1 cell
  /// states and integer neighbour counts every operation is BF16-exact.
  kLife,
  /// Scale: out = S * post_scale, one rounded BF16 product (rule S).
  kScale,
};

/// One per-cell update: target = post(sum of terms). Terms are evaluated
/// in listed order (the tap-order contract); factories list them in
/// canonical tap order with zero-weight taps omitted.
struct StencilPass {
  int target = 0;                ///< field index written by this pass
  std::vector<TapTerm> terms;    ///< evaluated in order, all BF16
  PostOp post = PostOp::kNone;
  int post_self_field = 0;       ///< kLife: field supplying the survive state
  float post_scale = 1.0f;       ///< kScale: the factor S is multiplied by
};

/// Per-field geometry data: boundary values and the initial interior.
struct FieldSpec {
  std::string name;              ///< for diagnostics / gallery tables
  float bc_left = 0.0f, bc_right = 0.0f, bc_top = 0.0f, bc_bottom = 0.0f;
  float initial = 0.0f;
  /// Optional non-uniform initial interior (row-major width*height);
  /// overrides `initial` when non-empty.
  std::vector<float> initial_field;
};

/// A multi-field radius-1 stencil program: every iteration runs the passes
/// in order; a pass reading a field another pass already wrote THIS
/// iteration sees the updated values (FDTD's leapfrog), otherwise the
/// previous iteration's. At most one pass may target a given field.
struct GeneralStencilProblem {
  std::uint32_t width = 256;
  std::uint32_t height = 256;
  int iterations = 100;
  std::vector<FieldSpec> fields;   ///< at most 4 (CB id budget)
  std::vector<StencilPass> passes;

  std::uint64_t points() const {
    return static_cast<std::uint64_t>(width) * height;
  }
  std::uint64_t total_updates() const {
    return points() * static_cast<std::uint64_t>(iterations) * passes.size();
  }
  /// Index of the pass writing field `f`, or -1 (read-only field).
  int written_pass(int f) const {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      if (passes[p].target == f) return static_cast<int>(p);
    }
    return -1;
  }
  /// The field whose final state a run returns as `solution`: the target
  /// of the LAST pass (FDTD's Ez, and trivially the single updated field
  /// of one-pass problems).
  int primary_field() const {
    return passes.empty() ? 0 : passes.back().target;
  }
  /// Structural throw-on-invalid check (field/tap indices in range, at
  /// most one writer per field, every field used, initial_field sizes).
  void validate() const;
  /// Canonical FNV-1a hash over the transition structure and weights
  /// (NOT boundary/initial data): two problems with equal hashes compile
  /// to the same kernels, the serving layer's session-key ingredient.
  std::uint64_t transition_hash() const;
  /// The equivalent Jacobi-problem view (layout/decomposition reuse);
  /// carries the geometry only, not any field's boundary data.
  JacobiProblem geometry() const {
    JacobiProblem p;
    p.width = width;
    p.height = height;
    p.iterations = iterations;
    return p;
  }
};

/// Classic Jacobi as the general program it is: one field "u" with the
/// problem's boundary and initial values, and one pass of the W, E, N, S
/// taps at weight 1 ending in a kScale of 0.25 — ((xm + xp) + ym + yp) *
/// 0.25, bit for bit, by rules U and S of the tap-order contract.
GeneralStencilProblem to_general(const JacobiProblem& p);

}  // namespace ttsim::core
