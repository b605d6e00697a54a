/// \file test_stencil_cpu.cpp
/// Unit tests for the general-stencil CPU references: boundary handling
/// (including the zero halo corners of the tap-order contract), BF16
/// tap-order rounding, multi-pass visibility, the Life post-op, and the
/// multi-field FDTD gallery workload.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ttsim/bfloat/bfloat16.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/stencil_spec.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

namespace ttsim {
namespace {

core::GeneralStencilProblem identity_problem(std::uint32_t w, std::uint32_t h) {
  core::GeneralStencilProblem g;
  g.width = w;
  g.height = h;
  g.iterations = 1;
  core::FieldSpec f;
  f.name = "u";
  g.fields.push_back(std::move(f));
  core::StencilPass pass;
  pass.target = 0;
  pass.terms.push_back(core::TapTerm{0, core::Tap::kC, 1.0f});
  g.passes.push_back(std::move(pass));
  return g;
}

TEST(StencilCpu, IdentityPreservesInterior) {
  auto g = identity_problem(32, 8);
  g.fields[0].initial_field.assign(32 * 8, 0.0f);
  for (std::size_t i = 0; i < g.fields[0].initial_field.size(); ++i) {
    g.fields[0].initial_field[i] = static_cast<float>(i % 7) * 0.25f;
  }
  const auto out = cpu::general_reference_f32(g);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), g.fields[0].initial_field.size());
  for (std::size_t i = 0; i < out[0].size(); ++i) {
    // One C-only tap with weight 1: a single BF16 multiply by 1.0 is exact.
    EXPECT_EQ(out[0][i],
              static_cast<float>(bfloat16_t(g.fields[0].initial_field[i])))
        << "elem " << i;
  }
}

/// A pure-West shift drags the left boundary constant into column 0; the
/// top row's West tap still reads the boundary value, not zero.
TEST(StencilCpu, BoundaryConstantsEnterFromEdges) {
  auto g = identity_problem(32, 6);
  g.passes[0].terms[0] = core::TapTerm{0, core::Tap::kW, 1.0f};
  g.fields[0].bc_left = 2.0f;
  g.fields[0].initial = 0.0f;
  const auto out = cpu::general_reference_f32(g);
  for (std::uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(out[0][r * 32 + 0], 2.0f) << "row " << r;   // saw bc_left
    EXPECT_EQ(out[0][r * 32 + 1], 0.0f) << "row " << r;   // saw interior
  }
}

/// Diagonal taps never see a boundary corner value: the halo corners are
/// zero by the tap-order contract, so the NW tap of the top-left cell
/// contributes 0 even when both adjacent edges carry non-zero constants.
TEST(StencilCpu, HaloCornersAreZero) {
  auto g = identity_problem(32, 6);
  g.passes[0].terms[0] = core::TapTerm{0, core::Tap::kNW, 1.0f};
  g.fields[0].bc_left = 3.0f;
  g.fields[0].bc_top = 5.0f;
  g.fields[0].initial = 0.0f;
  const auto out = cpu::general_reference_f32(g);
  EXPECT_EQ(out[0][0], 0.0f) << "NW of (0,0) is the zero halo corner";
  EXPECT_EQ(out[0][1], 5.0f) << "NW of (0,1) is the top boundary";
  EXPECT_EQ(out[0][32], 3.0f) << "NW of (1,0) is the left boundary";
}

/// BF16 accumulation is order-sensitive: the reference must add terms in
/// listed order, rounding after every product and every sum. Reversing the
/// term order changes the bits for values chosen to straddle a rounding
/// boundary — this pins the tap-order contract.
TEST(StencilCpu, Bf16RoundingIsTapOrderSensitive) {
  auto make = [](bool reversed) {
    core::GeneralStencilProblem g;
    g.width = 16;
    g.height = 1;
    g.iterations = 1;
    core::FieldSpec f;
    f.name = "u";
    // BF16 ulp in [1,2) is 2^-7. On a uniform field of 1.0, forward order
    // accumulates (1.0 + 2^-8) -> tie, rounds to even 1.0, + 2^-8 -> 1.0
    // again; reversed order gets 2^-8 + 2^-8 = 2^-7 (exact), + 1.0 ->
    // 1 + 2^-7, exactly representable. Same taps, different bits.
    f.initial = 1.0f;
    g.fields.push_back(std::move(f));
    core::StencilPass pass;
    pass.target = 0;
    std::vector<core::TapTerm> terms = {
        core::TapTerm{0, core::Tap::kC, 1.0f},
        core::TapTerm{0, core::Tap::kW, 0.00390625f},
        core::TapTerm{0, core::Tap::kE, 0.00390625f},
    };
    if (reversed) std::reverse(terms.begin(), terms.end());
    pass.terms = terms;
    g.passes.push_back(std::move(pass));
    return g;
  };
  const auto fwd = cpu::general_reference_bf16(make(false));
  const auto rev = cpu::general_reference_bf16(make(true));
  bool any_diff = false;
  for (std::size_t i = 0; i < fwd[0].size(); ++i) {
    if (fwd[0][i].bits() != rev[0][i].bits()) any_diff = true;
  }
  EXPECT_TRUE(any_diff)
      << "term order should be observable in BF16 accumulation";
}

/// The BF16 reference is the exact widening of itself: f32-of-bf16 output
/// must round-trip (a self-consistency guard for the widening used by the
/// device readback comparisons).
TEST(StencilCpu, Bf16ReferenceRoundTrips) {
  const auto g = core::gallery::convection(32, 8, 3);
  const auto bf = cpu::general_reference_bf16(g);
  for (const auto& field : bf) {
    for (const auto v : field) {
      const bfloat16_t again(static_cast<float>(v));
      EXPECT_EQ(again.bits(), v.bits());
    }
  }
}

/// Pass order is immediate-visibility: a second pass reading the first
/// pass's target sees this iteration's update.
TEST(StencilCpu, MultiPassSeesEarlierPassUpdates) {
  core::GeneralStencilProblem g;
  g.width = 16;
  g.height = 2;
  g.iterations = 1;
  core::FieldSpec a;
  a.name = "a";
  a.initial = 1.0f;
  g.fields.push_back(std::move(a));
  core::FieldSpec b;
  b.name = "b";
  b.initial = 0.0f;
  g.fields.push_back(std::move(b));
  core::StencilPass pa;  // a' = 2a
  pa.target = 0;
  pa.terms.push_back(core::TapTerm{0, core::Tap::kC, 2.0f});
  g.passes.push_back(std::move(pa));
  core::StencilPass pb;  // b' = a (must see a' = 2, not a = 1)
  pb.target = 1;
  pb.terms.push_back(core::TapTerm{0, core::Tap::kC, 1.0f});
  g.passes.push_back(std::move(pb));
  const auto out = cpu::general_reference_f32(g);
  EXPECT_EQ(out[0][0], 2.0f);
  EXPECT_EQ(out[1][0], 2.0f) << "pass 2 must read pass 1's update";
}

/// A Life glider translates one cell down-right every 4 generations —
/// end-to-end check of the 8-tap sum plus the (S==3) + (S==2)*self post-op.
TEST(StencilCpu, LifeGliderMoves) {
  core::GeneralStencilProblem g = core::gallery::life(32, 16, 4, /*seed=*/1);
  auto& init = g.fields[0].initial_field;
  init.assign(32 * 16, 0.0f);
  auto set = [&](int r, int c) { init[static_cast<std::size_t>(r) * 32 + c] = 1.0f; };
  // Glider: .X. / ..X / XXX  with top-left at (2,2).
  set(2, 3);
  set(3, 4);
  set(4, 2);
  set(4, 3);
  set(4, 4);
  const auto out = cpu::general_reference_f32(g);
  auto alive = [&](int r, int c) {
    return out[0][static_cast<std::size_t>(r) * 32 + c] != 0.0f;
  };
  // After 4 generations the same glider sits one cell down-right.
  EXPECT_TRUE(alive(3, 4));
  EXPECT_TRUE(alive(4, 5));
  EXPECT_TRUE(alive(5, 3));
  EXPECT_TRUE(alive(5, 4));
  EXPECT_TRUE(alive(5, 5));
  int live = 0;
  for (const auto v : out[0]) live += v != 0.0f;
  EXPECT_EQ(live, 5) << "glider population is conserved";
}

/// Multi-field FDTD: energy stays finite over many steps, the H fields are
/// antisymmetric around the centred pulse, and the BF16 reference tracks
/// the f32 one to BF16 precision.
TEST(StencilCpu, FdtdMultiFieldConsistency) {
  const std::uint32_t w = 48, h = 24;
  const auto g = core::gallery::fdtd2d(w, h, 10);
  ASSERT_EQ(g.fields.size(), 3u);
  const auto f32 = cpu::general_reference_f32(g);
  const auto bf = cpu::general_reference_bf16(g);
  ASSERT_EQ(f32.size(), 3u);
  ASSERT_EQ(bf.size(), 3u);
  double energy = 0.0;
  for (std::size_t f = 0; f < 3; ++f) {
    for (std::size_t i = 0; i < f32[f].size(); ++i) {
      ASSERT_TRUE(std::isfinite(f32[f][i])) << "field " << f << " elem " << i;
      energy += static_cast<double>(f32[f][i]) * f32[f][i];
      // BF16 has ~3 decimal digits; the replay should stay within a few
      // ulps of the f32 trajectory over 10 steps.
      EXPECT_NEAR(static_cast<float>(bf[f][i]), f32[f][i],
                  0.1f * (1.0f + std::abs(f32[f][i])))
          << "field " << f << " elem " << i;
    }
  }
  EXPECT_GT(energy, 0.0) << "the pulse did not vanish";
}

/// The legacy 5-point lift agrees with the dedicated 5-point reference —
/// the bridge both device paths rely on.
TEST(StencilCpu, ToGeneralMatchesLegacyReference) {
  core::StencilProblem p;
  p.width = 32;
  p.height = 12;
  p.iterations = 4;
  p.stencil = {0.5f, 0.125f, 0.125f, 0.125f, 0.125f};
  p.bc_left = 1.0f;
  const auto legacy = cpu::stencil_reference_bf16(p);
  const auto general = cpu::general_reference_bf16(core::to_general(p));
  ASSERT_EQ(general.size(), 1u);
  ASSERT_EQ(general[0].size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(general[0][i].bits(), legacy[i].bits()) << "elem " << i;
  }
}

/// The Jacobi == general contract: to_general(JacobiProblem) — unit-weight
/// W, E, N, S terms and a 0.25 scale — replays classic Jacobi's
/// ((xm + xp) + ym + yp) * 0.25 bit for bit in BF16, over seeded shapes,
/// boundary values, initial values and 1-6 iterations. In FP32 the classic
/// reference sums the taps in another order (S, N, E, W), so there the two
/// agree to rounding only.
TEST(StencilCpu, JacobiIsTheGeneralProgramToGeneralMakes) {
  Rng rng(0x4A4C0B1ULL);
  for (int trial = 0; trial < 24; ++trial) {
    core::JacobiProblem p;
    p.width = static_cast<std::uint32_t>(rng.next_int(1, 40));
    p.height = static_cast<std::uint32_t>(rng.next_int(1, 40));
    p.iterations = static_cast<int>(rng.next_int(1, 6));
    p.bc_left = static_cast<float>(rng.next_double(-2.0, 2.0));
    p.bc_right = static_cast<float>(rng.next_double(-2.0, 2.0));
    p.bc_top = static_cast<float>(rng.next_double(-2.0, 2.0));
    p.bc_bottom = static_cast<float>(rng.next_double(-2.0, 2.0));
    p.initial = static_cast<float>(rng.next_double(-2.0, 2.0));
    const core::GeneralStencilProblem g = core::to_general(p);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << p.width << "x"
                                    << p.height << " it=" << p.iterations);

    const auto classic = cpu::jacobi_reference_bf16(p);
    const auto general = cpu::general_reference_bf16(g);
    ASSERT_EQ(general.size(), 1u);
    ASSERT_EQ(general[0].size(), classic.size());
    for (std::size_t i = 0; i < classic.size(); ++i) {
      ASSERT_EQ(general[0][i].bits(), classic[i].bits()) << "bf16 elem " << i;
    }

    const auto classic32 = cpu::jacobi_reference_f32(p);
    const auto general32 = cpu::general_reference_f32(g);
    ASSERT_EQ(general32.size(), 1u);
    ASSERT_EQ(general32[0].size(), classic32.size());
    for (std::size_t i = 0; i < classic32.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(general32[0][i]),
                std::bit_cast<std::uint32_t>(classic32[i]))
          << "f32 elem " << i;
    }
  }
}

}  // namespace
}  // namespace ttsim
