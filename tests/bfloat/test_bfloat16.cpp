#include "ttsim/bfloat/bfloat16.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <utility>

#include "ttsim/bfloat/convert.hpp"
#include "ttsim/common/rng.hpp"

namespace ttsim {
namespace {

TEST(Bfloat16, ZeroAndSign) {
  EXPECT_EQ(bfloat16_t{0.0f}.bits(), 0x0000);
  EXPECT_EQ(bfloat16_t{-0.0f}.bits(), 0x8000);
  EXPECT_EQ(bfloat16_t{0.0f}, bfloat16_t{-0.0f});
}

TEST(Bfloat16, ExactSmallIntegers) {
  // Integers up to 256 are exactly representable (8-bit mantissa).
  for (int i = -256; i <= 256; ++i) {
    EXPECT_EQ(static_cast<float>(bfloat16_t{static_cast<float>(i)}),
              static_cast<float>(i))
        << "i=" << i;
  }
}

TEST(Bfloat16, KnownBitPatterns) {
  EXPECT_EQ(bfloat16_t{1.0f}.bits(), 0x3F80);
  EXPECT_EQ(bfloat16_t{-1.0f}.bits(), 0xBF80);
  EXPECT_EQ(bfloat16_t{2.0f}.bits(), 0x4000);
  EXPECT_EQ(bfloat16_t{0.25f}.bits(), 0x3E80);  // the paper's scalar constant
  EXPECT_EQ(bfloat16_t{0.5f}.bits(), 0x3F00);
}

TEST(Bfloat16, RoundToNearestEven) {
  // BF16 stores 7 mantissa bits, so at exponent 0 the ULP is 2^-7 and the
  // halfway offset is 2^-8. 1.0 + 2^-8 ties between 1.0 (even mantissa) and
  // 1.0 + 2^-7 (odd): ties-to-even keeps 1.0.
  const float halfway_even = 1.0f + 0.00390625f;
  EXPECT_EQ(bfloat16_t{halfway_even}.bits(), 0x3F80);
  // (1 + 2^-7) + 2^-8 ties with the odd mantissa below: rounds up to even.
  const float halfway_odd = 1.0078125f + 0.00390625f;
  EXPECT_EQ(bfloat16_t{halfway_odd}.bits(), 0x3F82);
}

TEST(Bfloat16, RoundingErrorBounded) {
  Rng rng{99};
  for (int i = 0; i < 10000; ++i) {
    const float x = static_cast<float>(rng.next_double(-1000.0, 1000.0));
    const float back = static_cast<float>(bfloat16_t{x});
    // Relative error at most 2^-8 (half ULP of a 7-stored-bit mantissa).
    EXPECT_LE(std::fabs(back - x), std::fabs(x) * 0.00390625f + 1e-30f);
  }
}

TEST(Bfloat16, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(bfloat16_t{inf}.is_inf());
  EXPECT_TRUE(bfloat16_t{-inf}.is_inf());
  EXPECT_TRUE(bfloat16_t{std::nanf("")}.is_nan());
  EXPECT_FALSE(bfloat16_t{1.0f}.is_nan());
  // NaN != NaN
  const bfloat16_t n{std::nanf("")};
  EXPECT_FALSE(n == n);
}

TEST(Bfloat16, EveryNanIsTheCanonicalQuietNan) {
  const auto bf = [](std::uint16_t bits) { return bfloat16_t::from_bits(bits); };
  const bfloat16_t pos_nan = bf(0x7FC0), neg_nan = bf(0xFFC0);
  const bfloat16_t payload = bf(0xFF81);  // signalling, negative, payload 1
  const bfloat16_t inf = bf(0x7F80), zero = bf(0x0000), one = bf(0x3F80);
  // Opposite-sign NaN pairs in both orders: x86 keeps the first source
  // operand's NaN, so without the rule the sign would follow codegen.
  for (const auto& [x, y] : {std::pair{pos_nan, neg_nan}, std::pair{neg_nan, pos_nan},
                             std::pair{payload, one}, std::pair{one, payload},
                             std::pair{payload, neg_nan}}) {
    EXPECT_EQ((x + y).bits(), 0x7FC0);
    EXPECT_EQ((x - y).bits(), 0x7FC0);
    EXPECT_EQ((x * y).bits(), 0x7FC0);
  }
  EXPECT_EQ((inf - inf).bits(), 0x7FC0);
  EXPECT_EQ((inf + -inf).bits(), 0x7FC0);
  EXPECT_EQ((zero * inf).bits(), 0x7FC0);
  EXPECT_EQ((-zero * inf).bits(), 0x7FC0);
  // Conversions follow the same rule, whatever the float NaN's sign or payload.
  EXPECT_EQ(bfloat16_t{-std::nanf("")}.bits(), 0x7FC0);
  EXPECT_EQ(bfloat16_t{std::bit_cast<float>(0xFF800001u)}.bits(), 0x7FC0);
  EXPECT_EQ(bfloat16_t{std::bit_cast<float>(0x7FBFFFFFu)}.bits(), 0x7FC0);
}

TEST(Bfloat16, OverflowToInfinity) {
  // Values beyond bf16 max (~3.39e38) round to infinity.
  EXPECT_TRUE(bfloat16_t{3.5e38f}.is_inf());
}

TEST(Bfloat16, ArithmeticRoundsResult) {
  // 256 + 1 = 257 needs 9 mantissa bits -> rounds to 256 (even).
  const bfloat16_t a{256.0f}, b{1.0f};
  EXPECT_EQ(static_cast<float>(a + b), 256.0f);
  // 256 + 2 = 258 -> representable? 258 = 0b100000010: needs 9 bits -> rounds
  // to nearest even multiple of 2: 258 itself (mantissa 1.0078125*2^8, exact
  // with 8 fractional mantissa bits at exponent 8: step is 2).
  EXPECT_EQ(static_cast<float>(a + bfloat16_t{2.0f}), 258.0f);
}

TEST(Bfloat16, JacobiAverageStaysExactOnQuarters) {
  // The Jacobi update multiplies sums by 0.25 — a power of two, always exact.
  const bfloat16_t sum = bfloat16_t{1.0f} + bfloat16_t{2.0f} + bfloat16_t{3.0f} +
                         bfloat16_t{2.0f};
  const bfloat16_t avg = sum * bfloat16_t{0.25f};
  EXPECT_EQ(static_cast<float>(avg), 2.0f);
}

TEST(Bfloat16, ComparisonOperators) {
  EXPECT_LT(bfloat16_t{1.0f}, bfloat16_t{2.0f});
  EXPECT_GT(bfloat16_t{2.0f}, bfloat16_t{-2.0f});
  EXPECT_LE(bfloat16_t{1.0f}, bfloat16_t{1.0f});
}

TEST(Bfloat16, NegationFlipsSignBit) {
  const bfloat16_t x{1.5f};
  EXPECT_EQ((-x).bits(), x.bits() ^ 0x8000);
  EXPECT_EQ(static_cast<float>(-x), -1.5f);
}

TEST(Bfloat16, NumericLimits) {
  using lim = std::numeric_limits<bfloat16_t>;
  EXPECT_FLOAT_EQ(static_cast<float>(lim::max()), 3.3895314e38f);
  EXPECT_FLOAT_EQ(static_cast<float>(lim::epsilon()), 0.0078125f);
  EXPECT_TRUE(lim::infinity().is_inf());
  EXPECT_TRUE(lim::quiet_NaN().is_nan());
  EXPECT_EQ(static_cast<float>(lim::lowest()), -static_cast<float>(lim::max()));
}

TEST(BfloatConvert, RoundTripArrays) {
  std::vector<float> src = {0.0f, 1.0f, -2.5f, 100.0f, 0.125f};
  const auto bf = to_bf16(src);
  const auto back = to_f32(bf);
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(back[i], src[i]);
}

TEST(BfloatConvert, MaxAbsDiffDetectsRounding) {
  std::vector<float> src = {1.001f};  // not representable exactly
  const auto bf = to_bf16(src);
  EXPECT_GT(max_abs_diff(src, bf), 0.0f);
  EXPECT_LT(max_abs_diff(src, bf), 0.005f);
}

TEST(BfloatConvert, SizeMismatchThrows) {
  std::vector<float> src(4);
  std::vector<bfloat16_t> dst(3);
  EXPECT_THROW(to_bf16(std::span<const float>(src), std::span<bfloat16_t>(dst)),
               CheckError);
}

}  // namespace
}  // namespace ttsim
