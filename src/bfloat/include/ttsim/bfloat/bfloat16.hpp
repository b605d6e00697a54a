#pragma once
/// \file bfloat16.hpp
/// Software bfloat16 — the numeric format of the Grayskull FPU. The e150
/// supports at most half precision (BF16/FP16); all device-side arithmetic in
/// this reproduction is routed through this type so that results carry real
/// BF16 rounding, exactly as the paper's device runs did.
///
/// Semantics: storage is the top 16 bits of an IEEE-754 binary32. Conversion
/// from float uses round-to-nearest-even (matching Grayskull packing
/// behaviour); arithmetic is performed in float and rounded back, which is
/// the standard software model for BF16 FMA-free element-wise units.
///
/// NaN rule: every NaN — from a conversion or an operator, whatever its sign
/// or payload — becomes the canonical quiet NaN 0x7FC0. x86 returns the
/// first source operand's NaN when both operands are NaN, and the compiler
/// may commute `+` and `*`, so a propagated sign or payload would depend on
/// code generation. The FPU's vectorised tile kernel applies the same rule.

#include <cmath>
#include <compare>
#include <cstdint>
#include <cstring>
#include <limits>

namespace ttsim {

class bfloat16_t {
 public:
  constexpr bfloat16_t() = default;

  /// Implicit from float mirrors hardware packing (value conversion).
  bfloat16_t(float f) : bits_(round_from_float(f)) {}  // NOLINT(google-explicit-constructor)
  explicit bfloat16_t(double d) : bfloat16_t(static_cast<float>(d)) {}
  explicit bfloat16_t(int v) : bfloat16_t(static_cast<float>(v)) {}

  /// Reinterpret raw storage bits as a bfloat16.
  static constexpr bfloat16_t from_bits(std::uint16_t bits) {
    bfloat16_t b;
    b.bits_ = bits;
    return b;
  }

  constexpr std::uint16_t bits() const { return bits_; }

  /// Widening to float is exact (BF16 is a prefix of binary32).
  operator float() const {  // NOLINT(google-explicit-constructor)
    const std::uint32_t wide = static_cast<std::uint32_t>(bits_) << 16;
    float f;
    std::memcpy(&f, &wide, sizeof(f));
    return f;
  }

  bfloat16_t operator-() const { return from_bits(static_cast<std::uint16_t>(bits_ ^ 0x8000u)); }

  friend bfloat16_t operator+(bfloat16_t a, bfloat16_t b) {
    return bfloat16_t{static_cast<float>(a) + static_cast<float>(b)};
  }
  friend bfloat16_t operator-(bfloat16_t a, bfloat16_t b) {
    return bfloat16_t{static_cast<float>(a) - static_cast<float>(b)};
  }
  friend bfloat16_t operator*(bfloat16_t a, bfloat16_t b) {
    return bfloat16_t{static_cast<float>(a) * static_cast<float>(b)};
  }
  friend bfloat16_t operator/(bfloat16_t a, bfloat16_t b) {
    return bfloat16_t{static_cast<float>(a) / static_cast<float>(b)};
  }

  bfloat16_t& operator+=(bfloat16_t o) { return *this = *this + o; }
  bfloat16_t& operator-=(bfloat16_t o) { return *this = *this - o; }
  bfloat16_t& operator*=(bfloat16_t o) { return *this = *this * o; }
  bfloat16_t& operator/=(bfloat16_t o) { return *this = *this / o; }

  friend bool operator==(bfloat16_t a, bfloat16_t b) {
    return static_cast<float>(a) == static_cast<float>(b);  // -0 == +0, NaN != NaN
  }
  friend std::partial_ordering operator<=>(bfloat16_t a, bfloat16_t b) {
    return static_cast<float>(a) <=> static_cast<float>(b);
  }

  bool is_nan() const {
    return (bits_ & 0x7F80u) == 0x7F80u && (bits_ & 0x007Fu) != 0;
  }
  bool is_inf() const { return (bits_ & 0x7FFFu) == 0x7F80u; }

  /// Round a binary32 to the nearest bfloat16 (ties to even). Every NaN
  /// becomes the canonical quiet NaN 0x7FC0 (see the NaN rule above).
  static std::uint16_t round_from_float(float f) {
    std::uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    if ((x & 0x7FFFFFFFu) > 0x7F800000u) return 0x7FC0u;
    const std::uint32_t lsb = (x >> 16) & 1u;
    const std::uint32_t rounding_bias = 0x7FFFu + lsb;
    x += rounding_bias;
    return static_cast<std::uint16_t>(x >> 16);
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(bfloat16_t) == 2, "bfloat16 must be 2 bytes");

/// Machine epsilon for BF16 (2^-8): |x*(1+e)| rounds away from x above this.
inline constexpr float kBf16Epsilon = 0.00390625f;

}  // namespace ttsim

namespace std {
template <>
class numeric_limits<ttsim::bfloat16_t> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr int digits = 8;       // mantissa bits incl. implicit one
  static constexpr int digits10 = 2;
  static constexpr int max_exponent = 128;
  static constexpr int min_exponent = -125;
  static ttsim::bfloat16_t min() { return ttsim::bfloat16_t::from_bits(0x0080); }
  static ttsim::bfloat16_t max() { return ttsim::bfloat16_t::from_bits(0x7F7F); }
  static ttsim::bfloat16_t lowest() { return ttsim::bfloat16_t::from_bits(0xFF7F); }
  static ttsim::bfloat16_t epsilon() { return ttsim::bfloat16_t::from_bits(0x3C00); }
  static ttsim::bfloat16_t infinity() { return ttsim::bfloat16_t::from_bits(0x7F80); }
  static ttsim::bfloat16_t quiet_NaN() { return ttsim::bfloat16_t::from_bits(0x7FC0); }
  static ttsim::bfloat16_t denorm_min() { return ttsim::bfloat16_t::from_bits(0x0001); }
};
}  // namespace std
