#include "ttsim/core/problem.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "ttsim/common/rng.hpp"
#include "ttsim/core/stencil.hpp"

namespace ttsim::core {
namespace {

// The per-cell loops the single-pass images replaced: the oracles below
// check every stored element (pads, halo corners, boundary cells) against
// them, bit for bit.
std::vector<bfloat16_t> oracle_initial_image(const PaddedLayout& l, const JacobiProblem& p) {
  std::vector<bfloat16_t> image(l.elems(), bfloat16_t{0.0f});
  const auto h = static_cast<std::int64_t>(l.height());
  const auto w = static_cast<std::int64_t>(l.width());
  for (std::int64_t r = 0; r < h; ++r) {
    image[l.index(r, -1)] = bfloat16_t{p.bc_left};
    for (std::int64_t c = 0; c < w; ++c) image[l.index(r, c)] = bfloat16_t{p.initial};
    image[l.index(r, w)] = bfloat16_t{p.bc_right};
  }
  for (std::int64_t c = 0; c < w; ++c) {
    image[l.index(-1, c)] = bfloat16_t{p.bc_top};
    image[l.index(h, c)] = bfloat16_t{p.bc_bottom};
  }
  return image;
}

std::vector<float> oracle_extract_interior(const PaddedLayout& l,
                                           const std::vector<bfloat16_t>& image) {
  std::vector<float> out(static_cast<std::size_t>(l.width()) * l.height());
  for (std::int64_t r = 0; r < l.height(); ++r) {
    for (std::int64_t c = 0; c < l.width(); ++c) {
      out[static_cast<std::size_t>(r) * l.width() + static_cast<std::size_t>(c)] =
          static_cast<float>(image[l.index(r, c)]);
    }
  }
  return out;
}

JacobiProblem distinct_boundaries(std::uint32_t width, std::uint32_t height) {
  JacobiProblem p;
  p.width = width;
  p.height = height;
  p.bc_left = 2.0f;
  p.bc_right = -3.0f;
  p.bc_top = 4.5f;
  p.bc_bottom = 0.1f;  // rounds in BF16
  p.initial = 0.7f;
  return p;
}

void expect_same_bits(const std::vector<bfloat16_t>& got,
                      const std::vector<bfloat16_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].bits(), want[i].bits()) << "element " << i;
  }
}

// 16x1 is one aligned strip, 48x7 an odd height, and 1024x1024's 4 MiB
// float interior straddles 2 MiB boundaries.
constexpr std::array<std::array<std::uint32_t, 2>, 3> kShapes = {
    {{16, 1}, {48, 7}, {1024, 1024}}};

TEST(PaddedLayout, GeometryMatchesFig5) {
  PaddedLayout l(512, 512);
  EXPECT_EQ(l.row_elems(), 512u + 32u);
  EXPECT_EQ(l.row_bytes(), 1088u);
  EXPECT_EQ(l.stored_rows(), 514u);
  EXPECT_EQ(l.bytes(), 1088ull * 514);
  // Row stride is 256-bit aligned, the point of the padding.
  EXPECT_EQ(l.row_bytes() % 32, 0u);
}

TEST(PaddedLayout, InteriorWritesAreAligned) {
  PaddedLayout l(512, 512);
  for (std::int64_t r = 0; r < 512; r += 97) {
    for (std::int64_t c = 0; c < 512; c += 32) {
      EXPECT_EQ(l.byte_offset(r, c) % 32, 0u) << r << "," << c;
    }
  }
}

TEST(PaddedLayout, HaloReadsAreUnalignedWithoutListing4) {
  // The crux of Section IV-B: reading from col-1 is off-alignment.
  PaddedLayout l(512, 512);
  EXPECT_NE(l.byte_offset(0, -1) % 32, 0u);
  EXPECT_EQ(l.byte_offset(0, -1) % 32, 30u);
}

TEST(PaddedLayout, IndexAddressesBoundaries) {
  PaddedLayout l(64, 32);
  EXPECT_EQ(l.index(-1, 0), 0u * l.row_elems() + 16);
  EXPECT_EQ(l.index(0, -1), 1u * l.row_elems() + 15);
  EXPECT_EQ(l.index(0, 64), 1u * l.row_elems() + 16 + 64);
  EXPECT_EQ(l.index(32, 0), 33u * l.row_elems() + 16);
}

TEST(PaddedLayout, RejectsUnalignedWidth) {
  EXPECT_THROW(PaddedLayout(100, 32), CheckError);
  EXPECT_THROW(PaddedLayout(0, 32), CheckError);
}

TEST(PaddedLayout, InitialImageCarriesBoundaries) {
  JacobiProblem p;
  p.width = 64;
  p.height = 32;
  p.bc_left = 2.0f;
  p.bc_right = 3.0f;
  p.bc_top = 4.0f;
  p.bc_bottom = 5.0f;
  p.initial = 1.0f;
  PaddedLayout l(p.width, p.height);
  const auto img = l.initial_image(p);
  EXPECT_EQ(static_cast<float>(img[l.index(0, -1)]), 2.0f);
  EXPECT_EQ(static_cast<float>(img[l.index(5, 64)]), 3.0f);
  EXPECT_EQ(static_cast<float>(img[l.index(-1, 10)]), 4.0f);
  EXPECT_EQ(static_cast<float>(img[l.index(32, 10)]), 5.0f);
  EXPECT_EQ(static_cast<float>(img[l.index(7, 7)]), 1.0f);
  // Dead padding stays zero.
  EXPECT_EQ(static_cast<float>(img[l.index(0, -1) - 5]), 0.0f);
}

TEST(PaddedLayout, ExtractInteriorRoundTrip) {
  JacobiProblem p;
  p.width = 32;
  p.height = 16;
  p.initial = 0.75f;
  PaddedLayout l(p.width, p.height);
  const auto img = l.initial_image(p);
  const auto interior = l.extract_interior(img);
  ASSERT_EQ(interior.size(), 32u * 16);
  for (float v : interior) EXPECT_EQ(v, 0.75f);
}

TEST(PaddedLayout, InitialImageMatchesPerCellOracle) {
  for (const auto& [w, h] : kShapes) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const PaddedLayout l(w, h);
    const JacobiProblem p = distinct_boundaries(w, h);
    expect_same_bits(l.initial_image(p), oracle_initial_image(l, p));
  }
}

TEST(PaddedLayout, GeneralFieldImageMatchesPerCellOracle) {
  for (const auto& [w, h] : kShapes) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const PaddedLayout l(w, h);
    const JacobiProblem jp = distinct_boundaries(w, h);
    GeneralStencilProblem p = to_general(jp);
    Rng rng(w * 131 + h);
    auto& field = p.fields[0];
    field.initial_field.resize(p.points());
    for (float& v : field.initial_field) v = static_cast<float>(rng.next_double(-8.0, 8.0));

    // The old build: the field's initial image, then the values overlaid.
    auto want = oracle_initial_image(l, jp);
    for (std::int64_t r = 0; r < h; ++r) {
      for (std::int64_t c = 0; c < w; ++c) {
        want[l.index(r, c)] = bfloat16_t{
            field.initial_field[static_cast<std::size_t>(r) * w + static_cast<std::size_t>(c)]};
      }
    }
    expect_same_bits(general_field_image(l, p, 0), want);
    // Without initial_field the field image is the Jacobi image.
    field.initial_field.clear();
    expect_same_bits(general_field_image(l, p, 0), oracle_initial_image(l, jp));
  }
}

TEST(PaddedLayout, ExtractInteriorMatchesPerCellOracle) {
  for (const auto& [w, h] : kShapes) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const PaddedLayout l(w, h);
    // Random bits everywhere, pads included: only interior cells may leak.
    Rng rng(w + h);
    std::vector<bfloat16_t> image(l.elems());
    for (auto& v : image) v = bfloat16_t::from_bits(static_cast<std::uint16_t>(rng.next_u64()));
    const auto got = l.extract_interior(image);
    const auto want = oracle_extract_interior(l, image);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
          << "interior element " << i;
    }
  }
}

TEST(PaddedLayout, ExtractInteriorRoundTripsBf16Bits) {
  // Widening is exact, so every BF16 pattern comes back as the top half of
  // its float: NaN payloads (quiet, signalling, negative), -0, subnormals
  // and infinities are not canonicalised on the way out.
  const std::vector<std::uint16_t> special = {0x7FC1, 0x7F81, 0xFFC0, 0xFF81, 0x8000,
                                              0x0000, 0x0001, 0x007F, 0x8001, 0x807F,
                                              0x7F80, 0xFF80, 0x7F7F, 0x0080};
  for (const auto& [w, h] : kShapes) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const PaddedLayout l(w, h);
    Rng rng(7 * w + h);
    std::vector<std::uint16_t> bits(static_cast<std::size_t>(w) * h);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = i < special.size() ? special[i] : static_cast<std::uint16_t>(rng.next_u64());
    }
    std::vector<bfloat16_t> image(l.elems());
    for (std::int64_t r = 0; r < h; ++r) {
      for (std::int64_t c = 0; c < w; ++c) {
        image[l.index(r, c)] =
            bfloat16_t::from_bits(bits[static_cast<std::size_t>(r) * w + static_cast<std::size_t>(c)]);
      }
    }
    const auto out = l.extract_interior(image);
    ASSERT_EQ(out.size(), bits.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), std::uint32_t{bits[i]} << 16)
          << "interior element " << i;
    }
  }
}

TEST(JacobiProblem, PointCounts) {
  JacobiProblem p;
  p.width = 512;
  p.height = 512;
  p.iterations = 10000;
  EXPECT_EQ(p.points(), 262144u);
  EXPECT_EQ(p.total_updates(), 2621440000ull);
}

}  // namespace
}  // namespace ttsim::core
