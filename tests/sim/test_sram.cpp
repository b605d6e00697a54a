#include "ttsim/sim/sram.hpp"

#include <gtest/gtest.h>

namespace ttsim::sim {
namespace {

TEST(Sram, AllocatesAlignedSequentially) {
  Sram s(1 * MiB);
  EXPECT_EQ(s.allocate(100), 0u);
  EXPECT_EQ(s.allocate(100), 128u);  // 100 rounded up to 32-alignment
  EXPECT_EQ(s.used(), 228u);
}

TEST(Sram, CustomAlignment) {
  Sram s(1 * MiB);
  s.allocate(1);
  EXPECT_EQ(s.allocate(16, 4096), 4096u);
}

TEST(Sram, ExhaustionThrows) {
  Sram s(1024);
  s.allocate(1000);
  EXPECT_THROW(s.allocate(100), ApiError);
}

TEST(Sram, ExactFitSucceeds) {
  Sram s(1024);
  EXPECT_EQ(s.allocate(1024), 0u);
  EXPECT_THROW(s.allocate(1), ApiError);
}

TEST(Sram, OneMegabyteIsTheRealBudget) {
  // The paper's Section VI kernel keeps 4 batches of 1026 elements plus CBs
  // in the 1 MB SRAM; verify a representative layout fits.
  Sram s(1 * MiB);
  for (int cb = 0; cb < 6; ++cb) s.allocate(2048 * 4);  // 6 CBs x 4 pages
  s.allocate(4 * 1026 * 2);                              // local 4-batch buffer
  EXPECT_LT(s.used(), 1 * MiB);
}

TEST(Sram, ResetReclaimsSpace) {
  Sram s(1024);
  s.allocate(512);
  s.reset();
  EXPECT_EQ(s.allocate(512), 0u);
}

TEST(Sram, HighWaterTracksPeak) {
  Sram s(1024);
  s.allocate(512);
  s.reset();
  s.allocate(100);
  EXPECT_EQ(s.high_water(), 512u);
}

TEST(Sram, FreshSramReadsZeroAtBothEnds) {
  Sram s(1 * MiB);
  s.allocate(64);
  EXPECT_EQ(s.data(0)[0], std::byte{0});
  EXPECT_EQ(s.data(static_cast<std::uint32_t>(s.capacity() - 1))[0], std::byte{0});
}

TEST(Sram, ContentsSurviveReset) {
  Sram s(1 * MiB);
  const auto off = s.allocate(64);
  s.data(off)[7] = std::byte{0xA5};
  s.reset();
  EXPECT_EQ(s.allocate(64), off);
  EXPECT_EQ(s.data(off)[7], std::byte{0xA5});
}

TEST(SramDeathTest, ReadPastTheTopHitsTheGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Sram s(1 * MiB);
  const std::byte* top = s.data(static_cast<std::uint32_t>(s.capacity() - 1)) + 1;
  EXPECT_DEATH(
      {
        const volatile std::byte* p = top;
        static_cast<void>(*p);
      },
      "");
}

TEST(Sram, DataIsWritable) {
  Sram s(1024);
  const auto off = s.allocate(64);
  s.data(off)[0] = std::byte{0x5A};
  EXPECT_EQ(s.data(off)[0], std::byte{0x5A});
}

}  // namespace
}  // namespace ttsim::sim
