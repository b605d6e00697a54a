#include "ttsim/core/jacobi_device.hpp"

#include <gtest/gtest.h>

#include "ttsim/cpu/jacobi_cpu.hpp"

namespace ttsim::core {
namespace {

JacobiProblem small_problem(std::uint32_t w = 64, std::uint32_t h = 64, int iters = 8) {
  JacobiProblem p;
  p.width = w;
  p.height = h;
  p.iterations = iters;
  return p;
}

/// Bit-exact check of a device run against the BF16 CPU reference.
void expect_bit_exact(const JacobiProblem& p, const DeviceRunResult& r) {
  const auto ref = cpu::jacobi_reference_bf16(p);
  ASSERT_EQ(ref.size(), r.solution.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<float>(ref[i]) != r.solution[i]) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << "mismatch at " << i << ": device " << r.solution[i]
                      << " vs reference " << static_cast<float>(ref[i]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JacobiDevice, RowChunkMatchesReferenceBitExact) {
  const auto p = small_problem();
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
  EXPECT_GT(r.kernel_time, 0);
  EXPECT_GT(r.total_time, r.kernel_time);
}

TEST(JacobiDevice, InitialTiledMatchesReferenceBitExact) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kInitial;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, WriteOptimisedMatchesReferenceBitExact) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kWriteOptimised;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, DoubleBufferedMatchesReferenceBitExact) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kDoubleBuffered;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, OddIterationCountLandsInRightBuffer) {
  const auto p = small_problem(64, 64, 5);
  DeviceRunConfig cfg;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, SingleIteration) {
  const auto p = small_problem(32, 32, 1);
  DeviceRunConfig cfg;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, MultiCoreYMatchesReference) {
  const auto p = small_problem(64, 64, 6);
  DeviceRunConfig cfg;
  cfg.cores_y = 4;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
  EXPECT_EQ(r.cores_used, 4);
}

TEST(JacobiDevice, MultiCoreXYMatchesReference) {
  const auto p = small_problem(64, 96, 6);
  DeviceRunConfig cfg;
  cfg.cores_x = 2;
  cfg.cores_y = 3;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, UnevenRowSplitMatchesReference) {
  // 7 cores over 64 rows: 10/9-row strips (the Table VIII 12-way split of
  // 1024 rows is similarly uneven).
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.cores_y = 7;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, TiledMultiCoreMatchesReference) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kDoubleBuffered;
  cfg.cores_x = 2;
  cfg.cores_y = 2;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, InterleavedBuffersMatchReference) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.buffer_layout = ttmetal::BufferLayout::kInterleaved;
  cfg.interleave_page = 4 * KiB;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, StripedBuffersMatchReference) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig cfg;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiDevice, RowChunkFasterThanInitial) {
  // Table I/VIII: the Section VI design is two orders of magnitude faster.
  const auto p = small_problem(128, 128, 3);
  DeviceRunConfig slow;
  slow.strategy = DeviceStrategy::kInitial;
  DeviceRunConfig fast;
  fast.strategy = DeviceStrategy::kRowChunk;
  const auto rs = run_jacobi_on_device(p, slow);
  const auto rf = run_jacobi_on_device(p, fast);
  // Two orders of magnitude at the paper's 512x512; at this toy size the
  // per-iteration fixed costs (barrier, prologue reads) dilute the ratio.
  EXPECT_GT(rs.kernel_time, rf.kernel_time * 8);
}

TEST(JacobiDevice, DoubleBufferedFasterThanInitial) {
  const auto p = small_problem(64, 64, 4);
  DeviceRunConfig a;
  a.strategy = DeviceStrategy::kInitial;
  DeviceRunConfig b;
  b.strategy = DeviceStrategy::kDoubleBuffered;
  EXPECT_GT(run_jacobi_on_device(p, a).kernel_time,
            run_jacobi_on_device(p, b).kernel_time);
}

TEST(JacobiDevice, ComponentTogglesReproduceOrdering) {
  // Table II ordering: all-off is fastest; memcpy is the dominant cost.
  const auto p = small_problem(64, 64, 3);
  auto timed = [&](bool rd, bool mc, bool co, bool wr) {
    DeviceRunConfig cfg;
    cfg.strategy = DeviceStrategy::kDoubleBuffered;
    cfg.toggles = ComponentToggles{rd, mc, co, wr};
    return run_jacobi_on_device(p, cfg).kernel_time;
  };
  const auto none = timed(false, false, false, false);
  const auto compute_only = timed(false, false, true, false);
  const auto read_only = timed(true, false, false, false);
  const auto memcpy_only = timed(false, true, false, false);
  EXPECT_LT(none, compute_only);
  EXPECT_LT(compute_only, memcpy_only);
  EXPECT_LT(read_only, memcpy_only);
}

TEST(JacobiDevice, VerifyFlagReportsResult) {
  const auto p = small_problem(32, 32, 3);
  DeviceRunConfig cfg;
  cfg.verify = true;
  const auto r = run_jacobi_on_device(p, cfg);
  EXPECT_TRUE(r.verified_ok);
}

TEST(JacobiDevice, GptsMetric) {
  auto p = small_problem(64, 64, 10);
  DeviceRunConfig cfg;
  const auto r = run_jacobi_on_device(p, cfg);
  EXPECT_GT(r.gpts(p), 0.0);
  EXPECT_GT(r.gpts(p, /*kernel_only=*/true), r.gpts(p));
}

TEST(JacobiDevice, InvalidConfigsRejected) {
  auto p = small_problem();
  DeviceRunConfig cfg;
  cfg.cores_x = 200;  // more than 108 workers
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);

  cfg = DeviceRunConfig{};
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.toggles.compute = false;  // toggles only valid for tiled designs
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);

  cfg = DeviceRunConfig{};
  cfg.cores_x = 3;  // 64 does not divide by 3
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);

  p.iterations = 0;
  EXPECT_THROW(run_jacobi_on_device(p, DeviceRunConfig{}), ApiError);
}

// --- the SRAM-resident future-work solver ---

TEST(JacobiSramResident, MatchesReferenceBitExact) {
  const auto p = small_problem(64, 64, 6);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  cfg.cores_y = 4;
  const auto r = run_jacobi_on_device(p, cfg);
  expect_bit_exact(p, r);
}

TEST(JacobiSramResident, RejectsXDecomposition) {
  const auto p = small_problem();
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  cfg.cores_x = 2;
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);
}

TEST(JacobiSramResident, RejectsTileUnfriendlyWidths) {
  JacobiProblem p = small_problem(1536, 32, 2);  // > 1024, not a multiple
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);
}

TEST(JacobiSramResident, OversizedSlabReportsSramBudget) {
  // One core cannot hold a 1024x512 domain twice in 1 MB of SRAM.
  JacobiProblem p = small_problem(1024, 512, 2);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  try {
    run_jacobi_on_device(p, cfg);
    FAIL() << "expected SRAM exhaustion";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("SRAM exhausted"), std::string::npos);
  }
}

TEST(JacobiSramResident, SteadyStateBeatsRowChunk) {
  // The paper's hypothesis: iterating from SRAM avoids the per-iteration
  // DRAM traffic entirely. Compare marginal per-iteration cost.
  JacobiProblem p = small_problem(1024, 128, 0);
  auto marginal = [&](DeviceStrategy s) {
    DeviceRunConfig cfg;
    cfg.strategy = s;
    cfg.cores_y = 4;
    p.iterations = 4;
    const auto short_run = run_jacobi_on_device(p, cfg).kernel_time;
    p.iterations = 12;
    const auto long_run = run_jacobi_on_device(p, cfg).kernel_time;
    return (long_run - short_run) / 8;
  };
  const auto sram = marginal(DeviceStrategy::kSramResident);
  const auto dram = marginal(DeviceStrategy::kRowChunk);
  EXPECT_LT(sram, dram);
}

TEST(JacobiMultiCard, MatchesCardSplitReference) {
  auto p = small_problem(64, 64, 6);
  DeviceRunConfig cfg;
  cfg.verify = true;
  const auto r = run_jacobi_multicard(p, 2, cfg);
  EXPECT_EQ(r.cores_used, 2);  // one core on each card
  EXPECT_TRUE(r.verified_ok);
  EXPECT_GT(r.kernel_time, 0);
  EXPECT_GT(r.gpts(p), 0.0);
  const auto ref = cpu::jacobi_reference_bf16_cards(p, 2);
  ASSERT_EQ(ref.size(), r.solution.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(static_cast<float>(ref[i]), r.solution[i]) << i;
  }
}

TEST(JacobiMultiCard, TwoCardsRoughlyHalveRuntime) {
  auto p = small_problem(64, 128, 6);
  DeviceRunConfig cfg;
  cfg.cores_y = 4;
  const auto one = run_jacobi_multicard(p, 1, cfg);
  const auto two = run_jacobi_multicard(p, 2, cfg);
  EXPECT_LT(two.kernel_time, one.kernel_time * 0.75);
}

}  // namespace
}  // namespace ttsim::core
