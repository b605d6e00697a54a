/// \file test_sharded.cpp
/// Cross-card sharded solver: bit-exactness against the CPU reference and
/// the single-card run (classic Jacobi and single-pass gallery programs,
/// row-chunk and temporal strategies, k in {1, 4}, 2..3 cards, uneven
/// splits, checkpoint-style segment resume), verifier cleanliness on every
/// card, link traffic accounting, the decomposition error cases, and the
/// host-thread contract: card-order fault replay under a shared FaultPlan,
/// the caller's rounding mode on every card, repeatable traces.

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ttsim/common/check.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/sim/fault.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim {
namespace {

core::JacobiProblem small_problem(int iters) {
  core::JacobiProblem p;
  p.width = 64;
  p.height = 30;
  p.iterations = iters;
  p.bc_left = 1.0f;
  p.bc_top = 0.25f;
  return p;
}

std::vector<float> single_card_solution(const core::JacobiProblem& p,
                                        const core::DeviceRunConfig& cfg) {
  auto dev = ttmetal::Device::open({}, {});
  core::DeviceRunConfig c = cfg;
  c.verify = false;
  return core::run_jacobi_on_device(*dev, p, c).solution;
}

TEST(Sharded, JacobiRowChunkEveryIterationExchange) {
  const auto p = small_problem(6);
  core::ShardedRunConfig cfg;
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_y = 2;
  cfg.verify = true;
  for (int cards = 2; cards <= 3; ++cards) {
    const auto r = core::run_jacobi_sharded(p, cards, cfg);
    EXPECT_TRUE(r.verified_ok) << cards << " cards";
    EXPECT_EQ(r.cards, cards);
    EXPECT_EQ(r.epochs, 6);
    EXPECT_EQ(r.solution, single_card_solution(p, cfg.run)) << cards << " cards";
    EXPECT_GT(r.link_bytes, 0u);
    // Two directed messages per interior cut per exchange (one fewer
    // exchange than epochs: none after the last).
    EXPECT_EQ(r.link_messages, static_cast<std::uint64_t>(2 * (cards - 1) * 5));
  }
}

TEST(Sharded, JacobiRowChunkDeepHaloK4) {
  const auto p = small_problem(10);  // 2 full epochs + one 2-iteration tail
  core::ShardedRunConfig cfg;
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_y = 2;
  cfg.exchange_every = 4;
  cfg.verify = true;
  for (int cards = 2; cards <= 3; ++cards) {
    const auto r = core::run_jacobi_sharded(p, cards, cfg);
    EXPECT_TRUE(r.verified_ok) << cards << " cards";
    EXPECT_EQ(r.epochs, 3);
    EXPECT_EQ(r.solution, single_card_solution(p, cfg.run)) << cards << " cards";
  }
}

TEST(Sharded, JacobiTemporalK4) {
  const auto p = small_problem(9);  // two k=4 epochs plus a 1-deep tail
  core::ShardedRunConfig cfg;
  cfg.run.strategy = core::DeviceStrategy::kTemporal;
  cfg.run.cores_y = 2;
  cfg.run.temporal_depth = 4;
  cfg.verify = true;
  for (int cards = 2; cards <= 3; ++cards) {
    const auto r = core::run_jacobi_sharded(p, cards, cfg);
    EXPECT_TRUE(r.verified_ok) << cards << " cards";
    EXPECT_EQ(r.epochs, 3);
    EXPECT_EQ(r.solution, single_card_solution(p, cfg.run)) << cards << " cards";
  }
}

TEST(Sharded, UnevenRowSplitAndWormholeSpec) {
  core::JacobiProblem p = small_problem(5);
  p.height = 29;  // 3 cards -> 10/10/9 owned rows
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 1;
  cfg.exchange_every = 2;
  cfg.verify = true;
  const auto gs = core::run_jacobi_sharded(p, 3, cfg);
  EXPECT_TRUE(gs.verified_ok);

  // The Wormhole family member must produce the same bits (specs change
  // timing, never results).
  const auto wh = core::run_jacobi_sharded(p, 3, cfg, sim::DeviceSpec::wormhole());
  EXPECT_TRUE(wh.verified_ok);
  EXPECT_EQ(wh.solution, gs.solution);
}

TEST(Sharded, SegmentResumeMatchesOneShot) {
  // The serve layer's checkpoint path: two 3-iteration segments through the
  // state in/out parameter must equal one 6-iteration run bit for bit.
  const auto p = small_problem(6);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 2;
  cfg.exchange_every = 2;

  auto cluster = core::ShardedCluster::open(2);
  const auto devs = cluster.devices();
  std::vector<bfloat16_t> state;
  core::JacobiProblem seg = p;
  seg.iterations = 3;
  core::run_jacobi_sharded(devs, *cluster.fabric, seg, cfg, &state);
  ASSERT_FALSE(state.empty());
  const auto r2 = core::run_jacobi_sharded(devs, *cluster.fabric, seg, cfg, &state);

  const auto one = core::run_jacobi_sharded(p, 2, cfg);
  EXPECT_EQ(r2.solution, one.solution);
  EXPECT_GT(r2.total_time, 0);
}

TEST(Sharded, GalleryHotspotBitExact) {
  // Two-field single-pass program: the read-only power map is staged once
  // and never crosses the fabric; only the written temperature halo does.
  const auto g = core::gallery::hotspot(64, 24, 6);
  const auto ref = cpu::general_reference_bf16(g);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 2;
  for (const int k : {1, 4}) {
    cfg.exchange_every = k;
    cfg.verify = true;
    const auto r = core::run_general_sharded(g, 2, cfg);
    EXPECT_TRUE(r.verified_ok) << "k=" << k;
    ASSERT_EQ(r.fields.size(), ref.size());
    for (std::size_t f = 0; f < ref.size(); ++f) {
      for (std::size_t i = 0; i < ref[f].size(); ++i) {
        ASSERT_EQ(static_cast<float>(ref[f][i]), r.fields[f][i])
            << "k=" << k << " field " << f << " elem " << i;
      }
    }
  }
}

TEST(Sharded, GalleryLifePostOpBitExact) {
  // Single-field program with the kLife post-op and a seeded initial_field:
  // the global image (not per-slab geometry) carries the seed pattern.
  const auto g = core::gallery::life(64, 27, 5, /*seed=*/42);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 1;
  cfg.exchange_every = 4;
  cfg.verify = true;
  const auto r = core::run_general_sharded(g, 3, cfg);
  EXPECT_TRUE(r.verified_ok);
}

TEST(Sharded, VerifierCleanOnEveryCard) {
  const auto p = small_problem(5);
  ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  auto cluster = core::ShardedCluster::open(2, {}, dc);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 2;
  cfg.exchange_every = 2;
  const auto devs = cluster.devices();
  core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(cluster.cards[static_cast<std::size_t>(c)]->verifier()->findings().empty())
        << "card " << c;
  }
}

TEST(Sharded, TracedFabricNamesCards) {
  const auto p = small_problem(4);
  sim::ChipLinkConfig link;
  link.enable_trace = true;
  auto cluster = core::ShardedCluster::open(2, {}, {}, link);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 1;
  const auto devs = cluster.devices();
  core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
  auto* sink = cluster.fabric->trace();
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(sink->empty());
  ASSERT_GE(sink->track_count(), 2u);
  EXPECT_EQ(sink->track_name(0), "eth/card0->card1");
  EXPECT_EQ(sink->track_name(1), "eth/card1->card0");
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Sharded, SharedFaultPlanReplaysInCardOrder) {
  // One FaultPlan shared by both cards rolls a single Rng at every decision
  // point of either card, so the fault story depends on the order in which
  // the cards run. The pins below are that story for card-order execution:
  // stalls, delays and corrupted-then-retried PCIe transfers that change
  // timing but never the solution.
  // The grid is large enough that two cards running at once would
  // interleave their rolls. Rolls at one simulated time follow the
  // engine's wakeup order (spawn order), so the story is pinned to it.
  core::JacobiProblem p = small_problem(4);
  p.width = 256;
  p.height = 512;
  sim::FaultConfig fc;
  fc.seed = 7;
  fc.mover_stall_prob = 0.05;
  fc.noc_delay_prob = 0.05;
  fc.pcie_corrupt_prob = 0.25;
  const auto plan = std::make_shared<sim::FaultPlan>(fc);
  ttmetal::DeviceConfig dc;
  dc.checksum_transfers = true;
  dc.fault_plan = plan;
  auto cluster = core::ShardedCluster::open(2, {}, dc);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 4;
  cfg.exchange_every = 2;
  const auto devs = cluster.devices();
  const auto r = core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);

  EXPECT_EQ(r.solution, single_card_solution(p, cfg.run));
  EXPECT_EQ(plan->trace().size(), 411u);
  EXPECT_EQ(fnv1a(plan->trace_string()), 15804202555254313207ull);
  EXPECT_EQ(r.kernel_time, 888373598);
  EXPECT_EQ(r.exchange_time, 10057600);
  EXPECT_EQ(r.total_time, 1980808798);
}

/// Bit patterns of a solution, so that -0 and +0 compare unequal.
std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> out;
  for (const float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

TEST(Sharded, CardThreadsRunInTheCallersRoundingMode) {
  // A uniform field under a zero-sum stencil cancels exactly: x + (-x) is
  // -0 when rounding toward negative infinity and +0 in every other mode.
  // That sign is the one place the float rounding mode shows in BF16 tile
  // math (add, sub and mul of BF16 operands are otherwise exact or round
  // the same way in every mode), so FE_DOWNWARD proves that each card's
  // kernels run under the caller's MXCSR, whichever host thread runs them.
  core::GeneralStencilProblem g;
  g.width = 64;
  g.height = 30;
  g.iterations = 3;
  g.fields.push_back(core::FieldSpec{"u", 0.5f, 0.5f, 0.5f, 0.5f, 0.5f, {}});
  core::StencilPass pass;
  pass.terms = {{0, core::Tap::kC, 1.0f},
                {0, core::Tap::kW, -0.25f},
                {0, core::Tap::kE, -0.25f},
                {0, core::Tap::kN, -0.25f},
                {0, core::Tap::kS, -0.25f}};
  g.passes.push_back(std::move(pass));
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 1;
  struct RestoreNearest {
    ~RestoreNearest() { std::fesetround(FE_TONEAREST); }
  } restore;
  auto solve = [&](int mode, int cards) {
    EXPECT_EQ(std::fesetround(mode), 0);
    const auto r = core::run_general_sharded(g, cards, cfg);
    std::fesetround(FE_TONEAREST);
    return bits_of(r.solution);
  };
  const auto nearest = solve(FE_TONEAREST, 1);
  for (const int mode : {FE_UPWARD, FE_DOWNWARD}) {
    SCOPED_TRACE("rounding mode " + std::to_string(mode));
    const auto one = solve(mode, 1);
    EXPECT_EQ(solve(mode, 2), one);
    EXPECT_EQ(solve(mode, 3), one);
    if (mode == FE_DOWNWARD) {
      EXPECT_NE(one, nearest);
    } else {
      EXPECT_EQ(one, nearest);
    }
  }
}

TEST(Sharded, TracedFourCardSolveRepeatsExactly) {
  // The cards' host threads interleave differently on every run; nothing
  // they record may depend on it.
  const auto p = small_problem(3);
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 2;
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  sim::ChipLinkConfig link;
  link.enable_trace = true;
  std::vector<std::uint64_t> first;
  for (int rep = 0; rep < 20; ++rep) {
    auto cluster = core::ShardedCluster::open(4, {}, dc, link);
    const auto devs = cluster.devices();
    core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
    std::vector<std::uint64_t> hashes;
    for (auto* dev : devs) hashes.push_back(dev->trace()->hash());
    hashes.push_back(cluster.fabric->trace()->hash());
    if (rep == 0) {
      first = hashes;
    } else {
      ASSERT_EQ(hashes, first) << "repeat " << rep;
    }
  }
}

TEST(Sharded, RejectsInfeasibleDecompositions) {
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 1;
  // A card owning fewer than k rows.
  core::JacobiProblem tiny = small_problem(8);
  tiny.height = 6;
  cfg.exchange_every = 4;
  EXPECT_THROW(core::run_jacobi_sharded(tiny, 2, cfg), ApiError);
  // Multi-pass gallery programs cannot exchange once per epoch.
  cfg.exchange_every = 1;
  EXPECT_THROW(core::run_general_sharded(core::gallery::fdtd2d(64, 24, 4), 2, cfg),
               ApiError);
  // Unsupported per-card strategy.
  cfg.run.strategy = core::DeviceStrategy::kSramResident;
  EXPECT_THROW(core::run_jacobi_sharded(small_problem(4), 2, cfg), ApiError);
}

/// A slab thinner than the domain needs a wider row-chunk slot ring: here
/// the whole domain's 2 rows per core fit the read tags at read_ahead 64,
/// but each card's one row per core does not. The run is rejected before
/// any card is touched.
TEST(Sharded, RejectsSlabReadTagOverflowBeforeTouchingCards) {
  core::JacobiProblem p;
  p.width = 2048;
  p.height = 32;
  p.iterations = 2;
  core::ShardedRunConfig cfg;
  cfg.run.cores_y = 16;
  cfg.run.chunk_elems = 16;
  cfg.run.read_ahead = 64;
  auto cluster = core::ShardedCluster::open(2);
  const auto devs = cluster.devices();
  EXPECT_THROW(core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg), ApiError);
  for (auto* dev : devs) EXPECT_EQ(dev->now(), 0u);
}

}  // namespace
}  // namespace ttsim
