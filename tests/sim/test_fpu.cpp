#include "ttsim/sim/fpu.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cstdint>
#include <string>
#include <vector>

#include "ttsim/common/rng.hpp"
#include "ttsim/sim/tensix_core.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::sim {
namespace {

using BinaryOp = Fpu::BinaryOp;

/// The oracle: the scalar bfloat16_t operators.
bfloat16_t scalar_op(BinaryOp op, bfloat16_t x, bfloat16_t y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
  }
  return {};
}

/// Fills one committed CB page with a constant BF16 value.
void fill_page(CircularBuffer& cb, float value) {
  auto* p = reinterpret_cast<bfloat16_t*>(cb.write_ptr());
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) p[i] = bfloat16_t{value};
}

class FpuTest : public ::testing::Test {
 protected:
  FpuTest()
      : core_(engine_, spec_, 0, NocCoord{1, 1}),
        cb_a_(core_.create_cb(0, Fpu::kTileBytes, 2)),
        cb_b_(core_.create_cb(1, Fpu::kTileBytes, 2)),
        cb_out_(core_.create_cb(16, Fpu::kTileBytes, 2)) {}

  /// Run `body` as the compute process.
  void run_compute(std::function<void()> body) {
    engine_.spawn("compute", std::move(body));
    engine_.run();
  }

  GrayskullSpec spec_;
  Engine engine_;
  TensixCore core_;
  CircularBuffer& cb_a_;
  CircularBuffer& cb_b_;
  CircularBuffer& cb_out_;
};

TEST_F(FpuTest, AddTilesElementwise) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 1.5f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    fill_page(cb_b_, 2.25f);
    cb_b_.push_back(1);
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
    cb_out_.reserve_back(1);
    core_.fpu().pack_tile(0, cb_out_);
    cb_out_.push_back(1);
  });
  const auto* out = reinterpret_cast<const bfloat16_t*>(cb_out_.read_ptr());
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
    EXPECT_EQ(static_cast<float>(out[i]), 3.75f);
  }
}

TEST_F(FpuTest, SubAndMulTiles) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 8.0f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    fill_page(cb_b_, 2.0f);
    cb_b_.push_back(1);
    core_.fpu().sub_tiles(cb_a_, cb_b_, 0, 0, 0);
    core_.fpu().mul_tiles(cb_a_, cb_b_, 0, 0, 1);
  });
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[0]), 6.0f);
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(1)[512]), 16.0f);
}

TEST_F(FpuTest, ScalarMultiplyViaConstantCb) {
  // The paper's trick: maths ops only take CBs, so multiplying by 0.25 uses
  // a CB whose 1024 entries are all 0.25 (Listing 2, cb_scalar).
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 0.25f);  // cb_scalar
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    fill_page(cb_b_, 10.0f);
    cb_b_.push_back(1);
    core_.fpu().mul_tiles(cb_a_, cb_b_, 0, 0, 0);
  });
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[77]), 2.5f);
}

TEST_F(FpuTest, CopyTile) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, -3.0f);
    cb_a_.push_back(1);
    core_.fpu().copy_tile(cb_a_, 0, 2);
  });
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(2)[0]), -3.0f);
}

TEST_F(FpuTest, OpsChargeSimulatedTime) {
  // The Fpu is pure math; the compute kernel context charges each op.
  SimTime elapsed = 0;
  auto dev = ttmetal::Device::open(spec_);
  ttmetal::Program prog;
  prog.create_cb(0, {0}, Fpu::kTileBytes, 1);
  prog.create_kernel({0}, [&](ttmetal::ComputeCtx& ctx) {
    ctx.cb_reserve_back(0, 1);
    ctx.cb_push_back(0, 1);
    ctx.cb_wait_front(0, 1);
    const SimTime t0 = ctx.now();
    ctx.add_tiles(0, 0, 0, 0, 0);
    elapsed = ctx.now() - t0;
  });
  dev->run_program(prog);
  EXPECT_EQ(elapsed, spec_.tile_math_cost);
}

TEST_F(FpuTest, ResultsAreBf16Rounded) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 256.0f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    fill_page(cb_b_, 1.0f);
    cb_b_.push_back(1);
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
  });
  // 257 is not representable in BF16; ties-to-even rounds to 256.
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[0]), 256.0f);
}

TEST_F(FpuTest, RespectsReadPtrOverride) {
  // cb_set_rd_ptr path: math ops must consume the aliased memory.
  std::vector<bfloat16_t> local(Fpu::kTileElems, bfloat16_t{5.0f});
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 1.0f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    fill_page(cb_b_, 2.0f);
    cb_b_.push_back(1);
    cb_a_.set_read_ptr(reinterpret_cast<const std::byte*>(local.data()));
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
  });
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[0]), 7.0f);
}

TEST_F(FpuTest, UnalignedOperandMatchesScalarOperators) {
  // A read-pointer override can put a tile at any even L1 address; this one
  // sits at an odd multiple of 2 bytes.
  std::vector<bfloat16_t> local(Fpu::kTileElems + 1);
  Rng rng{5};
  for (auto& v : local) v = bfloat16_t{static_cast<float>(rng.next_double(-8, 8))};
  const bfloat16_t* a = local.data() + 1;
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(a) % 4, 2u);
  run_compute([&] {
    cb_a_.reserve_back(1);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    auto* pb = reinterpret_cast<bfloat16_t*>(cb_b_.write_ptr());
    for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) pb[i] = bfloat16_t{0.375f * (i % 11)};
    cb_b_.push_back(1);
    cb_a_.set_read_ptr(reinterpret_cast<const std::byte*>(a));
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
    core_.fpu().sub_tiles(cb_b_, cb_a_, 0, 0, 1);
    core_.fpu().mul_tiles(cb_a_, cb_b_, 0, 0, 2);
  });
  const auto* b = reinterpret_cast<const bfloat16_t*>(cb_b_.read_ptr());
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
    EXPECT_EQ(core_.fpu().reg(0)[i].bits(), (a[i] + b[i]).bits()) << "lane " << i;
    EXPECT_EQ(core_.fpu().reg(1)[i].bits(), (b[i] - a[i]).bits()) << "lane " << i;
    EXPECT_EQ(core_.fpu().reg(2)[i].bits(), (a[i] * b[i]).bits()) << "lane " << i;
  }
}

// --- live extents: the host computes only the lanes an output can read ---

constexpr std::uint16_t kSentinel = 0x7FC1;  // a NaN the tile kernel never produces

/// Fills `p[0, n)` with seeded values in [-8, 8).
void fill_random(bfloat16_t* p, std::uint32_t n, std::uint64_t seed) {
  Rng rng{seed};
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = bfloat16_t{static_cast<float>(rng.next_double(-8, 8))};
  }
}

/// Puts the sentinel in every lane of `dst`.
void poison(bfloat16_t* dst) {
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) dst[i] = bfloat16_t::from_bits(kSentinel);
}

TEST_F(FpuTest, OverrideValidBytesBoundTheComputedLanes) {
  std::vector<bfloat16_t> local(Fpu::kTileElems);
  fill_random(local.data(), Fpu::kTileElems, 7);
  const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul};
  for (int r = 0; r < 3; ++r) poison(core_.fpu().reg(r));
  run_compute([&] {
    cb_b_.reserve_back(1);
    fill_random(reinterpret_cast<bfloat16_t*>(cb_b_.write_ptr()), Fpu::kTileElems, 8);
    cb_b_.push_back(1);
    cb_a_.reserve_back(1);
    cb_a_.push_back(1);
    cb_a_.set_read_ptr(reinterpret_cast<const std::byte*>(local.data()), 128);
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
    core_.fpu().sub_tiles(cb_a_, cb_b_, 0, 0, 1);
    core_.fpu().mul_tiles(cb_b_, cb_a_, 0, 0, 2);
  });
  const auto* b = reinterpret_cast<const bfloat16_t*>(cb_b_.read_ptr());
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE("register " + std::to_string(r));
    EXPECT_EQ(core_.fpu().extent(r), 64u);
    for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
      const bfloat16_t want = i >= 64 ? bfloat16_t::from_bits(kSentinel)
                              : r == 2 ? scalar_op(ops[r], b[i], local[i])
                                       : scalar_op(ops[r], local[i], b[i]);
      EXPECT_EQ(core_.fpu().reg(r)[i].bits(), want.bits()) << "lane " << i;
    }
  }
}

TEST_F(FpuTest, NarrowPackStoresOnlyItsExtentAndPassesItOn) {
  std::vector<bfloat16_t> local(Fpu::kTileElems);
  fill_random(local.data(), Fpu::kTileElems, 9);
  poison(core_.fpu().reg(1));
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 1.0f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    cb_b_.push_back(1);
    cb_b_.set_read_ptr(reinterpret_cast<const std::byte*>(local.data()), 128);
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);  // extent 64
    cb_out_.reserve_back(1);
    poison(reinterpret_cast<bfloat16_t*>(cb_out_.write_ptr()));
    core_.fpu().pack_tile(0, cb_out_);
    cb_out_.push_back(1);
    EXPECT_EQ(cb_out_.live_bytes(), 128u);
    core_.fpu().mul_tiles(cb_a_, cb_out_, 0, 0, 1);  // reads the packed page
  });
  const auto* page = reinterpret_cast<const bfloat16_t*>(cb_out_.read_ptr());
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
    const std::uint16_t want = i < 64 ? (bfloat16_t{1.0f} + local[i]).bits() : kSentinel;
    EXPECT_EQ(page[i].bits(), want) << "page lane " << i;
    EXPECT_EQ(core_.fpu().reg(1)[i].bits(), want) << "register lane " << i;
  }
  EXPECT_EQ(core_.fpu().extent(1), 64u);
}

TEST_F(FpuTest, PoppedPageIsAFullTileAgain) {
  std::vector<bfloat16_t> local(Fpu::kTileElems);
  fill_random(local.data(), Fpu::kTileElems, 10);
  auto& ring = core_.create_cb(2, Fpu::kTileBytes, 1);
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 2.0f);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    cb_b_.push_back(1);
    cb_b_.set_read_ptr(reinterpret_cast<const std::byte*>(local.data()), 128);
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
    ring.reserve_back(1);
    core_.fpu().pack_tile(0, ring);
    ring.push_back(1);
    ring.pop_front(1);
    // The page comes round again, now filled in full as a data mover does.
    ring.reserve_back(1);
    fill_random(reinterpret_cast<bfloat16_t*>(ring.write_ptr()), Fpu::kTileElems, 11);
    ring.push_back(1);
    EXPECT_EQ(ring.live_bytes(), 0u);
    core_.fpu().copy_tile(ring, 0, 1);
  });
  EXPECT_EQ(core_.fpu().extent(1), Fpu::kTileElems);
  const auto* page = reinterpret_cast<const bfloat16_t*>(ring.read_ptr());
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
    EXPECT_EQ(core_.fpu().reg(1)[i].bits(), page[i].bits()) << "lane " << i;
  }
}

TEST_F(FpuTest, UnaryOpsAndReduceMaxStopAtTheExtent) {
  std::vector<bfloat16_t> local(Fpu::kTileElems, bfloat16_t{-1.0f});
  local[40] = bfloat16_t{-3.0f};  // |x| makes this the live maximum
  local[500] = bfloat16_t{1000.0f};
  local[900] = std::numeric_limits<bfloat16_t>::quiet_NaN();
  bfloat16_t max_abs{};
  poison(core_.fpu().reg(0));
  poison(core_.fpu().reg(1));
  run_compute([&] {
    cb_a_.reserve_back(1);
    cb_a_.push_back(1);
    cb_a_.set_read_ptr(reinterpret_cast<const std::byte*>(local.data()), 128);
    core_.fpu().copy_tile(cb_a_, 0, 0);
    core_.fpu().abs_tile(0);
    max_abs = core_.fpu().reduce_max(0);
    core_.fpu().copy_tile(cb_a_, 0, 1);
    core_.fpu().eq_scalar_tile(1, bfloat16_t{-1.0f});
  });
  EXPECT_EQ(core_.fpu().extent(0), 64u);
  EXPECT_EQ(static_cast<float>(max_abs), 3.0f);
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[0]), 1.0f);
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(1)[40]), 0.0f);
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(1)[63]), 1.0f);
  // Lanes past the extent were never copied, and neither op touched them.
  for (std::uint32_t i = 64; i < Fpu::kTileElems; ++i) {
    EXPECT_EQ(core_.fpu().reg(0)[i].bits(), kSentinel) << "lane " << i;
    EXPECT_EQ(core_.fpu().reg(1)[i].bits(), kSentinel) << "lane " << i;
  }
}

TEST_F(FpuTest, NanResultsAreCanonicalInEitherOperandOrder) {
  // Lane pairs: opposite-sign NaNs both ways round, a NaN with a payload,
  // Inf and -Inf (Inf-Inf), 0 and Inf (0*Inf).
  const std::uint16_t lhs[] = {0x7FC0, 0xFFC0, 0xFF81, 0x7F80, 0x0000};
  const std::uint16_t rhs[] = {0xFFC0, 0x7FC0, 0x3F80, 0xFF80, 0x7F80};
  constexpr std::uint32_t kPairs = 5;
  run_compute([&] {
    for (auto* cb : {&cb_a_, &cb_b_}) {
      cb->reserve_back(1);
      const std::uint16_t* src = cb == &cb_a_ ? lhs : rhs;
      auto* p = reinterpret_cast<bfloat16_t*>(cb->write_ptr());
      for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
        p[i] = bfloat16_t::from_bits(src[i % kPairs]);
      }
      cb->push_back(1);
    }
    core_.fpu().add_tiles(cb_a_, cb_b_, 0, 0, 0);
    core_.fpu().add_tiles(cb_b_, cb_a_, 0, 0, 1);
    core_.fpu().sub_tiles(cb_a_, cb_a_, 0, 0, 2);  // NaN-NaN, Inf-Inf
    core_.fpu().mul_tiles(cb_a_, cb_b_, 0, 0, 3);
    core_.fpu().mul_tiles(cb_b_, cb_a_, 0, 0, 4);
  });
  for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
    const std::uint32_t pair = i % kPairs;
    SCOPED_TRACE("lane " + std::to_string(i));
    if (pair != 4) {  // 0 + Inf is Inf and 0 - 0 is 0
      EXPECT_EQ(core_.fpu().reg(0)[i].bits(), 0x7FC0);
      EXPECT_EQ(core_.fpu().reg(1)[i].bits(), 0x7FC0);
      EXPECT_EQ(core_.fpu().reg(2)[i].bits(), 0x7FC0);
    }
    if (pair != 3) {  // Inf * -Inf is -Inf
      EXPECT_EQ(core_.fpu().reg(3)[i].bits(), 0x7FC0);
      EXPECT_EQ(core_.fpu().reg(4)[i].bits(), 0x7FC0);
    }
  }
}

TEST_F(FpuTest, AbsTile) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    auto* p = reinterpret_cast<bfloat16_t*>(cb_a_.write_ptr());
    for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
      p[i] = bfloat16_t{(i % 2 == 0) ? -3.5f : 2.0f};
    }
    cb_a_.push_back(1);
    core_.fpu().copy_tile(cb_a_, 0, 0);
    core_.fpu().abs_tile(0);
  });
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[0]), 3.5f);
  EXPECT_EQ(static_cast<float>(core_.fpu().reg(0)[1]), 2.0f);
}

TEST_F(FpuTest, ReduceMaxFindsTheMaximumLane) {
  bfloat16_t result{};
  run_compute([&] {
    cb_a_.reserve_back(1);
    auto* p = reinterpret_cast<bfloat16_t*>(cb_a_.write_ptr());
    for (std::uint32_t i = 0; i < Fpu::kTileElems; ++i) {
      p[i] = bfloat16_t{static_cast<float>(i % 97)};
    }
    p[777] = bfloat16_t{1000.0f};
    cb_a_.push_back(1);
    core_.fpu().copy_tile(cb_a_, 0, 0);
    result = core_.fpu().reduce_max(0);
  });
  EXPECT_EQ(static_cast<float>(result), 1000.0f);
}

TEST_F(FpuTest, ReduceMaxPropagatesNan) {
  bfloat16_t result{};
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, 1.0f);
    auto* p = reinterpret_cast<bfloat16_t*>(cb_a_.write_ptr());
    p[500] = std::numeric_limits<bfloat16_t>::quiet_NaN();
    cb_a_.push_back(1);
    core_.fpu().copy_tile(cb_a_, 0, 0);
    result = core_.fpu().reduce_max(0);
  });
  EXPECT_TRUE(result.is_nan());
}

TEST_F(FpuTest, AbsOfNegativeZeroIsPositiveZero) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    fill_page(cb_a_, -0.0f);
    cb_a_.push_back(1);
    core_.fpu().copy_tile(cb_a_, 0, 0);
    core_.fpu().abs_tile(0);
  });
  EXPECT_EQ(core_.fpu().reg(0)[0].bits(), 0x0000);
}

TEST_F(FpuTest, DstRegisterOutOfRangeThrows) {
  run_compute([&] {
    cb_a_.reserve_back(1);
    cb_a_.push_back(1);
    cb_b_.reserve_back(1);
    cb_b_.push_back(1);
  });
  EXPECT_THROW(core_.fpu().reg(spec_.dst_registers), CheckError);
  EXPECT_THROW(core_.fpu().reg(-1), CheckError);
}

TEST_F(FpuTest, PackIntoTooSmallCbThrows) {
  Engine e2;
  TensixCore core2(e2, spec_, 1, NocCoord{1, 2});
  auto& tiny = core2.create_cb(3, 128, 2);  // page smaller than a tile
  e2.spawn("c", [&] {
    tiny.reserve_back(1);
    core2.fpu().pack_tile(0, tiny);
  });
  EXPECT_THROW(e2.run(), CheckError);
}

TEST(TensixCore, CbAndSemaphoreRegistry) {
  GrayskullSpec spec;
  Engine e;
  TensixCore core(e, spec, 0, NocCoord{1, 1});
  core.create_cb(0, 64, 2);
  EXPECT_TRUE(core.has_cb(0));
  EXPECT_FALSE(core.has_cb(1));
  EXPECT_THROW(core.cb(1), ApiError);
  EXPECT_THROW(core.create_cb(0, 64, 2), CheckError);  // duplicate
  core.create_semaphore(0, 1);
  EXPECT_EQ(core.semaphore(0).value(), 1);
  EXPECT_THROW(core.semaphore(9), ApiError);
  core.reset();
  EXPECT_FALSE(core.has_cb(0));
}

TEST(TensixCore, CbIdRangeEnforced) {
  GrayskullSpec spec;
  Engine e;
  TensixCore core(e, spec, 0, NocCoord{1, 1});
  EXPECT_THROW(core.create_cb(32, 64, 2), CheckError);
  EXPECT_THROW(core.create_cb(-1, 64, 2), CheckError);
}

TEST(TensixCore, CbLookupOutsideTheIdRangeIsAnApiError) {
  GrayskullSpec spec;
  Engine e;
  TensixCore core(e, spec, 0, NocCoord{1, 1});
  for (const int id : {-1, 32}) {
    EXPECT_FALSE(core.has_cb(id));
    try {
      core.cb(id);
      ADD_FAILURE() << "cb(" << id << ") did not throw";
    } catch (const ApiError& err) {
      EXPECT_EQ(std::string(err.what()),
                "CB " + std::to_string(id) + " was not configured on core 0");
    }
  }
}

/// The `b` operands of the kernel conformance sweep: every special class,
/// operands that make round-to-even ties against the `a` sweep, and seeded
/// random patterns.
std::vector<std::uint16_t> conformance_b_set() {
  std::vector<std::uint16_t> set = {
      0x0000, 0x8000,                  // +-0
      0x0001, 0x8001, 0x007F, 0x807F,  // smallest and largest denormals
      0x0080, 0x8080,                  // smallest normals
      0x7F7F, 0xFF7F,                  // +-max
      0x7F80, 0xFF80,                  // +-Inf
      0x7FC0, 0xFFC0, 0x7F81, 0xFFFF,  // quiet, negative, signalling, payload NaNs
      0x3F80, 0xBF80, 0x4040, 0x3F81,  // +-1, 3, 1 + 2^-7
  };
  Rng rng{20241017};
  while (set.size() < 64) set.push_back(static_cast<std::uint16_t>(rng.next_u64()));
  return set;
}

struct SweepResult {
  long mismatches = 0;
  long ties = 0;  // lanes whose float result sat exactly halfway between two BF16s
  long written_past_n = 0;  // lanes at or past `n` the kernel changed
};

/// Runs `kernel` for `op` over the first `n` elements of a tile, sliding the
/// `a` window through all 65,536 bit patterns, against every `b` in the set
/// (rotating `b` across lanes so each `a` meets each `b` once), and compares
/// every computed lane bit for bit with the scalar operators. Lanes from
/// `n` on must keep the sentinel. Both operands sit at an odd multiple of 2
/// bytes.
SweepResult sweep(Fpu::TileKernel kernel, BinaryOp op, std::uint32_t n = Fpu::kTileElems) {
  const auto bset = conformance_b_set();
  std::vector<bfloat16_t> a_buf(Fpu::kTileElems + 1), b_buf(Fpu::kTileElems + 1),
      out(Fpu::kTileElems, bfloat16_t::from_bits(kSentinel));
  bfloat16_t* a = a_buf.data() + 1;
  bfloat16_t* b = b_buf.data() + 1;
  SweepResult result;
  for (std::uint32_t base = 0; base < 65536; base += n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      a[i] = bfloat16_t::from_bits(static_cast<std::uint16_t>(base + i));
    }
    for (std::size_t rot = 0; rot < bset.size(); ++rot) {
      for (std::uint32_t i = 0; i < n; ++i) {
        b[i] = bfloat16_t::from_bits(bset[(i + rot) % bset.size()]);
      }
      kernel(op, a, b, out.data(), n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const bfloat16_t want = scalar_op(op, a[i], b[i]);
        if (out[i].bits() != want.bits()) {
          if (++result.mismatches <= 5) {
            ADD_FAILURE() << std::hex << "a=0x" << a[i].bits() << " b=0x" << b[i].bits()
                          << " kernel=0x" << out[i].bits() << " scalar=0x" << want.bits();
          }
        }
        const float x = a[i];
        const float y = b[i];
        const float wide = op == BinaryOp::kAdd ? x + y : op == BinaryOp::kSub ? x - y : x * y;
        if (!want.is_nan() && (std::bit_cast<std::uint32_t>(wide) & 0xFFFFu) == 0x8000u) {
          ++result.ties;
        }
      }
    }
  }
  // The kernel never produces the sentinel NaN, so one look at the end
  // catches a write past `n` by any call.
  for (std::uint32_t i = n; i < Fpu::kTileElems; ++i) {
    if (out[i].bits() != kSentinel) ++result.written_past_n;
  }
  return result;
}

/// Parameter: whether to test the AVX2 instantiation (else the baseline).
class TileKernelConformance : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !Fpu::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  }
  Fpu::TileKernel kernel() const {
    return GetParam() ? &Fpu::tile_kernel_avx2 : &Fpu::tile_kernel_baseline;
  }
};

TEST_P(TileKernelConformance, BitExactAgainstScalarOperators) {
  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul}) {
    SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)));
    const SweepResult r = sweep(kernel(), op);
    EXPECT_EQ(r.mismatches, 0);
    EXPECT_GT(r.ties, 0) << "the sweep must exercise round-to-even ties";
  }
}

TEST_P(TileKernelConformance, PartialTilesComputeExactlyTheirFirstNElements) {
  // Live extents of narrow row chunks: multiples of both kernels' steps, so
  // the kernel must stop at exactly `n`.
  for (const std::uint32_t n : {16u, 64u, 1008u}) {
    for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul}) {
      SCOPED_TRACE("n " + std::to_string(n) + " op " + std::to_string(static_cast<int>(op)));
      const SweepResult r = sweep(kernel(), op, n);
      EXPECT_EQ(r.mismatches, 0);
      EXPECT_EQ(r.written_past_n, 0);
    }
  }
}

TEST_P(TileKernelConformance, HonoursTheComputeFibersRoundingMode) {
  // The float op runs under the MXCSR of the fiber that calls it. For BF16
  // operands only the sign of an exact zero sum can show the mode (x - x is
  // -0 rounding downward), so FE_DOWNWARD is the mode that proves it;
  // FE_UPWARD and FE_TOWARDZERO must still agree with the scalar operators.
  for (const int mode : {FE_UPWARD, FE_TOWARDZERO, FE_DOWNWARD}) {
    SCOPED_TRACE("rounding mode " + std::to_string(mode));
    Engine engine;
    std::vector<bfloat16_t> ones(Fpu::kTileElems, bfloat16_t{1.0f}), diff(Fpu::kTileElems);
    SweepResult add, sub;
    engine.spawn("compute", [&] {
      ASSERT_EQ(std::fesetround(mode), 0);
      add = sweep(kernel(), BinaryOp::kAdd);
      sub = sweep(kernel(), BinaryOp::kSub);
      kernel()(BinaryOp::kSub, ones.data(), ones.data(), diff.data(), Fpu::kTileElems);
      std::fesetround(FE_TONEAREST);
    });
    engine.run();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // the fiber's mode stayed in the fiber
    EXPECT_EQ(add.mismatches, 0);
    EXPECT_EQ(sub.mismatches, 0);
    EXPECT_EQ(diff[0].bits(), mode == FE_DOWNWARD ? 0x8000 : 0x0000);
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, TileKernelConformance, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "avx2" : "baseline");
                         });

TEST(Grayskull, WorkerGridGeometry) {
  Grayskull gs;
  EXPECT_EQ(gs.worker_count(), 108);
  // Workers span columns 1..12, rows 0..8.
  EXPECT_EQ(gs.worker_coord(0).x, 1);
  EXPECT_EQ(gs.worker_coord(0).y, 0);
  EXPECT_EQ(gs.worker_coord(11).x, 12);
  EXPECT_EQ(gs.worker_coord(12).y, 1);
  EXPECT_EQ(gs.worker_coord(107).y, 8);
  EXPECT_THROW(gs.worker(108), CheckError);
}

TEST(Grayskull, BankCoordsFlankTheGrid) {
  Grayskull gs;
  for (int b = 0; b < 8; ++b) {
    const auto c = gs.bank_coord(b);
    EXPECT_TRUE(c.x == 0 || c.x == 13) << "bank " << b;
  }
}

TEST(Grayskull, HopsArePositiveAndSymmetricEnough) {
  Grayskull gs;
  auto& noc = gs.noc(0);
  const int h = noc.hops(gs.worker_coord(0), gs.bank_coord(0));
  EXPECT_GT(h, 0);
  EXPECT_EQ(noc.hops(gs.bank_coord(0), gs.worker_coord(0)), h);
}

}  // namespace
}  // namespace ttsim::sim
