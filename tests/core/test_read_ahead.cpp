/// \file test_read_ahead.cpp
/// Invariants of the configurable read-ahead pipeline (DeviceRunConfig::
/// read_ahead) and the pipelined DRAM bank service it pairs with:
///  * depth 2 IS the paper's five-slot scheme — explicitly requesting it
///    must be trace-bit-identical to the default configuration (the golden
///    pins in tests/trace/test_golden_trace.cpp then transitively cover it);
///  * deeper pipelines change timing but never data: depths 4 and 8 must
///    replay the BF16 CPU reference bit-exactly, including across column
///    boundaries (the slot-recycle drain) and for the stencil variant;
///  * on the (scaled) Table VIII workload with the pipelined bank service,
///    simulated kernel time is monotonically non-increasing in depth;
///  * a depth whose read tags overflow a data mover is an ApiError.

#include <gtest/gtest.h>

#include <string>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/jacobi_batch.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::core {
namespace {

std::uint64_t traced_hash(const DeviceRunConfig& cfg) {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open({}, dc);
  JacobiProblem p;
  p.width = 64;
  p.height = 64;
  p.iterations = 2;
  run_jacobi_on_device(*dev, p, cfg);
  return dev->trace()->hash();
}

TEST(ReadAhead, DepthTwoIsTraceBitIdenticalToDefault) {
  DeviceRunConfig def;
  def.strategy = DeviceStrategy::kRowChunk;
  DeviceRunConfig explicit2 = def;
  explicit2.read_ahead = 2;
  EXPECT_EQ(traced_hash(def), traced_hash(explicit2));
}

TEST(ReadAhead, DeeperDepthChangesScheduleButIsStillDeterministic) {
  DeviceRunConfig deep;
  deep.strategy = DeviceStrategy::kRowChunk;
  deep.read_ahead = 4;
  DeviceRunConfig def;
  def.strategy = DeviceStrategy::kRowChunk;
  EXPECT_NE(traced_hash(def), traced_hash(deep));
  EXPECT_EQ(traced_hash(deep), traced_hash(deep));
}

TEST(ReadAhead, DepthOutOfRangeThrows) {
  JacobiProblem p;
  p.width = 64;
  p.height = 64;
  p.iterations = 1;
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.read_ahead = 1;
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);
  cfg.read_ahead = 65;
  EXPECT_THROW(run_jacobi_on_device(p, cfg), ApiError);
}

/// The reader tags field f's row reads f*nslots + slot, and a data mover
/// tracks ttmetal::kMaxReadTags tags. A config whose slot ring would
/// overflow them is an ApiError naming read_ahead and the streamed-field
/// count, raised by every entry point before any kernel runs.
TEST(ReadAhead, ReadTagOverflowIsAnApiError) {
  auto expect_tag_error = [](auto&& launch, const char* what) {
    try {
      launch();
      ADD_FAILURE() << what << ": no error";
    } catch (const ApiError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("read_ahead 64"), std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find("read tags"), std::string::npos) << what << ": " << msg;
    }
  };

  // Two streamed fields on one 200-row core: 2 x 133 slots.
  const GeneralStencilProblem hot = gallery::hotspot(64, 200, 2);
  DeviceRunConfig cfg;
  cfg.read_ahead = 64;
  expect_tag_error([&] { validate_stencil_request(hot, cfg); }, "hotspot admission");
  expect_tag_error([&] { general_ir_graph(hot, cfg); }, "hotspot graph");
  expect_tag_error([&] { run_general_stencil_on_device(hot, cfg); }, "hotspot solve");

  // One field, one row per core: 259 slots.
  JacobiProblem p;
  p.width = 2048;
  p.height = 16;
  p.iterations = 1;
  DeviceRunConfig jcfg;
  jcfg.cores_y = 16;
  jcfg.chunk_elems = 16;
  jcfg.read_ahead = 64;
  expect_tag_error([&] { validate_batch_request(p, jcfg); }, "jacobi admission");
  expect_tag_error([&] { jacobi_ir_graph(p, jcfg); }, "jacobi graph");
  expect_tag_error([&] { run_jacobi_on_device(p, jcfg); }, "jacobi solve");

  // Within the tag budget the same shapes run.
  cfg.read_ahead = 32;
  cfg.verify = true;
  EXPECT_TRUE(run_general_stencil_on_device(hot, cfg).verified_ok);
  jcfg.read_ahead = 8;
  jcfg.verify = true;
  EXPECT_TRUE(run_jacobi_on_device(p, jcfg).verified_ok);
}

/// Deep read-ahead with multiple column strips per core: the prologue of
/// column c+1 recycles slots the tail of column c still references, so this
/// is the workload that catches a missing column-boundary drain.
TEST(ReadAhead, DeepDepthsBitExactAcrossColumnBoundaries) {
  JacobiProblem p;
  p.width = 2304;  // 2 cores in X -> 1152-wide strips -> chunk 576, 2 columns
  p.height = 64;
  p.iterations = 3;
  const auto ref = cpu::jacobi_reference_bf16(p);
  for (int depth : {4, 8}) {
    DeviceRunConfig cfg;
    cfg.strategy = DeviceStrategy::kRowChunk;
    cfg.cores_x = 2;
    cfg.read_ahead = depth;
    const auto r = run_jacobi_on_device(p, cfg);
    ASSERT_EQ(ref.size(), r.solution.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (static_cast<float>(ref[i]) != r.solution[i]) ++bad;
    }
    EXPECT_EQ(bad, 0u) << "depth " << depth;
  }
}

TEST(ReadAhead, StencilDeepDepthBitExact) {
  StencilProblem p;
  p.width = 128;
  p.height = 48;
  p.iterations = 4;
  p.stencil = WeightedStencil::diffusion(0.2f);
  p.bc_left = 1.0f;
  p.bc_top = 0.5f;
  p.initial = 0.25f;
  for (int depth : {2, 8}) {
    DeviceRunConfig cfg;
    cfg.read_ahead = depth;
    cfg.verify = true;
    const auto r = run_stencil_on_device(p, cfg);
    EXPECT_TRUE(r.verified_ok) << "depth " << depth;
  }
}

/// The full deep-pipelining configuration (deep read-ahead + pipelined bank
/// service + balanced stripe placement) is still bit-exact, and strictly
/// faster than the paper-faithful configuration on a bank-bound workload.
TEST(ReadAhead, DeepConfigurationBitExactAndFaster) {
  JacobiProblem p;
  p.width = 9216;
  p.height = 128;
  p.iterations = 2;
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.cores_y = 4;
  cfg.cores_x = 9;
  cfg.verify = true;
  const auto base = run_jacobi_on_device(p, cfg);
  EXPECT_TRUE(base.verified_ok);

  cfg.read_ahead = 8;
  cfg.balanced_stripes = true;
  sim::GrayskullSpec spec;
  spec.dram_bank_pipeline = true;
  const auto deep = run_jacobi_on_device(p, cfg, spec);
  EXPECT_TRUE(deep.verified_ok);
  EXPECT_LT(deep.kernel_time, base.kernel_time);
}

TEST(ReadAhead, KernelTimeMonotoneOnTableVIIIWorkload) {
  // Scaled Table VIII geometry: 9216 wide (contiguous), striped slabs,
  // pipelined bank service, and the paper's full-decomposition strip width
  // (9 cores in X -> 1024-element strips, one chunk column per core — the
  // configuration the deep pipeline targets; narrower multi-column strips
  // trade some of the win back for column-boundary drains). Deeper
  // read-ahead may only help here.
  JacobiProblem p;
  p.width = 9216;
  p.height = 128;
  p.iterations = 2;
  sim::GrayskullSpec spec;
  spec.dram_bank_pipeline = true;
  SimTime prev = 0;
  for (int depth : {2, 4, 8}) {
    DeviceRunConfig cfg;
    cfg.strategy = DeviceStrategy::kRowChunk;
    cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
    cfg.cores_y = 2;
    cfg.cores_x = 9;
    cfg.read_ahead = depth;
    const auto r = run_jacobi_on_device(p, cfg, spec);
    if (prev != 0) {
      EXPECT_LE(r.kernel_time, prev) << "depth " << depth << " regressed";
    }
    prev = r.kernel_time;
  }
}

}  // namespace
}  // namespace ttsim::core
