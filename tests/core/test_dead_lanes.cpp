/// \file test_dead_lanes.cpp
/// A 64-wide solve feeds the FPU tiles whose lanes past the row chunk are
/// dead: no output may read them. These tests fill every used worker's SRAM
/// and FPU registers with a NaN before the solve, so that any output
/// computed from a dead lane (or from L1 no kernel wrote) turns NaN, and
/// then demand bit exactness against the BF16 CPU references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

namespace ttsim::core {
namespace {

constexpr std::uint16_t kPoison = 0x7FC1;  // a quiet NaN with a payload
constexpr int kCores = 2;

/// Opens an e150 whose first kCores usable workers (the ones a kCores-core
/// solve runs on) hold kPoison in every SRAM element and register lane.
std::unique_ptr<ttmetal::Device> poisoned_device() {
  auto dev = ttmetal::Device::open();
  const auto usable = dev->usable_workers();
  for (int i = 0; i < kCores; ++i) {
    auto& core = dev->hw().worker(usable[static_cast<std::size_t>(i)]);
    auto* bytes = core.sram().data();
    for (std::uint64_t off = 0; off < core.sram().capacity(); off += 2) {
      std::memcpy(bytes + off, &kPoison, 2);
    }
    for (int r = 0; r < dev->spec().dst_registers; ++r) {
      std::fill_n(core.fpu().reg(r), sim::Fpu::kTileElems, bfloat16_t::from_bits(kPoison));
    }
  }
  return dev;
}

DeviceRunConfig config(DeviceStrategy s, int depth = 1) {
  DeviceRunConfig cfg;
  cfg.strategy = s;
  cfg.cores_y = kCores;
  cfg.temporal_depth = depth;
  return cfg;
}

void expect_bit_exact(const std::vector<bfloat16_t>& ref, const std::vector<float>& got,
                      const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<float>(ref[i]) != got[i] && ++bad <= 3) {
      ADD_FAILURE() << what << ": mismatch at " << i << ": device " << got[i] << " vs ref "
                    << static_cast<float>(ref[i]);
    }
  }
  EXPECT_EQ(bad, 0u) << what;
}

void run_jacobi(DeviceStrategy s, int depth = 1) {
  JacobiProblem p;
  p.width = 64;
  p.height = 48;
  p.iterations = 8;
  auto dev = poisoned_device();
  const auto r = run_jacobi_on_device(*dev, p, config(s, depth));
  EXPECT_EQ(r.cores_used, kCores);
  expect_bit_exact(cpu::jacobi_reference_bf16(p), r.solution, to_string(s));
}

void run_general(const GeneralStencilProblem& p, DeviceStrategy s, int depth = 1) {
  auto dev = poisoned_device();
  const auto r = run_general_stencil_on_device(*dev, p, config(s, depth));
  EXPECT_EQ(r.cores_used, kCores);
  const auto ref = cpu::general_reference_bf16(p);
  ASSERT_EQ(ref.size(), r.fields.size());
  for (std::size_t f = 0; f < ref.size(); ++f) {
    expect_bit_exact(ref[f], r.fields[f], to_string(s) + " field " + std::to_string(f));
  }
}

TEST(DeadLanes, RowChunkJacobiReadsNoLanePastItsChunk) {
  run_jacobi(DeviceStrategy::kRowChunk);
}

TEST(DeadLanes, SramResidentJacobiReadsNoLanePastItsChunk) {
  run_jacobi(DeviceStrategy::kSramResident);
}

TEST(DeadLanes, TemporalClassicJacobiReadsNoLanePastItsChunk) {
  run_jacobi(DeviceStrategy::kTemporal, 4);
}

TEST(DeadLanes, GalleryHotspotReadsNoLanePastItsChunk) {
  run_general(gallery::hotspot(64, 48, 8), DeviceStrategy::kRowChunk);
}

TEST(DeadLanes, GalleryLifeReadsNoLanePastItsChunk) {
  run_general(gallery::life(64, 48, 8), DeviceStrategy::kRowChunk);
}

TEST(DeadLanes, TemporalGeneralReadsNoLanePastItsChunk) {
  run_general(gallery::hotspot(64, 48, 8), DeviceStrategy::kTemporal, 4);
  run_general(gallery::life(64, 48, 8), DeviceStrategy::kTemporal, 4);
}

}  // namespace
}  // namespace ttsim::core
