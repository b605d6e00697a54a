/// \file test_golden_trace.cpp
/// Golden-trace regression tests: run a fixed set of workloads with tracing
/// enabled and pin the FNV-1a hash of the canonicalized event stream. Any
/// change to the simulator's timing, scheduling, event ordering or trace
/// emission shows up as a hash mismatch here — the whole event stream is the
/// regression surface, not a handful of spot-checked numbers.
///
/// When a change is *intentional* (a timing model fix, a new event kind),
/// regenerate the pins:
///
///   TTSIM_REGEN_GOLDEN=1 ./tests/test_trace --gtest_filter='GoldenTrace.*'
///
/// prints the new constants instead of asserting; paste them below and
/// explain the timing change in the commit message. See tests/trace/README.md.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/stream/stream_bench.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim {
namespace {

struct GoldenRun {
  std::uint64_t hash = 0;
  std::size_t events = 0;
};

/// Run `workload` against a freshly opened traced device and hash the event
/// stream it leaves behind. The sink is cleared after open so buffer setup
/// noise outside the workload is still included — intentionally: golden
/// traces pin the whole run, PCIe setup included.
template <typename Workload>
GoldenRun traced(Workload&& workload, ttmetal::DeviceConfig dc = {}) {
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open({}, dc);
  workload(*dev);
  return {dev->trace()->hash(), dev->trace()->size()};
}

GoldenRun jacobi_run(core::DeviceStrategy strategy, int cores_y = 1) {
  return traced([&](ttmetal::Device& dev) {
    core::JacobiProblem p;
    p.width = 64;
    p.height = 64;
    p.iterations = 2;
    core::DeviceRunConfig cfg;
    cfg.strategy = strategy;
    cfg.cores_y = cores_y;
    core::run_jacobi_on_device(dev, p, cfg);
  });
}

/// Temporal tiling with two epochs (4 iterations at depth 2): the pinned
/// stream covers the skirt loads, the in-L1 sub-step chain, the semaphore
/// ring hand-off and the inter-epoch global barrier.
GoldenRun temporal_run() {
  return traced([&](ttmetal::Device& dev) {
    core::JacobiProblem p;
    p.width = 64;
    p.height = 64;
    p.iterations = 4;
    core::DeviceRunConfig cfg;
    cfg.strategy = core::DeviceStrategy::kTemporal;
    cfg.cores_y = 2;
    cfg.temporal_depth = 2;
    core::run_jacobi_on_device(dev, p, cfg);
  });
}

GoldenRun stream_run(int num_cores, std::uint64_t interleave_page) {
  return traced([&](ttmetal::Device& dev) {
    stream::StreamParams p;
    p.rows = 32;
    p.num_cores = num_cores;
    p.interleave_page = interleave_page;
    stream::run_streaming_benchmark(dev, p);
  });
}

GoldenRun faulty_run() {
  sim::FaultConfig fc;
  fc.seed = 11;
  fc.mover_stall_prob = 0.05;
  fc.noc_delay_prob = 0.05;
  ttmetal::DeviceConfig dc;
  dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  return traced(
      [&](ttmetal::Device& dev) {
        core::JacobiProblem p;
        p.width = 64;
        p.height = 64;
        p.iterations = 2;
        core::DeviceRunConfig cfg;
        cfg.strategy = core::DeviceStrategy::kRowChunk;
        core::run_jacobi_on_device(dev, p, cfg);
      },
      dc);
}

/// One gallery workload from the generic-stencil frontend, lowered through
/// the same kernels the conformance sweep exercises (row-chunk unless
/// `strategy` says otherwise). The suite's default shape (64x48,
/// 6 iterations) on a 1x2 grid keeps multi-field CB maps, multi-pass
/// barriers and the Life post-op all inside the pinned stream; on the
/// SRAM-resident program it also keeps the two-core halo exchange in it,
/// and on the temporal program (`temporal_depth` 2: three epochs) the
/// skirt loads, the semaphore ring and the epoch barrier.
GoldenRun gallery_run(const std::string& name,
                      core::DeviceStrategy strategy = core::DeviceStrategy::kRowChunk,
                      int temporal_depth = 1) {
  return traced([&](ttmetal::Device& dev) {
    for (const auto& named : core::gallery::suite()) {
      if (named.name != name) continue;
      core::DeviceRunConfig cfg;
      cfg.strategy = strategy;
      cfg.cores_y = 2;
      cfg.temporal_depth = temporal_depth;
      core::run_general_stencil_on_device(dev, named.problem, cfg);
      return;
    }
    FAIL() << "gallery workload not found: " << name;
  });
}

/// Two line-cabled cards running the deep-halo sharded solver, with the
/// fabric's private sink traced alongside both devices. The pinned digest is
/// FNV-1a over the concatenation card0 + card1 + fabric canonical texts —
/// track ids inside each sink are named by *global* card id, so the combined
/// stream is stable no matter how the cluster is assembled.
GoldenRun sharded_run() {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  sim::ChipLinkConfig link = sim::ChipLinkConfig::from_spec({});
  link.enable_trace = true;
  auto cluster = core::ShardedCluster::open(2, {}, dc, link);
  core::JacobiProblem p;
  p.width = 64;
  p.height = 64;
  p.iterations = 4;
  core::ShardedRunConfig cfg;
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.exchange_every = 2;  // two epochs, one extension row per cut
  const auto devs = cluster.devices();
  core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
  std::string canon;
  std::size_t events = 0;
  for (auto* dev : devs) {
    canon += dev->trace()->canonical();
    events += dev->trace()->size();
  }
  canon += cluster.fabric->trace()->canonical();
  events += cluster.fabric->trace()->size();
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return {h, events};
}

/// Pin `run` to `golden`, or print the replacement constant when
/// TTSIM_REGEN_GOLDEN is set. Always re-executes the workload a second time
/// and demands hash equality: a golden value is only meaningful if the trace
/// is reproducible in the first place.
template <typename Workload>
void expect_golden(const char* name, Workload&& workload, std::uint64_t golden) {
  const GoldenRun a = workload();
  const GoldenRun b = workload();
  ASSERT_EQ(a.hash, b.hash) << name << ": trace not reproducible across two "
                            << "runs in the same process";
  ASSERT_EQ(a.events, b.events);
  ASSERT_GT(a.events, 0u) << name << ": workload produced no events";
  if (std::getenv("TTSIM_REGEN_GOLDEN") != nullptr) {
    std::cout << "GOLDEN " << name << " = 0x" << std::hex << a.hash << std::dec
              << "ull;  // " << a.events << " events\n";
    return;
  }
  EXPECT_EQ(a.hash, golden)
      << name << ": canonical event stream changed (got 0x" << std::hex << a.hash
      << ", pinned 0x" << golden << std::dec << ", " << a.events
      << " events). If the timing/semantic change is intentional, regenerate "
      << "with TTSIM_REGEN_GOLDEN=1 (see tests/trace/README.md).";
}

// --- pinned hashes (regenerate with TTSIM_REGEN_GOLDEN=1) ---
constexpr std::uint64_t kGoldenJacobiTiled = 0xc16762991f5f97cfull;            // 5492 events
constexpr std::uint64_t kGoldenJacobiDoubleBuffered = 0x1fbbe715c38f9d40ull;   // 4974 events
constexpr std::uint64_t kGoldenJacobiRowChunk = 0x6624cac313591258ull;         // 4902 events
constexpr std::uint64_t kGoldenJacobiRowChunkMulticore = 0x91a92afe9cd9a3a4ull;  // 4939 events
constexpr std::uint64_t kGoldenStreamSingleCore = 0xeca69c538be2aafull;        // 521 events
constexpr std::uint64_t kGoldenStreamInterleaved = 0x3794630502d0b6f3ull;      // 598 events
constexpr std::uint64_t kGoldenFaultyRowChunk = 0x54329bb782de849aull;         // 4877 events
constexpr std::uint64_t kGoldenGalleryHotspot = 0x133936c67a17a930ull;         // 20963 events
constexpr std::uint64_t kGoldenGalleryFdtd2d = 0x4f49ec64b9bbeabdull;          // 50079 events
constexpr std::uint64_t kGoldenGalleryConvection = 0x626b6734c264ad2cull;      // 25269 events
constexpr std::uint64_t kGoldenGalleryLife = 0x7e37c045e2025bceull;            // 28149 events
constexpr std::uint64_t kGoldenJacobiTemporal = 0x4dbb2e1396942c25ull;         // 6091 events
constexpr std::uint64_t kGoldenJacobiSharded2Card = 0xc01983923858fa5dull;     // 10180 events
constexpr std::uint64_t kGoldenJacobiSram = 0xb238a5fb731aba3aull;              // 3499 events
constexpr std::uint64_t kGoldenGalleryConvectionSram = 0xb0619d1a8f09ecb6ull;   // 20193 events
constexpr std::uint64_t kGoldenGalleryLifeSram = 0x42e19a8d447b6778ull;         // 23073 events
constexpr std::uint64_t kGoldenGalleryConvectionTemporal = 0x913dd3b98a840c5full;  // 21618 events
constexpr std::uint64_t kGoldenGalleryHotspotTemporal = 0x5254e99bdea47320ull;     // 15698 events

TEST(GoldenTrace, JacobiTiled) {
  expect_golden(
      "kGoldenJacobiTiled",
      [] { return jacobi_run(core::DeviceStrategy::kInitial); },
      kGoldenJacobiTiled);
}

TEST(GoldenTrace, JacobiDoubleBuffered) {
  expect_golden(
      "kGoldenJacobiDoubleBuffered",
      [] { return jacobi_run(core::DeviceStrategy::kDoubleBuffered); },
      kGoldenJacobiDoubleBuffered);
}

TEST(GoldenTrace, JacobiRowChunk) {
  expect_golden(
      "kGoldenJacobiRowChunk",
      [] { return jacobi_run(core::DeviceStrategy::kRowChunk); },
      kGoldenJacobiRowChunk);
}

TEST(GoldenTrace, JacobiRowChunkMulticore) {
  expect_golden(
      "kGoldenJacobiRowChunkMulticore",
      [] { return jacobi_run(core::DeviceStrategy::kRowChunk, /*cores_y=*/2); },
      kGoldenJacobiRowChunkMulticore);
}

/// SRAM-resident Jacobi on two cores: the slab loads, the classic point
/// chain, one neighbour halo exchange with its R restores, and the
/// writeback.
TEST(GoldenTrace, JacobiSram) {
  expect_golden(
      "kGoldenJacobiSram",
      [] { return jacobi_run(core::DeviceStrategy::kSramResident, /*cores_y=*/2); },
      kGoldenJacobiSram);
}

TEST(GoldenTrace, JacobiTemporal) {
  expect_golden("kGoldenJacobiTemporal", [] { return temporal_run(); },
                kGoldenJacobiTemporal);
}

TEST(GoldenTrace, JacobiSharded2Card) {
  expect_golden("kGoldenJacobiSharded2Card", [] { return sharded_run(); },
                kGoldenJacobiSharded2Card);
}

TEST(GoldenTrace, StreamSingleCore) {
  expect_golden(
      "kGoldenStreamSingleCore", [] { return stream_run(1, 0); },
      kGoldenStreamSingleCore);
}

TEST(GoldenTrace, StreamInterleavedMulticore) {
  expect_golden(
      "kGoldenStreamInterleaved", [] { return stream_run(2, 16 * KiB); },
      kGoldenStreamInterleaved);
}

TEST(GoldenTrace, FaultInjectionRowChunk) {
  expect_golden("kGoldenFaultyRowChunk", [] { return faulty_run(); },
                kGoldenFaultyRowChunk);
}

TEST(GoldenTrace, GalleryHotspot) {
  expect_golden("kGoldenGalleryHotspot", [] { return gallery_run("hotspot"); },
                kGoldenGalleryHotspot);
}

TEST(GoldenTrace, GalleryFdtd2d) {
  expect_golden("kGoldenGalleryFdtd2d", [] { return gallery_run("fdtd2d"); },
                kGoldenGalleryFdtd2d);
}

TEST(GoldenTrace, GalleryConvection) {
  expect_golden("kGoldenGalleryConvection",
                [] { return gallery_run("convection"); },
                kGoldenGalleryConvection);
}

TEST(GoldenTrace, GalleryLife) {
  expect_golden("kGoldenGalleryLife", [] { return gallery_run("life"); },
                kGoldenGalleryLife);
}

/// The general SRAM-resident program: the plain tap chain (convection) and
/// the Life post-op.
TEST(GoldenTrace, GalleryConvectionSram) {
  expect_golden(
      "kGoldenGalleryConvectionSram",
      [] { return gallery_run("convection", core::DeviceStrategy::kSramResident); },
      kGoldenGalleryConvectionSram);
}

TEST(GoldenTrace, GalleryLifeSram) {
  expect_golden(
      "kGoldenGalleryLifeSram",
      [] { return gallery_run("life", core::DeviceStrategy::kSramResident); },
      kGoldenGalleryLifeSram);
}

/// The general temporal program: the written field's ping-pong slabs
/// (convection) and, with hotspot, the read-only power field's single slab.
TEST(GoldenTrace, GalleryConvectionTemporal) {
  expect_golden(
      "kGoldenGalleryConvectionTemporal",
      [] { return gallery_run("convection", core::DeviceStrategy::kTemporal, 2); },
      kGoldenGalleryConvectionTemporal);
}

TEST(GoldenTrace, GalleryHotspotTemporal) {
  expect_golden(
      "kGoldenGalleryHotspotTemporal",
      [] { return gallery_run("hotspot", core::DeviceStrategy::kTemporal, 2); },
      kGoldenGalleryHotspotTemporal);
}

/// The hash is a digest of the canonical text; make sure the two stay in
/// sync (a refactor that changes canonical() but forgets hash() — or vice
/// versa — would silently decouple the golden pins from the artifact a
/// human inspects when they diverge).
TEST(GoldenTrace, HashMatchesCanonicalText) {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open({}, dc);
  stream::StreamParams p;
  p.rows = 4;
  stream::run_streaming_benchmark(*dev, p);
  const std::string canon = dev->trace()->canonical();
  ASSERT_FALSE(canon.empty());
  // FNV-1a 64, the exact algorithm documented in trace.hpp.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, dev->trace()->hash());
}

}  // namespace
}  // namespace ttsim
