/// \file test_golden_trace.cpp
/// Golden-trace regression tests: run a fixed set of workloads with tracing
/// enabled and pin the FNV-1a hash of the canonicalized event stream next to
/// the simulated end time (the latest event end). Any change to the
/// simulator's timing, scheduling, event ordering or trace emission shows up
/// as a hash mismatch here — the whole event stream is the regression
/// surface, not a handful of spot-checked numbers — and the end-time pin
/// shows whether a re-pinned stream also moved in time.
///
/// When a change is *intentional* (a timing model fix, a new event kind),
/// regenerate the pins:
///
///   TTSIM_REGEN_GOLDEN=1 ./tests/test_trace --gtest_filter='GoldenTrace.*'
///
/// prints the new constants instead of asserting; paste them below and
/// explain the timing change in the commit message. See tests/trace/README.md.

#include <gtest/gtest.h>

#include <algorithm>
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
  SimTime end = 0;  ///< latest event end (ts + dur), simulated ps
};

/// A pinned run: the canonical stream's hash and its simulated end time.
struct GoldenPin {
  std::uint64_t hash = 0;
  SimTime end = 0;
};

SimTime end_of(const sim::TraceSink& sink) {
  SimTime end = 0;
  for (const sim::TraceEvent& e : sink.events()) end = std::max(end, e.ts + e.dur);
  return end;
}

/// Run `workload` against a freshly opened traced device and hash the event
/// stream it leaves behind. The sink is cleared after open so buffer setup
/// noise outside the workload is still included — intentionally: golden
/// traces pin the whole run, PCIe setup included.
template <typename Workload>
GoldenRun traced(Workload&& workload, ttmetal::DeviceConfig dc = {}) {
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open({}, dc);
  workload(*dev);
  return {dev->trace()->hash(), dev->trace()->size(), end_of(*dev->trace())};
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
  SimTime end = 0;
  for (auto* dev : devs) {
    canon += dev->trace()->canonical();
    events += dev->trace()->size();
    end = std::max(end, end_of(*dev->trace()));
  }
  canon += cluster.fabric->trace()->canonical();
  events += cluster.fabric->trace()->size();
  end = std::max(end, end_of(*cluster.fabric->trace()));
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return {h, events, end};
}

/// Pin `run` to `golden`, or print the replacement constant when
/// TTSIM_REGEN_GOLDEN is set. Always re-executes the workload a second time
/// and demands equality: a golden value is only meaningful if the trace is
/// reproducible in the first place.
template <typename Workload>
void expect_golden(const char* name, Workload&& workload, GoldenPin golden) {
  const GoldenRun a = workload();
  const GoldenRun b = workload();
  ASSERT_EQ(a.hash, b.hash) << name << ": trace not reproducible across two "
                            << "runs in the same process";
  ASSERT_EQ(a.events, b.events);
  ASSERT_EQ(a.end, b.end);
  ASSERT_GT(a.events, 0u) << name << ": workload produced no events";
  if (std::getenv("TTSIM_REGEN_GOLDEN") != nullptr) {
    std::cout << "GOLDEN " << name << " = {0x" << std::hex << a.hash << std::dec
              << "ull, " << a.end << "};  // " << a.events << " events\n";
    return;
  }
  EXPECT_EQ(a.end, golden.end)
      << name << ": simulated end time moved (" << a.end << " ps, pinned "
      << golden.end << " ps).";
  EXPECT_EQ(a.hash, golden.hash)
      << name << ": canonical event stream changed (got 0x" << std::hex << a.hash
      << ", pinned 0x" << golden.hash << std::dec << ", " << a.events
      << " events). If the timing/semantic change is intentional, regenerate "
      << "with TTSIM_REGEN_GOLDEN=1 (see tests/trace/README.md).";
}

// --- pinned hashes and end times in ps (regenerate with TTSIM_REGEN_GOLDEN=1) ---
constexpr GoldenPin kGoldenJacobiTiled{0xf0150069baae5845ull, 1385697600};  // 5492 events
constexpr GoldenPin kGoldenJacobiDoubleBuffered{0x5b92c64f66a61666ull, 1172721040};  // 4974 events
constexpr GoldenPin kGoldenJacobiRowChunk{0x3fbd7489ccbbbeb3ull, 646258290};  // 4901 events
constexpr GoldenPin kGoldenJacobiRowChunkMulticore{0x8ef113751500cd0aull, 591777506};
    // 4937 events
constexpr GoldenPin kGoldenStreamSingleCore{0x4db71d39c8458c27ull, 662916264};  // 521 events
constexpr GoldenPin kGoldenStreamInterleaved{0x97093303727b3f7ull, 620428589};  // 598 events
constexpr GoldenPin kGoldenFaultyRowChunk{0xd3207a1926ad338bull, 835648197};  // 4876 events
constexpr GoldenPin kGoldenGalleryHotspot{0xb6697b492cb198dcull, 861750538};  // 21227 events
constexpr GoldenPin kGoldenGalleryFdtd2d{0x3120ffc6d1d37890ull, 1160170598};  // 50607 events
constexpr GoldenPin kGoldenGalleryConvection{0xb5dd71ee35a95ce6ull, 993376538};  // 25269 events
constexpr GoldenPin kGoldenGalleryLife{0x1b912d3459066343ull, 858016538};  // 19509 events
constexpr GoldenPin kGoldenJacobiTemporal{0xf4b7ad2716a4ad0full, 657230510};  // 6089 events
constexpr GoldenPin kGoldenJacobiSharded2Card{0x517f401de712c055ull, 1162701536};  // 10176 events
constexpr GoldenPin kGoldenJacobiSram{0x85dd53a08c7dbda3ull, 600080098};  // 3497 events
constexpr GoldenPin kGoldenGalleryConvectionSram{0xb00c725f02bb8314ull, 991412838};  // 20193 events
constexpr GoldenPin kGoldenGalleryLifeSram{0x7f5e2f5779426968ull, 856052838};  // 14433 events
constexpr GoldenPin kGoldenGalleryConvectionTemporal{0xd1040fc9c1aa0643ull, 1015377957};
    // 21618 events
constexpr GoldenPin kGoldenGalleryHotspotTemporal{0xa8c06383c3afcd52ull, 885695957};
    // 15698 events

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
