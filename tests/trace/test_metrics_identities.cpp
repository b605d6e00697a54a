/// \file test_metrics_identities.cpp
/// Cross-layer identities between the aggregated MetricsReport and the
/// sources it is built from. Each workload runs on a fresh traced device,
/// so the trace and the DRAM model's own counters cover the same requests:
///
///  - the per-bank row misses sum to DramStats::row_misses, and no bank
///    re-activates a row more often than it serves requests;
///  - the per-bank bytes sum to DramStats::bytes_read + bytes_written;
///  - each NoC's busy time is the hop latency times the hops its transfers
///    crossed (the trace's hop count per transfer, not its duration: the
///    simulator keeps no NoC counter outside the trace);
///  - each (core, CB) occupancy histogram holds exactly one sample per
///    kCbPush / kCbPop event of that pair in the trace;
///  - a solve moves exactly its grids over PCIe: one padded image per
///    staged buffer (two per written field, one per read-only field) and
///    one per field read back, each its own transfer;
///  - no kernel accounts more busy and wait time than it lived, on a
///    temporal solve whose semaphore ring waits.
///
/// A doubled row-miss count, bank byte count, NoC busy time, semaphore wait,
/// occupancy sample or PCIe byte count in the aggregation passes every
/// solution and timing test; these identities catch all six.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ttsim/core/gallery.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/sim/metrics.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/stream/stream_bench.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim {
namespace {

std::unique_ptr<ttmetal::Device> traced_device() {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  return ttmetal::Device::open({}, dc);
}

void expect_identities(ttmetal::Device& dev, const char* what) {
  const sim::MetricsReport m = dev.metrics();
  const sim::DramStats& dram = dev.hw().dram().stats();

  std::uint64_t bank_misses = 0;
  for (std::size_t b = 0; b < m.banks.size(); ++b) {
    bank_misses += m.banks[b].row_misses;
    EXPECT_LE(m.banks[b].row_misses, m.banks[b].requests)
        << what << ": bank " << b;
  }
  EXPECT_EQ(bank_misses, dram.row_misses) << what;

  std::uint64_t bank_bytes = 0;
  for (const sim::BankMetrics& bm : m.banks) bank_bytes += bm.bytes;
  EXPECT_EQ(bank_bytes, dram.bytes_read + dram.bytes_written) << what;

  std::vector<SimTime> hop_time(m.noc_busy.size(), 0);
  for (const sim::TraceEvent& e : dev.trace()->events()) {
    if (e.kind == sim::TraceEventKind::kNocTransfer) {
      hop_time.at(static_cast<std::size_t>(e.a)) += e.b * dev.spec().noc_hop_latency;
    }
  }
  ASSERT_FALSE(hop_time.empty()) << what << ": no NoC traffic traced";
  EXPECT_EQ(m.noc_busy, hop_time) << what;

  std::map<std::pair<int, int>, std::uint64_t> transitions;
  for (const sim::TraceEvent& e : dev.trace()->events()) {
    if (e.kind == sim::TraceEventKind::kCbPush ||
        e.kind == sim::TraceEventKind::kCbPop) {
      transitions[{e.core, e.a}] += 1;
    }
  }
  ASSERT_FALSE(transitions.empty()) << what << ": no CB traffic traced";
  std::map<std::pair<int, int>, std::uint64_t> samples;
  for (const auto& [key, histogram] : m.cb_occupancy) {
    for (const auto& [pages, count] : histogram) samples[key] += count;
  }
  EXPECT_EQ(samples, transitions) << what;
}

TEST(MetricsIdentities, StripedRowChunkSolve) {
  auto dev = traced_device();
  core::JacobiProblem p;
  p.width = 128;
  p.height = 64;
  p.iterations = 2;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.cores_y = 4;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.verify = true;
  ASSERT_TRUE(core::run_jacobi_on_device(*dev, p, cfg).verified_ok);
  expect_identities(*dev, "striped row-chunk");
}

TEST(MetricsIdentities, StreamingRun) {
  auto dev = traced_device();
  stream::StreamParams p;
  p.rows = 32;
  p.num_cores = 2;
  p.contiguous = false;  // strided requests re-activate rows
  stream::run_streaming_benchmark(*dev, p);
  ASSERT_GT(dev->hw().dram().stats().row_misses, 0u)
      << "the identity is vacuous without row misses";
  expect_identities(*dev, "streaming");
}

/// The PCIe identity: `transfers` padded images of `layout`, one transfer
/// each.
void expect_pcie(ttmetal::Device& dev, const core::PaddedLayout& layout,
                 std::uint64_t transfers, const char* what) {
  const sim::MetricsReport m = dev.metrics();
  EXPECT_EQ(m.pcie_transfers, transfers) << what;
  EXPECT_EQ(m.pcie_bytes, transfers * layout.bytes()) << what;
}

TEST(MetricsIdentities, JacobiSolveMovesThreeGridsOverPcie) {
  // Two staged parities of the one field, one readback.
  auto dev = traced_device();
  core::JacobiProblem p;
  p.width = 128;
  p.height = 64;
  p.iterations = 3;
  core::DeviceRunConfig cfg;
  cfg.cores_y = 2;
  cfg.verify = true;
  ASSERT_TRUE(core::run_jacobi_on_device(*dev, p, cfg).verified_ok);
  expect_pcie(*dev, core::PaddedLayout(p.width, p.height), 3, "jacobi");
}

TEST(MetricsIdentities, HotspotSolveStagesOneGridPerReadOnlyField) {
  // Temperature (written): two staged, one read back. Power (read-only):
  // one staged, one read back.
  auto dev = traced_device();
  const auto p = core::gallery::hotspot(64, 32, 3);
  core::DeviceRunConfig cfg;
  cfg.cores_y = 2;
  cfg.verify = true;
  ASSERT_TRUE(core::run_general_stencil_on_device(*dev, p, cfg).verified_ok);
  std::uint64_t staged = 0;
  for (int f = 0; f < static_cast<int>(p.fields.size()); ++f) {
    staged += p.written_pass(f) >= 0 ? 2 : 1;
  }
  ASSERT_EQ(staged, 3u);
  expect_pcie(*dev, core::PaddedLayout(p.width, p.height), staged + p.fields.size(),
              "hotspot");
}

TEST(MetricsIdentities, TemporalSolveAccountsNoMoreThanEachKernelLived) {
  // Temporal tiling passes each sub-step's skirt rows between neighbouring
  // cores over a semaphore ring, so its kernels wait on semaphores.
  auto dev = traced_device();
  core::JacobiProblem p;
  p.width = 64;
  p.height = 64;
  p.iterations = 8;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kTemporal;
  cfg.temporal_depth = 4;
  cfg.cores_y = 4;
  cfg.verify = true;
  ASSERT_TRUE(core::run_jacobi_on_device(*dev, p, cfg).verified_ok);
  const sim::MetricsReport m = dev->metrics();
  SimTime sem_wait = 0;
  for (const sim::KernelMetrics& k : m.kernels) {
    EXPECT_LE(k.self_busy() + k.total_wait(), k.lifetime()) << k.name;
    sem_wait += k.sem_wait;
  }
  ASSERT_GT(sem_wait, 0) << "the bound is vacuous without semaphore waits";
}

}  // namespace
}  // namespace ttsim
