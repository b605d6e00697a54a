/// \file test_attribution.cpp
/// Mechanism-assertion tests: the trace/metrics layer must *attribute* each
/// paper mechanism to the right resource, not merely record events. Each
/// test runs a configuration from the paper, aggregates the trace with
/// build_metrics, and asserts the attribution the paper's analysis gives:
///
///  - Table II: the tiled pipeline is bound by the reader baby-core's
///    software memcpy (the Section V diagnosis that motivates cb_set_rd_ptr).
///  - Table VII: streaming from a single DRAM bank saturates that bank at
///    two cores (and is visibly unsaturated at one).
///  - Fault injection: every injection the FaultPlan performed appears in
///    the simulator trace, exactly once, with matching time/kind/core.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/sim/engine.hpp"
#include "ttsim/sim/metrics.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/stream/stream_bench.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim {
namespace {

ttmetal::DeviceConfig traced_config() {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  return dc;
}

/// Summed metrics of every kernel named "<group>@...".
struct GroupTotals {
  SimTime issue = 0;
  SimTime memcpy_time = 0;
  SimTime fpu = 0;
  SimTime cb_wait = 0;
  SimTime lifetime = 0;
  SimTime self_busy() const { return issue + memcpy_time + fpu; }
};

GroupTotals sum_group(const sim::MetricsReport& m, const std::string& group) {
  GroupTotals total;
  for (const auto& k : m.kernels) {
    if (k.name.rfind(group, 0) != 0) continue;
    total.issue += k.issue;
    total.memcpy_time += k.memcpy_time;
    total.fpu += k.fpu;
    total.cb_wait += k.cb_full_wait + k.cb_empty_wait;
    total.lifetime += k.lifetime();
  }
  return total;
}

TEST(Attribution, Table2TiledPipelineIsReaderMemcpyBound) {
  auto dev = ttmetal::Device::open({}, traced_config());
  core::JacobiProblem p;
  p.width = 256;
  p.height = 256;
  p.iterations = 2;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kDoubleBuffered;
  dev->trace()->clear();
  const auto r = core::run_jacobi_on_device(*dev, p, cfg);
  ASSERT_TRUE(r.verified_ok);

  const sim::MetricsReport m = dev->metrics();
  const auto reader = sum_group(m, "jacobi_tiled_reader");
  const auto compute = sum_group(m, "jacobi_tiled_compute");
  ASSERT_GT(reader.lifetime, 0) << "no reader kernels in the trace";
  ASSERT_GT(compute.lifetime, 0) << "no compute kernels in the trace";

  // The reader's own busy time is dominated by l1_memcpy — the paper's
  // "large overhead [...] copying data" diagnosis.
  EXPECT_GT(reader.memcpy_time, reader.self_busy() / 2);
  // And that memcpy keeps the reader busy for most of its lifetime: the
  // pipeline is producer-limited, not DRAM- or compute-limited.
  EXPECT_GT(static_cast<double>(reader.self_busy()) /
                static_cast<double>(reader.lifetime),
            0.8);
  // The compute kernel spends most of its lifetime starved on CBs.
  EXPECT_GT(compute.cb_wait, compute.lifetime / 2);
  // DRAM is nowhere near saturation in this regime.
  EXPECT_LT(m.max_bank_utilization(), 0.5);
}

TEST(Attribution, Table7SingleBankSaturatesAtTwoCores) {
  const auto bank_util = [](int num_cores) {
    auto dev = ttmetal::Device::open({}, traced_config());
    stream::StreamParams p;
    p.rows = 256;
    p.verify = false;
    p.num_cores = num_cores;
    dev->trace()->clear();
    stream::run_streaming_benchmark(*dev, p);
    return dev->metrics().max_bank_utilization();
  };
  // Paper Table VII: one core leaves single-bank bandwidth on the table;
  // two cores saturate the bank (the per-bank wall that motivates
  // interleaving across banks).
  EXPECT_LT(bank_util(1), 0.6);
  EXPECT_GT(bank_util(2), 0.85);
}

// Paper Table VIII's 108-core row saturates its busiest bank. Service that
// drains after the last kernel ends lies outside the window the busy time is
// divided by, so it must not count: every utilisation is a fraction.
TEST(Attribution, Table8FullCardUtilisationsAreFractions) {
  auto dev = ttmetal::Device::open({}, traced_config());
  core::JacobiProblem p;
  p.width = 9216;
  p.height = 1024;
  p.iterations = 1;
  p.bc_left = 1.0f;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.cores_y = 12;
  cfg.cores_x = 9;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.verify = false;
  dev->trace()->clear();
  core::run_jacobi_on_device(*dev, p, cfg);

  const sim::MetricsReport m = dev->metrics();
  ASSERT_EQ(m.banks.size(), static_cast<std::size_t>(dev->spec().dram_banks));
  for (std::size_t b = 0; b < m.banks.size(); ++b) {
    EXPECT_GE(m.bank_utilization(b), 0.0) << "bank " << b;
    EXPECT_LE(m.bank_utilization(b), 1.0) << "bank " << b;
  }
  EXPECT_GE(m.aggregate_utilization(), 0.0);
  EXPECT_LE(m.aggregate_utilization(), 1.0);
  // The row is DRAM-bound: its busiest bank is nearly always busy.
  EXPECT_GT(m.max_bank_utilization(), 0.95);
}

TEST(Attribution, FaultInjectionsMirrorThePlanExactly) {
  sim::FaultConfig fc;
  fc.seed = 23;
  fc.mover_stall_prob = 0.08;
  fc.noc_delay_prob = 0.08;
  fc.dram_read_bitflip_prob = 0.001;

  const auto run = [&] {
    ttmetal::DeviceConfig dc = traced_config();
    dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
    auto dev = ttmetal::Device::open({}, dc);
    core::JacobiProblem p;
    p.width = 64;
    p.height = 64;
    p.iterations = 2;
    core::DeviceRunConfig cfg;
    cfg.strategy = core::DeviceStrategy::kRowChunk;
    cfg.verify = false;  // bit flips may corrupt the numerics; irrelevant here
    core::run_jacobi_on_device(*dev, p, cfg);

    std::vector<sim::TraceEvent> faults;
    for (const auto& e : dev->trace()->events()) {
      if (e.kind == sim::TraceEventKind::kFault) faults.push_back(e);
    }
    return std::make_pair(faults, dev->fault_plan()->trace());
  };

  const auto [faults, plan] = run();
  ASSERT_FALSE(plan.empty()) << "workload never hit a fault decision point; "
                                "raise the probabilities";
  // Exactly one trace event per planned injection, in order, with matching
  // kind, time, core and address.
  ASSERT_EQ(faults.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(faults[i].a, static_cast<std::int32_t>(plan[i].kind)) << "event " << i;
    EXPECT_EQ(faults[i].ts, plan[i].time) << "event " << i;
    EXPECT_EQ(faults[i].core, plan[i].core) << "event " << i;
    EXPECT_EQ(faults[i].addr, plan[i].addr) << "event " << i;
    EXPECT_EQ(faults[i].bytes, plan[i].size) << "event " << i;
  }

  // Same seed, same workload: the injection stream reproduces exactly.
  const auto [faults2, plan2] = run();
  ASSERT_EQ(faults2.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults2[i].ts, faults[i].ts);
    EXPECT_EQ(faults2[i].a, faults[i].a);
    EXPECT_EQ(faults2[i].core, faults[i].core);
    EXPECT_EQ(faults2[i].addr, faults[i].addr);
  }
}

/// A track that hosts several launches (one per sharded epoch, say) counts
/// the time inside each launch, not the gaps between them.
TEST(Attribution, KernelLifetimeSumsEveryLaunch) {
  sim::Engine engine;
  sim::TraceSink sink(engine);
  const int track = sink.track("reader@0");
  const auto mark = [&](sim::TraceEventKind kind, SimTime ts) {
    sink.record(kind, ts, 0, {.core = 0}, track);
  };
  mark(sim::TraceEventKind::kKernelStart, 10);
  mark(sim::TraceEventKind::kKernelEnd, 50);
  mark(sim::TraceEventKind::kKernelStart, 150);
  mark(sim::TraceEventKind::kKernelEnd, 180);

  const sim::MetricsReport m = sim::build_metrics(sink, 0);
  ASSERT_EQ(m.kernels.size(), 1u);
  const sim::KernelMetrics& k = m.kernels[0];
  EXPECT_EQ(k.name, "reader@0");
  EXPECT_EQ(k.start, 10);
  EXPECT_EQ(k.end, 180);
  EXPECT_EQ(k.lifetime(), 40 + 30);
  EXPECT_EQ(m.span(), 170);
}

/// metrics() is an API error without enable_trace — the failure mode is a
/// typed exception, not an empty report silently attributing nothing.
TEST(Attribution, MetricsRequireTracing) {
  auto dev = ttmetal::Device::open();
  EXPECT_EQ(dev->trace(), nullptr);
  EXPECT_THROW(dev->metrics(), ApiError);
}

}  // namespace
}  // namespace ttsim
