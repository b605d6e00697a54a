/// \file test_resilience.cpp
/// End-to-end resilience tests: solves that survive injected faults
/// (mid-solve core failures, transient PCIe corruption), the determinism of
/// the fault trace (same seed => byte-identical), and the failure paths when
/// recovery is disabled or exhausted.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ttsim/core/resilience.hpp"
#include "ttsim/sim/fault.hpp"

namespace ttsim::core {
namespace {

JacobiProblem small_problem(std::uint32_t w, std::uint32_t h, int iters) {
  JacobiProblem p;
  p.width = w;
  p.height = h;
  p.iterations = iters;
  return p;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The acceptance scenario: a Table-VIII-shaped solve (contiguous X strips,
/// striped banks, multi-core) hit by a whole-core failure mid-solve plus
/// transient PCIe corruption. The solve must complete, verify bit-exactly
/// against the CPU reference, report its retries/restarts, and produce a
/// byte-identical fault trace when re-run with the same seed.
TEST(Resilience, SolveSurvivesCoreFailureAndPcieCorruption) {
  const auto p = small_problem(1024, 96, 12);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.cores_y = 4;
  cfg.cores_x = 1;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 4;
  // A 4-worker card: losing a core then forces a genuine shrink of the
  // decomposition (on the full 108-worker e150 the remap would simply pick a
  // spare worker instead).
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;

  // Calibrate the kill time off a fault-free run so it lands mid-solve.
  const auto clean = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
  ASSERT_TRUE(clean.verified_ok);
  EXPECT_EQ(clean.restarts, 0);
  EXPECT_EQ(clean.transfer_retries, 0);
  EXPECT_EQ(clean.cores_used, 4);
  EXPECT_TRUE(clean.fault_summary.empty());

  sim::FaultConfig fc;
  fc.seed = 7;
  fc.pcie_corrupt_prob = 0.25;
  fc.core_kills = {{.core = 2, .at = clean.total_time / 2}};

  const auto run = [&] {
    return run_jacobi_resilient(p, cfg, opts,
                                std::make_shared<sim::FaultPlan>(fc), spec);
  };
  const auto a = run();
  EXPECT_TRUE(a.verified_ok);             // recovered solve is still bit-exact
  EXPECT_GE(a.restarts, 1);               // the core kill cost a generation
  EXPECT_GE(a.transfer_retries, 1);       // corruption was caught and retried
  EXPECT_EQ(a.cores_used, 3);             // remapped around the dead core
  EXPECT_GT(a.iterations_replayed, 0);
  EXPECT_GT(a.total_time, clean.total_time);
  EXPECT_FALSE(a.fault_summary.empty());
  EXPECT_NE(a.fault_summary.find("core-failure"), std::string::npos);
  EXPECT_NE(a.fault_summary.find("pcie-corrupt"), std::string::npos);

  // Same seed, same workload: the whole faulted run reproduces exactly.
  const auto b = run();
  EXPECT_EQ(a.fault_summary, b.fault_summary);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.solution, b.solution);
}

/// Timing-only faults (mover stalls, NoC delays) perturb the schedule but
/// not the arithmetic: the solve still verifies, and two runs with the same
/// seed log byte-identical traces.
TEST(Resilience, SameSeedGivesByteIdenticalFaultTrace) {
  const auto p = small_problem(256, 48, 6);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.cores_y = 2;
  cfg.verify = true;

  sim::FaultConfig fc;
  fc.seed = 11;
  fc.mover_stall_prob = 0.05;
  fc.noc_delay_prob = 0.05;

  std::string traces[2];
  for (auto& trace : traces) {
    ttmetal::DeviceConfig dc;
    dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
    auto dev = ttmetal::Device::open({}, dc);
    const auto r = run_jacobi_on_device(*dev, p, cfg);
    EXPECT_TRUE(r.verified_ok);
    trace = dev->fault_plan()->trace_string();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

/// A core failure during the SRAM-resident solve (paper Section VIII
/// proposal): the halo-exchange ring is rebuilt over the surviving cores by
/// the logical->physical remap, and the recovered solve stays bit-exact.
TEST(Resilience, SramResidentSolveSurvivesCoreFailure) {
  const auto p = small_problem(64, 64, 8);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  cfg.cores_y = 4;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 4;
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;  // no spare workers: the ring must shrink

  const auto clean = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
  ASSERT_TRUE(clean.verified_ok);

  sim::FaultConfig fc;
  fc.seed = 3;
  // Kill a *middle* core mid-solve: both neighbours lose their halo partner,
  // and the rebuilt ring {0, 1, 3} is non-contiguous in physical ids.
  fc.core_kills = {{.core = 2, .at = clean.total_time / 2}};
  const auto r = run_jacobi_resilient(p, cfg, opts,
                                      std::make_shared<sim::FaultPlan>(fc), spec);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_GE(r.restarts, 1);
  EXPECT_EQ(r.cores_used, 3);
  EXPECT_NE(r.fault_summary.find("core-failure"), std::string::npos);
  EXPECT_NE(r.fault_summary.find(" core=2"), std::string::npos);
}

/// Pins the exact simulated result of a seeded, faulted row-chunk solve: a
/// core kill mid-solve costs a device generation, PCIe corruption costs
/// retries, and the replay from the last checkpoint runs on a shrunk grid.
/// Every launch, checkpoint readback and reopen lands on the simulated
/// clock, so a change to how the driver stages, launches or reads back
/// grids moves these figures.
TEST(Resilience, PinnedFaultedRowChunkRun) {
  const auto p = small_problem(256, 48, 12);
  DeviceRunConfig cfg;
  cfg.cores_y = 4;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 5;
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;
  sim::FaultConfig fc;
  fc.seed = 7;
  fc.pcie_corrupt_prob = 0.2;
  fc.core_kills = {{.core = 1, .at = 888914222}};
  const auto r = run_jacobi_resilient(p, cfg, opts,
                                      std::make_shared<sim::FaultPlan>(fc), spec);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.cores_used, 3);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.iterations_replayed, 5);
  EXPECT_EQ(r.transfer_retries, 1);
  EXPECT_EQ(r.kernel_time, 192866880);
  EXPECT_EQ(r.total_time, 2428174529);
  EXPECT_EQ(fnv1a(r.fault_summary), 12598373497219899138ull);
}

/// Pins a zero-fault SRAM-resident resilient solve: three launches (odd
/// chunk lengths flip which grid is fresh) with a checkpoint readback after
/// each.
TEST(Resilience, PinnedZeroFaultSramResidentRun) {
  const auto p = small_problem(64, 64, 8);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  cfg.cores_y = 4;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 3;
  const auto r = run_jacobi_resilient(p, cfg, opts, nullptr);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.cores_used, 4);
  EXPECT_EQ(r.kernel_time, 154492524);
  EXPECT_EQ(r.total_time, 1757660524);
}

/// A temporal resilient solve chains the sweeps it was asked to through
/// L1, whatever the checkpoint interval: chunks of 3 and 5 sweeps at depth
/// 4 make the first epoch of some launches read the second grid, and the
/// solve still verifies bit-exactly. With one chunk it is the plain
/// driver's solve, to the simulated nanosecond.
TEST(Resilience, TemporalSolveVerifiesAndMatchesThePlainDriver) {
  const auto p = small_problem(64, 32, 8);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kTemporal;
  cfg.temporal_depth = 4;
  cfg.cores_y = 2;
  cfg.verify = true;
  for (const int every : {3, 5}) {
    ResilienceOptions opts;
    opts.checkpoint_every = every;
    const auto r = run_jacobi_resilient(p, cfg, opts, nullptr);
    EXPECT_TRUE(r.verified_ok) << "checkpoint_every " << every;
    EXPECT_EQ(r.restarts, 0);
  }
  ResilienceOptions whole;
  whole.checkpoint_every = p.iterations;
  const auto r = run_jacobi_resilient(p, cfg, whole, nullptr);
  const auto plain = run_jacobi_on_device(p, cfg);
  EXPECT_TRUE(plain.verified_ok);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.kernel_time, plain.kernel_time);
  EXPECT_EQ(r.solution, plain.solution);
}

/// The resilient driver rejects exactly the launch configs the plain driver
/// rejects, with the same diagnostic.
TEST(Resilience, RejectsWhatThePlainDriverRejects) {
  const auto p = small_problem(64, 32, 4);
  const auto rejection = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const ApiError& e) {
      return e.what();
    }
    return "accepted";
  };
  DeviceRunConfig sram;
  sram.strategy = DeviceStrategy::kSramResident;
  DeviceRunConfig bad[4] = {sram, sram, sram, {}};
  bad[0].cores_x = 2;
  bad[1].read_ahead = 1;
  bad[2].read_ahead = 100;
  bad[3].strategy = DeviceStrategy::kTemporal;
  bad[3].temporal_depth = 0;
  for (const DeviceRunConfig& cfg : bad) {
    const std::string plain = rejection([&] { run_jacobi_on_device(p, cfg); });
    EXPECT_NE(plain, "accepted");
    EXPECT_EQ(rejection([&] { run_jacobi_resilient(p, cfg, {}, nullptr); }),
              plain);
  }
}

/// Unrecoverable corruption (every transfer corrupted) exhausts the bounded
/// retries; the TransferError carries the original injected fault so the
/// post-mortem sees the root cause, and the retry budget is honoured.
TEST(Resilience, RetryExhaustionSurfacesOriginalFault) {
  sim::FaultConfig fc;
  fc.seed = 5;
  fc.pcie_corrupt_prob = 1.0;
  ttmetal::DeviceConfig dc;
  dc.checksum_transfers = true;
  dc.transfer_max_retries = 2;
  dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  auto dev = ttmetal::Device::open({}, dc);
  auto buf = dev->create_buffer({.size = 1024});
  std::vector<std::byte> data(1024, std::byte{0xAB});
  try {
    dev->write_buffer(*buf, data);
    FAIL() << "expected retry exhaustion";
  } catch (const ttmetal::TransferError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after 2 retries"), std::string::npos);
    EXPECT_NE(what.find("pcie-corrupt"), std::string::npos);
  }
  EXPECT_EQ(dev->transfer_retries(), 2u);

  // The same exhaustion propagates out of the resilient driver: persistent
  // bus corruption is not survivable by checkpointing.
  const auto p = small_problem(64, 32, 2);
  EXPECT_THROW(run_jacobi_resilient(p, {}, {},
                                    std::make_shared<sim::FaultPlan>(fc)),
               ttmetal::TransferError);
}

/// With recovery disabled (max_restarts = 0) the watchdog timeout from the
/// first lost generation surfaces unchanged.
TEST(Resilience, RestartBudgetExhaustionRethrowsTimeout) {
  const auto p = small_problem(64, 32, 4);
  DeviceRunConfig cfg;
  cfg.cores_y = 2;
  ResilienceOptions opts;
  opts.max_restarts = 0;

  sim::FaultConfig fc;
  fc.core_kills = {{.core = 0, .at = 1}};  // dead from the first charge
  EXPECT_THROW(run_jacobi_resilient(p, cfg, opts,
                                    std::make_shared<sim::FaultPlan>(fc)),
               ttmetal::DeviceTimeoutError);
}

TEST(Resilience, HealCoreRestoresFlappedCoreButKeepsFutureKills) {
  // A flapping card scripted deterministically: core 3 dies at 1ms, field
  // service heals it at 5ms, and a second kill is scheduled for 9ms. The
  // heal must clear only the elapsed kill.
  sim::FaultConfig fc;
  fc.core_kills.push_back({3, 1 * kMillisecond});
  fc.core_kills.push_back({3, 9 * kMillisecond});
  sim::FaultPlan plan(fc);

  EXPECT_FALSE(plan.core_dead(3, 0));
  EXPECT_TRUE(plan.core_dead(3, 2 * kMillisecond));
  plan.commit_elapsed_kills(2 * kMillisecond);  // observed, as a reopen would

  EXPECT_EQ(plan.heal_dead_cores(5 * kMillisecond), 1);
  EXPECT_FALSE(plan.core_dead(3, 5 * kMillisecond));
  // The 9ms kill survives the heal: the card flaps again.
  EXPECT_TRUE(plan.core_dead(3, 9 * kMillisecond));
  // Healing a live core is a no-op (no event logged, nothing changes).
  const std::size_t events = plan.trace().size();
  plan.heal_core(5 * kMillisecond, 3);
  EXPECT_EQ(plan.trace().size(), events);
  // The heal itself is part of the deterministic fault trace.
  EXPECT_NE(plan.trace_string().find("core-heal"), std::string::npos);
}

}  // namespace
}  // namespace ttsim::core
