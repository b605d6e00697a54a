/// \file test_resilience.cpp
/// Service-level resilience: checkpointed solves and bit-exact migration
/// across a card kill, the card health state machine (degrade, quarantine,
/// probe, readmit, retire), SLO-aware admission, priority load shedding,
/// and deadline accounting under fault-driven requeues.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ttsim/core/gallery.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/serve/serve.hpp"
#include "ttsim/sim/fault.hpp"

namespace ttsim::serve {
namespace {

core::JacobiProblem small_problem(float left = 1.0f) {
  core::JacobiProblem p;
  p.width = 128;
  p.height = 128;
  p.iterations = 3;
  p.bc_left = left;
  return p;
}

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.cards = 1;
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_x = 1;
  cfg.run.cores_y = 4;
  cfg.max_batch = 8;
  return cfg;
}

void expect_bit_exact(const RequestResult& r, const core::JacobiProblem& p) {
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  const auto ref = cpu::jacobi_reference_bf16(p);
  ASSERT_EQ(r.solution.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(static_cast<float>(ref[i]), r.solution[i]) << "at " << i;
  }
}

TEST(ServeResilience, CheckpointedSolveIsBitExact) {
  // 7 sweeps in segments of 2 (2+2+2+1): three host-side checkpoints, four
  // launches, and a result identical to the uncheckpointed solve — the
  // checkpoint is the exact device image, so segmentation must be invisible
  // in the numbers.
  ServiceConfig cfg = base_config();
  cfg.checkpoint_every = 2;
  StencilService svc(cfg);
  auto p = small_problem();
  p.iterations = 7;
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.metrics().batches, 4u);
  EXPECT_EQ(svc.metrics().checkpoints_taken, 3u);
  EXPECT_GT(svc.metrics().checkpoint_bytes, 0u);
  EXPECT_EQ(svc.result(t.id).retries, 0);
}

TEST(ServeResilience, KilledCardMigratesSessionBitExact) {
  // The acceptance scenario: a session checkpointing every 25 sweeps loses
  // its card mid-solve (per-card fault plan kills a core on card 0 only);
  // the service quarantines card 0 and finishes the solve on card 1 from
  // the last checkpoint, bit-exact vs the fault-free run and the CPU
  // reference.
  auto make_cfg = [](bool with_kill, SimTime kill_at) {
    ServiceConfig cfg = base_config();
    cfg.cards = 2;
    cfg.checkpoint_every = 25;
    cfg.device.sim_time_limit = 20 * kMillisecond;
    cfg.health.quarantine_after = 1;
    cfg.health.probe_after = 10 * kSecond;  // stays quarantined for the test
    cfg.card_devices.assign(2, cfg.device);
    if (with_kill) {
      sim::FaultConfig fc;
      fc.core_kills.push_back({0, kill_at});
      cfg.card_devices[0].fault_plan = std::make_shared<sim::FaultPlan>(fc);
    }
    return cfg;
  };
  auto p = small_problem();
  p.iterations = 100;

  // Fault-free run pins the timeline (deterministic) and the reference
  // solution; the kill is placed mid-solve, after checkpoints exist.
  StencilService clean(make_cfg(false, 0));
  Request req;
  req.problem = p;
  const Ticket tc = clean.submit(req);
  clean.drain();
  const RequestResult& rc = clean.result(tc.id);
  ASSERT_EQ(rc.status, RequestStatus::kCompleted) << rc.error;

  StencilService svc(make_cfg(true, rc.completed / 2));
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  expect_bit_exact(r, p);
  ASSERT_EQ(r.solution.size(), rc.solution.size());
  for (std::size_t i = 0; i < r.solution.size(); ++i) {
    ASSERT_EQ(r.solution[i], rc.solution[i]) << "diverged at " << i;
  }
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(r.card, 1);  // finished on the surviving card
  EXPECT_GE(svc.metrics().card_reopens, 1u);
  EXPECT_GE(svc.metrics().migrations, 1u);
  EXPECT_GE(svc.metrics().iterations_saved, 25u);  // checkpoint paid off
  EXPECT_EQ(svc.metrics().quarantines, 1u);
  EXPECT_EQ(svc.card_health(0), CardHealth::kQuarantined);
  EXPECT_EQ(svc.card_health(1), CardHealth::kHealthy);
}

void expect_matches_general_reference(const RequestResult& r,
                                      const core::GeneralStencilProblem& p) {
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  const auto ref = cpu::general_reference_bf16(p);
  const auto& primary = ref[static_cast<std::size_t>(p.primary_field())];
  ASSERT_EQ(r.solution.size(), primary.size());
  for (std::size_t i = 0; i < primary.size(); ++i) {
    ASSERT_EQ(static_cast<float>(primary[i]), r.solution[i]) << "at " << i;
  }
}

TEST(ServeResilience, GeneralCheckpointedSolveIsBitExact) {
  // The general-solve segmentation bugfix: gallery solves must honour
  // checkpoint_every exactly like classic Jacobi sessions — 7 FDTD sweeps
  // in segments of 2 run as four launches sealing three multi-field
  // checkpoints (one image per written field), and the delivered primary
  // field is bit-identical to the unsegmented CPU reference.
  ServiceConfig cfg = base_config();
  cfg.checkpoint_every = 2;
  StencilService svc(cfg);
  auto p = core::gallery::fdtd2d(64, 48, 7);
  Request req;
  req.general = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  expect_matches_general_reference(svc.result(t.id), p);
  EXPECT_EQ(svc.metrics().batches, 4u);
  EXPECT_EQ(svc.metrics().checkpoints_taken, 3u);
  EXPECT_GT(svc.metrics().checkpoint_bytes, 0u);
}

TEST(ServeResilience, KilledCardMigratesGeneralSessionBitExact) {
  // The general-solve counterpart of the acceptance scenario above: a
  // gallery FDTD session (three written fields) checkpointing every 25
  // sweeps loses card 0 mid-solve and must finish on card 1 from its
  // per-field checkpoints — bit-exact vs the fault-free run and the CPU
  // reference, with the checkpointed sweeps demonstrably not re-run.
  auto make_cfg = [](bool with_kill, SimTime kill_at) {
    ServiceConfig cfg = base_config();
    cfg.cards = 2;
    cfg.checkpoint_every = 25;
    cfg.device.sim_time_limit = 20 * kMillisecond;
    cfg.health.quarantine_after = 1;
    cfg.health.probe_after = 10 * kSecond;  // stays quarantined for the test
    cfg.card_devices.assign(2, cfg.device);
    if (with_kill) {
      sim::FaultConfig fc;
      fc.core_kills.push_back({0, kill_at});
      cfg.card_devices[0].fault_plan = std::make_shared<sim::FaultPlan>(fc);
    }
    return cfg;
  };
  auto p = core::gallery::fdtd2d(64, 48, 100);

  StencilService clean(make_cfg(false, 0));
  Request req;
  req.general = p;
  const Ticket tc = clean.submit(req);
  clean.drain();
  const RequestResult& rc = clean.result(tc.id);
  ASSERT_EQ(rc.status, RequestStatus::kCompleted) << rc.error;

  StencilService svc(make_cfg(true, rc.completed / 2));
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  expect_matches_general_reference(r, p);
  ASSERT_EQ(r.solution.size(), rc.solution.size());
  for (std::size_t i = 0; i < r.solution.size(); ++i) {
    ASSERT_EQ(r.solution[i], rc.solution[i]) << "diverged at " << i;
  }
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(r.card, 1);  // finished on the surviving card
  EXPECT_GE(svc.metrics().card_reopens, 1u);
  EXPECT_GE(svc.metrics().migrations, 1u);
  EXPECT_GE(svc.metrics().iterations_saved, 25u);  // checkpoint paid off
  EXPECT_EQ(svc.card_health(0), CardHealth::kQuarantined);
}

TEST(ServeResilience, MixedProgramAdmissionUsesPerProgramCost) {
  // SLO admission keyed by program hash: a cheap gallery batch and an
  // expensive Jacobi batch warm SEPARATE cost histories, so a deadline
  // feasible at the cheap program's cost admits even though the expensive
  // program's cost (which a pool-wide EWMA would have bled into the
  // estimate) says it is hopeless — and vice versa.
  ServiceConfig cfg = base_config();
  cfg.slo_admission = true;
  StencilService svc(cfg);

  auto cheap = core::gallery::hotspot(64, 48, 2);
  core::JacobiProblem expensive;
  expensive.width = 512;
  expensive.height = 512;
  expensive.iterations = 40;

  // Warm both histories: the expensive batch harvests LAST, so a pool-wide
  // EWMA would be dominated by it at the moment the cheap request arrives.
  Request wc;
  wc.general = cheap;
  const Ticket t1 = svc.submit(wc);
  svc.drain();
  Request we;
  we.problem = expensive;
  we.tenant = 1;
  const Ticket t2 = svc.submit(we);
  svc.drain();
  const SimTime cheap_cost = svc.result(t1.id).latency;
  const SimTime expensive_cost = svc.result(t2.id).latency;
  ASSERT_GT(expensive_cost, 4 * cheap_cost)
      << "workloads must have clearly different costs for this test";

  // A deadline generous for the cheap program, hopeless for the expensive
  // one: between the two costs.
  const SimTime slack = 2 * cheap_cost;
  Request rc;
  rc.general = cheap;
  rc.arrival = svc.now();
  rc.deadline = svc.now() + slack;
  const Ticket ta = svc.submit(rc);
  EXPECT_EQ(ta.status, RequestStatus::kQueued)
      << "cheap request over-rejected: expensive history bled into its cost";
  svc.drain();
  EXPECT_EQ(svc.result(ta.id).status, RequestStatus::kCompleted);
  EXPECT_FALSE(svc.result(ta.id).deadline_missed);

  Request re;
  re.problem = expensive;
  re.tenant = 1;
  re.arrival = svc.now();
  re.deadline = svc.now() + slack;
  const Ticket tb = svc.submit(re);
  EXPECT_EQ(tb.status, RequestStatus::kRejected)
      << "expensive request under-rejected: cheap history hid its real cost";
  EXPECT_EQ(svc.metrics().infeasible_rejects, 1u);
  svc.drain();
}

TEST(ServeResilience, TemporalCheckpointedSolveIsBitExact) {
  // Temporal tiling under segmentation: segments of 3 sweeps at depth 4
  // clamp the chain to each segment's tail (3, 3, then 1), and the
  // end-anchored parity must keep every segment's readback in the canonical
  // buffer — the composed solve stays bit-exact vs the CPU reference.
  ServiceConfig cfg = base_config();
  cfg.checkpoint_every = 3;
  cfg.run.strategy = core::DeviceStrategy::kTemporal;
  cfg.run.temporal_depth = 4;
  StencilService svc(cfg);
  auto p = small_problem();
  p.iterations = 7;
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.metrics().batches, 3u);
  EXPECT_EQ(svc.metrics().checkpoints_taken, 2u);
}

TEST(ServeResilience, FlappingCardIsQuarantinedProbedHealedAndReadmitted) {
  // One card, one transient core kill. The failure quarantines the card;
  // with no other card the scheduler stalls, fast-forwards to the probe,
  // heals the flap (heal_on_probe) and readmits; the solve then completes
  // at full capacity.
  ServiceConfig cfg = base_config();
  cfg.device.sim_time_limit = 20 * kMillisecond;
  sim::FaultConfig fc;
  fc.core_kills.push_back({0, 1 * kMillisecond});
  cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  cfg.health.quarantine_after = 1;
  cfg.health.probe_after = 1 * kMillisecond;
  cfg.health.readmit_successes = 1;
  cfg.health.heal_on_probe = true;
  cfg.max_batch = 64;
  StencilService svc(cfg);
  const int full = svc.card_capacity(0);

  auto p = small_problem();
  p.iterations = 100;
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.result(t.id).retries, 1);
  EXPECT_EQ(svc.metrics().quarantines, 1u);
  EXPECT_EQ(svc.metrics().probes, 1u);
  EXPECT_EQ(svc.metrics().readmissions, 1u);
  // The heal restored the killed core: capacity is back to the full pool,
  // and the clean harvest promoted the card out of probation.
  EXPECT_EQ(svc.card_capacity(0), full);
  EXPECT_EQ(svc.card_health(0), CardHealth::kHealthy);
}

TEST(ServeResilience, DeadPoolRetiresCardAndFailsQueue) {
  // Every worker dies and there is no field service: the probe finds zero
  // capacity, retires the card, and the queue fails deterministically
  // instead of drain() spinning forever.
  ServiceConfig cfg = base_config();
  cfg.device.sim_time_limit = 20 * kMillisecond;
  sim::FaultConfig fc;
  for (int core = 0; core < 120; ++core)
    fc.core_kills.push_back({core, 1 * kMillisecond});
  cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  cfg.health.quarantine_after = 1;
  cfg.health.probe_after = 1 * kMillisecond;
  cfg.max_retries = 3;
  StencilService svc(cfg);

  auto p = small_problem();
  p.iterations = 100;
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  EXPECT_EQ(r.status, RequestStatus::kFailed);
  EXPECT_NE(r.error.find("no usable card"), std::string::npos) << r.error;
  EXPECT_EQ(svc.card_health(0), CardHealth::kQuarantined);
  EXPECT_EQ(svc.metrics().probes, 1u);
  EXPECT_EQ(svc.metrics().readmissions, 0u);
}

TEST(ServeResilience, ShedsLowestPriorityNewestForHigherPriorityNewcomer) {
  ServiceConfig cfg = base_config();
  cfg.queue_capacity = 2;
  cfg.shed_low_priority = true;
  StencilService svc(cfg);
  Request req;
  req.problem = small_problem();
  req.tenant = 0;
  const Ticket a = svc.submit(req);  // oldest low-priority
  req.tenant = 1;
  const Ticket b = svc.submit(req);  // newest low-priority: the shed victim
  req.tenant = 2;
  req.priority = 5;
  const Ticket c = svc.submit(req);  // displaces b
  EXPECT_EQ(c.status, RequestStatus::kQueued);
  EXPECT_EQ(svc.result(b.id).status, RequestStatus::kRejected);
  EXPECT_GT(svc.result(b.id).retry_after, 0);
  EXPECT_EQ(svc.metrics().shed, 1u);
  EXPECT_EQ(svc.metrics().tenants.at(1).rejected, 1u);
  // An equal-priority newcomer cannot displace anyone: normal backpressure.
  req.tenant = 3;
  req.priority = 0;
  const Ticket d = svc.submit(req);
  EXPECT_EQ(d.status, RequestStatus::kRejected);
  svc.drain();
  EXPECT_EQ(svc.result(a.id).status, RequestStatus::kCompleted);
  EXPECT_EQ(svc.result(c.id).status, RequestStatus::kCompleted);
}

TEST(ServeResilience, SloAdmissionRejectsInfeasibleDeadlines) {
  ServiceConfig cfg = base_config();
  cfg.slo_admission = true;
  StencilService svc(cfg);
  Request req;
  req.problem = small_problem();
  // No history yet: admitted optimistically even with a deadline.
  const Ticket warm = svc.submit(req);
  EXPECT_EQ(warm.status, RequestStatus::kQueued);
  svc.drain();

  // With history, a deadline one nanosecond out is provably infeasible.
  req.arrival = svc.now();
  req.deadline = svc.now() + 1;
  const Ticket bad = svc.submit(req);
  EXPECT_EQ(bad.status, RequestStatus::kRejected);
  EXPECT_EQ(bad.retry_after, 0) << "infeasible rejects must not hint a retry";
  EXPECT_EQ(svc.metrics().infeasible_rejects, 1u);

  // A generous deadline still admits and completes.
  req.deadline = svc.now() + 1 * kSecond;
  const Ticket ok = svc.submit(req);
  EXPECT_EQ(ok.status, RequestStatus::kQueued);
  svc.drain();
  EXPECT_EQ(svc.result(ok.id).status, RequestStatus::kCompleted);
  EXPECT_FALSE(svc.result(ok.id).deadline_missed);
}

TEST(ServeResilience, FaultRequeueDeadlineExpiryCountsAsMissed) {
  // A victim whose deadline passed while its card was wedged fails — and
  // must be accounted as a deadline miss, not a bare failure.
  ServiceConfig cfg = base_config();
  cfg.device.sim_time_limit = 20 * kMillisecond;
  sim::FaultConfig fc;
  fc.core_kills.push_back({0, 1 * kMillisecond});
  cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  cfg.max_retries = 5;  // budget is not the limiter; the deadline is
  StencilService svc(cfg);
  auto p = small_problem();
  p.iterations = 100;
  Request req;
  req.problem = p;
  // Dispatches at t=0 with time to spare, but the card wedges at the 1 ms
  // core kill — by the time the failure is observed the deadline is gone.
  req.deadline = 1 * kMillisecond;
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  EXPECT_EQ(r.status, RequestStatus::kFailed);
  EXPECT_TRUE(r.deadline_missed);
  EXPECT_EQ(r.retries, 0);  // expired victims are not retried
  EXPECT_EQ(svc.metrics().tenants.at(0).deadline_missed, 1u);
  EXPECT_FALSE(r.error.empty());
}

TEST(ServeResilience, TimeoutRequeuesInFlightVictimsInOrder) {
  // Two single-request batches fill the pipeline when the card wedges; both
  // requeue to the front in their original order and complete in it.
  ServiceConfig cfg = base_config();
  cfg.max_batch = 1;
  cfg.device.sim_time_limit = 20 * kMillisecond;
  sim::FaultConfig fc;
  fc.core_kills.push_back({0, 1 * kMillisecond});
  cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  StencilService svc(cfg);
  auto p = small_problem();
  p.iterations = 100;
  Request req;
  req.problem = p;
  req.tenant = 0;
  const Ticket a = svc.submit(req);
  req.tenant = 1;
  const Ticket b = svc.submit(req);
  svc.drain();
  const RequestResult& ra = svc.result(a.id);
  const RequestResult& rb = svc.result(b.id);
  ASSERT_EQ(ra.status, RequestStatus::kCompleted) << ra.error;
  ASSERT_EQ(rb.status, RequestStatus::kCompleted) << rb.error;
  EXPECT_GE(ra.retries, 1);
  EXPECT_GE(rb.retries, 1);
  // Front-in-order requeue preserves the original dispatch order.
  EXPECT_LE(ra.dispatched, rb.dispatched);
  EXPECT_LE(ra.completed, rb.completed);
}

TEST(ServeResilience, ChaoticTimelineIsDeterministic) {
  // The full resilience stack — checkpoints, a quarantine, a heal probe —
  // must still produce a byte-identical span timeline run to run.
  auto run = [] {
    ServiceConfig cfg = base_config();
    cfg.checkpoint_every = 25;
    cfg.device.sim_time_limit = 20 * kMillisecond;
    sim::FaultConfig fc;
    fc.core_kills.push_back({0, 1 * kMillisecond});
    cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
    cfg.health.quarantine_after = 1;
    cfg.health.probe_after = 1 * kMillisecond;
    cfg.health.heal_on_probe = true;
    StencilService svc(cfg);
    for (int tenant = 0; tenant < 3; ++tenant) {
      Request req;
      req.problem = small_problem(0.5f + 0.1f * static_cast<float>(tenant));
      req.problem.iterations = 60;
      req.tenant = tenant;
      svc.submit(req);
    }
    svc.drain();
    return svc.spans().canonical();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ttsim::serve
