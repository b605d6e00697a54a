/// \file test_serve_multichip.cpp
/// Multi-chip serving: heterogeneous device pools (per-card family specs,
/// per-(program, spec) cost history), huge-shape requests admitted as
/// sharded multi-card group sessions, checkpointed sharded segments, and
/// group-level fault recovery that stays bit-exact.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "checkpoint_accounting.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/serve/serve.hpp"
#include "ttsim/sim/fault.hpp"

namespace ttsim::serve {
namespace {

/// A family member whose DRAM is far too small for a 256x256 session but
/// holds one 2-card slab comfortably: 2 banks x 96 KiB. Everything else is
/// the calibrated Grayskull, so kernels behave exactly like the paper's.
sim::DeviceSpec tiny_dram_spec() {
  sim::DeviceSpec s;
  s.name = "grayskull-tiny";
  s.dram_banks = 2;
  s.dram_bank_bytes = 96 * KiB;
  return s;
}

/// Too big for one tiny card (2 x 148608 B of grid images vs a 168 KiB
/// budget), small enough for a 2-card slab split.
core::JacobiProblem huge_problem(int iterations = 6) {
  core::JacobiProblem p;
  p.width = 256;
  p.height = 256;
  p.iterations = iterations;
  p.bc_left = 1.0f;
  p.bc_top = 0.25f;
  return p;
}

core::JacobiProblem small_problem() {
  core::JacobiProblem p;
  p.width = 128;
  p.height = 128;
  p.iterations = 3;
  p.bc_left = 1.0f;
  return p;
}

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.cards = 2;
  cfg.spec = tiny_dram_spec();
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_x = 1;
  cfg.run.cores_y = 4;
  cfg.max_batch = 1;
  return cfg;
}

void expect_bit_exact(const RequestResult& r,
                              const core::JacobiProblem& p) {
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  const auto ref = cpu::jacobi_reference_bf16(p);
  ASSERT_EQ(r.solution.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(static_cast<float>(ref[i]), r.solution[i]) << "at " << i;
  }
}

TEST(ServeMultichip, HugeShapeAdmitsAsShardedGroupSession) {
  StencilService svc(base_config());
  const auto p = huge_problem();
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  ASSERT_EQ(t.status, RequestStatus::kQueued);
  svc.drain();

  const RequestResult& r = svc.result(t.id);
  expect_bit_exact(r, p);
  EXPECT_EQ(r.group, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.card, 0);  // the group head
  EXPECT_EQ(svc.metrics().sharded_sessions, 1u);
  EXPECT_GE(svc.metrics().sharded_segments, 1u);
  EXPECT_GT(svc.metrics().sharded_link_bytes, 0u);
  // Single-card metrics stay untouched: no batch ran through the pipeline.
  EXPECT_EQ(svc.metrics().batches, 0u);
}

TEST(ServeMultichip, SmallShapeOnTheSamePoolStaysSingleCard) {
  StencilService svc(base_config());
  const auto p = small_problem();
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  expect_bit_exact(r, p);
  EXPECT_TRUE(r.group.empty());
  EXPECT_EQ(svc.metrics().sharded_sessions, 0u);
  EXPECT_EQ(svc.metrics().batches, 1u);
}

TEST(ServeMultichip, ShardedSessionCheckpointsAcrossSegments) {
  // 5 sweeps in segments of 2 (2+2+1): each segment is a fresh group
  // dispatch resumed from the sealed GLOBAL image, and the answer must be
  // identical to the unsegmented solve and the CPU reference.
  ServiceConfig cfg = base_config();
  cfg.checkpoint_every = 2;
  StencilService svc(cfg);
  const auto p = huge_problem(5);
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();

  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.metrics().sharded_sessions, 1u);
  EXPECT_EQ(svc.metrics().sharded_segments, 3u);
  EXPECT_EQ(svc.metrics().checkpoints_taken, 2u);
  EXPECT_EQ(svc.metrics().checkpoint_bytes,
            accounting::checkpoint_bytes(2, core::to_general(p)));
  EXPECT_EQ(svc.result(t.id).retries, 0);
}

TEST(ServeMultichip, OversizedShapeWithNoViableGroupFails) {
  // One tiny card: nothing to shard across, so the request must fail at
  // admission with a capacity error, not wedge the queue.
  ServiceConfig cfg = base_config();
  cfg.cards = 1;
  StencilService svc(cfg);
  Request req;
  req.problem = huge_problem();
  const Ticket t = svc.submit(req);
  EXPECT_EQ(t.status, RequestStatus::kFailed);
  const RequestResult& r = svc.result(t.id);
  EXPECT_EQ(r.status, RequestStatus::kFailed);
  EXPECT_NE(r.error.find("combined capacity"), std::string::npos) << r.error;
  svc.drain();
}

TEST(ServeMultichip, ShardedGeneralGalleryProgramIsBitExact) {
  // The general frontend rides the same group path: a single-pass gallery
  // program too big for one card lands sharded and stays bit-exact against
  // the CPU reference of its primary field. Hotspot carries three grid
  // images per slot (temperature x2 parities + read-only power), so the
  // pool's cards get three banks and the split goes three wide.
  ServiceConfig cfg = base_config();
  cfg.cards = 3;
  cfg.spec.dram_banks = 3;
  cfg.spec.dram_bank_bytes = 80 * KiB;
  StencilService svc(cfg);
  const auto gp = core::gallery::hotspot(256, 256, 5);
  Request req;
  req.general = gp;
  const Ticket t = svc.submit(req);
  svc.drain();

  const RequestResult& r = svc.result(t.id);
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  const auto ref = cpu::general_reference_bf16(gp);
  const auto& primary = ref[static_cast<std::size_t>(gp.primary_field())];
  ASSERT_EQ(r.solution.size(), primary.size());
  for (std::size_t i = 0; i < primary.size(); ++i) {
    ASSERT_EQ(static_cast<float>(primary[i]), r.solution[i]) << "at " << i;
  }
  EXPECT_EQ(svc.metrics().sharded_sessions, 1u);
}

TEST(ServeMultichip, MixedDevicePoolKeysCostPerSpec) {
  // A Grayskull beside a Wormhole: both serve the same program bit-exactly,
  // and the cost model learns separate (program, spec) histories instead of
  // blending two different cards into one meaningless number.
  ServiceConfig cfg;
  cfg.cards = 2;
  cfg.card_specs = {sim::DeviceSpec::grayskull_e150(),
                    sim::DeviceSpec::wormhole()};
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_x = 1;
  cfg.run.cores_y = 4;
  cfg.max_batch = 1;
  StencilService svc(cfg);
  EXPECT_EQ(svc.card_spec(0).name, "grayskull-e150");
  EXPECT_EQ(svc.card_spec(1).name, "wormhole");

  const auto p = small_problem();
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.problem = p;
    tickets.push_back(svc.submit(req));
  }
  svc.drain();

  bool used[2] = {false, false};
  for (const Ticket& t : tickets) {
    const RequestResult& r = svc.result(t.id);
    expect_bit_exact(r, p);
    ASSERT_TRUE(r.card == 0 || r.card == 1);
    used[r.card] = true;
  }
  ASSERT_TRUE(used[0] && used[1]) << "pool did not share the load";

  // A classic Jacobi request keys its history under its general program.
  const std::uint64_t jacobi = core::to_general(p).transition_hash();
  const SimTime gs = svc.ewma_cost(jacobi, "grayskull-e150");
  const SimTime wh = svc.ewma_cost(jacobi, "wormhole");
  EXPECT_GT(gs, 0u);
  EXPECT_GT(wh, 0u);
  // Different silicon, different cost: the histories must not have been
  // folded into each other (the Wormhole's wider DRAM path is faster).
  EXPECT_NE(gs, wh);
  EXPECT_EQ(svc.ewma_cost(jacobi, "no-such-spec"), 0u);
  EXPECT_EQ(svc.ewma_cost(0, "grayskull-e150"), 0u);
}

TEST(ServeMultichip, HeterogeneousShardedGroupIsBitExact) {
  // A sharded group drawn from UNLIKE family members: timing differs per
  // slab, the numbers must not.
  auto tiny_wh = sim::DeviceSpec::wormhole();
  tiny_wh.name = "wormhole-tiny";
  tiny_wh.dram_banks = 2;
  tiny_wh.dram_bank_bytes = 96 * KiB;
  ServiceConfig cfg = base_config();
  cfg.card_specs = {tiny_dram_spec(), tiny_wh};
  StencilService svc(cfg);
  const auto p = huge_problem();
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  svc.drain();
  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.result(t.id).group, (std::vector<int>{0, 1}));
}

TEST(ServeMultichip, KilledCardOfShardedGroupRecoversBitExact) {
  // The acceptance scenario: one card of a sharded group dies mid-segment.
  // The whole group reopens, the dead card is quarantined (its reopened
  // capacity is short of a slot), and the session resumes from the sealed
  // GLOBAL checkpoint on a fresh group — bit-exact against the fault-free
  // run and the CPU reference.
  auto make_cfg = [](bool with_kill, SimTime kill_at) {
    ServiceConfig cfg;
    cfg.cards = 3;
    cfg.spec = tiny_dram_spec();
    cfg.spec.worker_cores = 8;  // one dead core leaves the card short
    cfg.run.strategy = core::DeviceStrategy::kRowChunk;
    cfg.run.cores_x = 1;
    cfg.run.cores_y = 8;
    cfg.max_batch = 1;
    cfg.checkpoint_every = 4;
    cfg.device.sim_time_limit = 20 * kMillisecond;
    cfg.health.quarantine_after = 1;
    cfg.health.probe_after = 10 * kSecond;  // stays quarantined for the test
    cfg.card_devices.assign(3, cfg.device);
    if (with_kill) {
      sim::FaultConfig fc;
      fc.core_kills.push_back({0, kill_at});
      cfg.card_devices[0].fault_plan = std::make_shared<sim::FaultPlan>(fc);
    }
    return cfg;
  };
  const auto p = huge_problem(12);  // 3 sharded segments of 4
  Request req;
  req.problem = p;

  // The fault-free run pins the reference timeline and solution.
  StencilService clean(make_cfg(false, 0));
  const Ticket tc = clean.submit(req);
  clean.drain();
  const RequestResult& rc = clean.result(tc.id);
  ASSERT_EQ(rc.status, RequestStatus::kCompleted) << rc.error;
  ASSERT_EQ(rc.group, (std::vector<int>{0, 1}));

  const SimTime kill_at = rc.completed / 2;
  StencilService svc(make_cfg(true, kill_at));
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
  EXPECT_EQ(r.group, (std::vector<int>{1, 2}));  // re-formed past the victim
  EXPECT_GE(r.migrations, 1);
  // The recovery timeline is pinned exactly: the failing segment must stop
  // at the same simulated instant however the cards' work is executed.
  EXPECT_EQ(r.completed, 7559838870);
  EXPECT_EQ(r.latency, 7559838870);
  EXPECT_EQ(svc.metrics().card_reopens, 2u);  // the whole group reopened
  // Only the lost segment re-ran: the sweeps sealed before the kill count.
  EXPECT_EQ(svc.metrics().iterations_saved,
            accounting::sweeps_sealed_before(clean.spans(), kill_at, 4));
  EXPECT_EQ(svc.metrics().quarantines, 1u);
  EXPECT_EQ(svc.card_health(0), CardHealth::kQuarantined);
  EXPECT_EQ(svc.card_health(1), CardHealth::kHealthy);
  EXPECT_EQ(svc.card_health(2), CardHealth::kHealthy);
}

/// What a faulted sharded session is pinned to.
struct ShardedPin {
  SimTime completed;
  int migrations;
  int retries;
  std::uint64_t sharded_segments;
  std::uint64_t sharded_link_bytes;
  std::uint64_t card_reopens;
};

/// Run `req` checkpointed on a sharded group of `cfg`'s pool, first
/// fault-free, then with a core kill on card 0 halfway through the clean
/// run; the faulted run must deliver `reference` bit for bit and match the
/// pinned recovery figures exactly.
void expect_pinned_sharded_recovery(ServiceConfig cfg, const Request& req,
                                    const std::vector<float>& reference,
                                    const ShardedPin& pin) {
  cfg.card_devices.assign(static_cast<std::size_t>(cfg.cards), cfg.device);
  StencilService clean(cfg);
  const Ticket tc = clean.submit(req);
  clean.drain();
  const RequestResult& rc = clean.result(tc.id);
  ASSERT_EQ(rc.status, RequestStatus::kCompleted) << rc.error;
  ASSERT_GE(rc.group.size(), 2u);

  sim::FaultConfig fc;
  fc.core_kills.push_back({0, rc.completed / 2});
  cfg.card_devices[0].fault_plan = std::make_shared<sim::FaultPlan>(fc);
  StencilService svc(cfg);
  const Ticket t = svc.submit(req);
  svc.drain();
  const RequestResult& r = svc.result(t.id);
  ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
  ASSERT_EQ(r.solution.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(r.solution[i], reference[i]) << "diverged at " << i;
  }
  EXPECT_EQ(r.completed, pin.completed);
  EXPECT_EQ(r.migrations, pin.migrations);
  EXPECT_EQ(r.retries, pin.retries);
  EXPECT_EQ(svc.metrics().migrations, static_cast<std::uint64_t>(pin.migrations));
  EXPECT_EQ(svc.metrics().sharded_segments, pin.sharded_segments);
  EXPECT_EQ(svc.metrics().sharded_link_bytes, pin.sharded_link_bytes);
  EXPECT_EQ(svc.metrics().card_reopens, pin.card_reopens);
}

ServiceConfig faulted_shard_config(int cards) {
  ServiceConfig cfg;
  cfg.cards = cards;
  cfg.spec = tiny_dram_spec();
  cfg.spec.worker_cores = 8;  // one dead core leaves the card short
  cfg.run.strategy = core::DeviceStrategy::kRowChunk;
  cfg.run.cores_x = 1;
  cfg.run.cores_y = 8;
  cfg.max_batch = 1;
  cfg.checkpoint_every = 4;
  cfg.device.sim_time_limit = 20 * kMillisecond;
  cfg.health.quarantine_after = 1;
  cfg.health.probe_after = 10 * kSecond;  // stays quarantined for the test
  return cfg;
}

TEST(ServeMultichip, PinnedShardedJacobiRecovery) {
  Request req;
  req.problem = huge_problem(12);  // 3 sharded segments of 4
  std::vector<float> reference;
  for (const auto v : cpu::jacobi_reference_bf16(req.problem))
    reference.push_back(static_cast<float>(v));
  expect_pinned_sharded_recovery(faulted_shard_config(3), req, reference,
                                 {7559838870, 1, 1, 3, 10368, 2});
}

TEST(ServeMultichip, PinnedShardedGeneralRecovery) {
  // Hotspot: one written field checkpointed per segment beside a read-only
  // power field that restages from the spec.
  ServiceConfig cfg = faulted_shard_config(4);
  cfg.spec.dram_banks = 3;
  cfg.spec.dram_bank_bytes = 80 * KiB;
  Request req;
  req.general = core::gallery::hotspot(256, 256, 12);
  const auto ref = cpu::general_reference_bf16(*req.general);
  std::vector<float> reference;
  for (const auto v : ref[static_cast<std::size_t>(req.general->primary_field())])
    reference.push_back(static_cast<float>(v));
  expect_pinned_sharded_recovery(cfg, req, reference,
                                 {7671988518, 1, 1, 3, 20736, 3});
}

}  // namespace
}  // namespace ttsim::serve
