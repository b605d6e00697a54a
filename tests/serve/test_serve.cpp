/// StencilService: correctness vs the CPU reference, batching, session
/// caching, fairness, backpressure, deadlines, fault degradation and
/// timeline determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ttsim/core/gallery.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/serve/serve.hpp"
#include "ttsim/sim/trace.hpp"

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

TEST(Serve, SingleRequestMatchesCpuReference) {
  StencilService svc(base_config());
  const auto p = small_problem();
  Request req;
  req.problem = p;
  const Ticket t = svc.submit(req);
  ASSERT_EQ(t.status, RequestStatus::kQueued);
  svc.drain();
  expect_bit_exact(svc.result(t.id), p);
  EXPECT_EQ(svc.metrics().batches, 1u);
}

TEST(Serve, SameShapeRequestsBatchWithIndependentData) {
  // Four tenants, same shape, different physics: one launch must carry all
  // four without mixing their data.
  StencilService svc(base_config());
  std::vector<Ticket> tickets;
  std::vector<core::JacobiProblem> problems;
  for (int tenant = 0; tenant < 4; ++tenant) {
    Request req;
    req.problem = small_problem(0.25f * static_cast<float>(tenant + 1));
    req.tenant = tenant;
    problems.push_back(req.problem);
    tickets.push_back(svc.submit(req));
  }
  svc.drain();
  EXPECT_EQ(svc.metrics().batches, 1u);
  EXPECT_EQ(svc.metrics().batched_requests, 4u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto& r = svc.result(tickets[i].id);
    EXPECT_EQ(r.batch_size, 4);
    expect_bit_exact(r, problems[i]);
  }
}

TEST(Serve, SessionCacheReusedAcrossWaves) {
  StencilService svc(base_config());
  const auto p = small_problem();
  Request req;
  req.problem = p;
  const Ticket a = svc.submit(req);
  svc.drain();
  req.arrival = svc.now();
  const Ticket b = svc.submit(req);
  svc.drain();
  expect_bit_exact(svc.result(a.id), p);
  expect_bit_exact(svc.result(b.id), p);
  EXPECT_EQ(svc.metrics().session_cache_misses, 1u);
  EXPECT_GE(svc.metrics().session_cache_hits, 1u);
}

TEST(Serve, BackpressureRejectsWithRetryAfter) {
  ServiceConfig cfg = base_config();
  cfg.queue_capacity = 2;
  cfg.retry_after = 5 * kMillisecond;
  StencilService svc(cfg);
  Request req;
  req.problem = small_problem();
  const Ticket a = svc.submit(req);
  const Ticket b = svc.submit(req);
  const Ticket c = svc.submit(req);
  EXPECT_EQ(a.status, RequestStatus::kQueued);
  EXPECT_EQ(b.status, RequestStatus::kQueued);
  EXPECT_EQ(c.status, RequestStatus::kRejected);
  EXPECT_EQ(c.retry_after, 5 * kMillisecond);
  EXPECT_EQ(svc.result(c.id).status, RequestStatus::kRejected);
  svc.drain();
  EXPECT_EQ(svc.metrics().tenants.at(0).rejected, 1u);
  EXPECT_EQ(svc.metrics().tenants.at(0).completed, 2u);
}

TEST(Serve, InvalidShapeFailsFast) {
  ServiceConfig cfg = base_config();
  cfg.run.cores_x = 3;  // 128 does not divide by 3
  StencilService svc(cfg);
  Request req;
  req.problem = small_problem();
  const Ticket t = svc.submit(req);
  EXPECT_EQ(t.status, RequestStatus::kFailed);
  EXPECT_FALSE(svc.result(t.id).error.empty());
  svc.drain();  // nothing queued; must return immediately
}

/// A slot ring whose read tags overflow a data mover fails at admission,
/// naming read_ahead, instead of dying inside a kernel.
TEST(Serve, ReadTagOverflowFailsAtAdmission) {
  ServiceConfig cfg = base_config();
  cfg.run.cores_y = 16;
  cfg.run.chunk_elems = 16;
  cfg.run.read_ahead = 64;
  StencilService svc(cfg);
  Request req;
  req.problem.width = 2048;
  req.problem.height = 16;
  req.problem.iterations = 1;
  const Ticket t = svc.submit(req);
  EXPECT_EQ(t.status, RequestStatus::kFailed);
  EXPECT_NE(svc.result(t.id).error.find("read_ahead 64"), std::string::npos)
      << svc.result(t.id).error;
  svc.drain();
}

TEST(Serve, FairShareAlternatesTenants) {
  // max_batch 1 forces one request per launch; the round-robin head choice
  // must alternate tenants rather than draining tenant 0 first.
  ServiceConfig cfg = base_config();
  cfg.max_batch = 1;
  StencilService svc(cfg);
  std::vector<Ticket> t0, t1;
  for (int i = 0; i < 2; ++i) {
    Request req;
    req.problem = small_problem();
    req.tenant = 0;
    t0.push_back(svc.submit(req));
    req.tenant = 1;
    t1.push_back(svc.submit(req));
  }
  svc.drain();
  // Dispatch order by simulated dispatch time: 0, 1, 0, 1.
  std::vector<std::pair<SimTime, int>> order;
  for (const auto& t : t0) order.emplace_back(svc.result(t.id).dispatched, 0);
  for (const auto& t : t1) order.emplace_back(svc.result(t.id).dispatched, 1);
  std::sort(order.begin(), order.end());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_NE(order[0].second, order[1].second);
  EXPECT_NE(order[2].second, order[3].second);
}

TEST(Serve, HigherPriorityDispatchesFirst) {
  ServiceConfig cfg = base_config();
  cfg.max_batch = 1;
  StencilService svc(cfg);
  Request low;
  low.problem = small_problem();
  low.tenant = 0;
  low.priority = 0;
  Request high = low;
  high.tenant = 1;
  high.priority = 5;
  const Ticket tl = svc.submit(low);   // submitted first...
  const Ticket th = svc.submit(high);  // ...but lower priority
  svc.drain();
  EXPECT_LE(svc.result(th.id).dispatched, svc.result(tl.id).dispatched);
  const auto& rh = svc.result(th.id);
  const auto& rl = svc.result(tl.id);
  EXPECT_LE(rh.completed, rl.completed);
}

TEST(Serve, DeadlineAccounting) {
  ServiceConfig cfg = base_config();
  cfg.max_batch = 1;
  StencilService svc(cfg);
  Request req;
  req.problem = small_problem();
  // A deadline tighter than one solve: delivered, but flagged missed.
  req.deadline = 1 * kMicrosecond;
  const Ticket soft = svc.submit(req);
  // Two fillers occupy the pipeline so the fourth request dispatches only
  // after the card clock has advanced past its deadline: fails at dispatch.
  req.deadline = 0;
  svc.submit(req);
  svc.submit(req);
  req.deadline = 2 * kMicrosecond;
  const Ticket hard = svc.submit(req);
  svc.drain();
  const auto& rs = svc.result(soft.id);
  EXPECT_EQ(rs.status, RequestStatus::kCompleted);
  EXPECT_TRUE(rs.deadline_missed);
  const auto& rh = svc.result(hard.id);
  EXPECT_EQ(rh.status, RequestStatus::kFailed);
  EXPECT_TRUE(rh.deadline_missed);
  EXPECT_GE(svc.metrics().tenants.at(0).deadline_missed, 2u);
}

TEST(Serve, CoreKillDegradesCardAndServiceRecovers) {
  // A FaultPlan core kill hangs the first launch; the watchdog converts it
  // to a timeout, the service reopens the card (fault plan remembers the
  // dead core), requeues the batch and completes everything.
  ServiceConfig cfg = base_config();
  cfg.device.sim_time_limit = 20 * kMillisecond;
  sim::FaultConfig fc;
  fc.core_kills.push_back({0, 1 * kMillisecond});
  cfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  cfg.max_retries = 2;
  cfg.max_batch = 64;  // uncapped so capacity tracks usable workers
  StencilService svc(cfg);
  const int before = svc.card_capacity(0);
  EXPECT_EQ(before, 108 / 4);

  std::vector<Ticket> tickets;
  std::vector<core::JacobiProblem> problems;
  for (int tenant = 0; tenant < 3; ++tenant) {
    Request req;
    req.problem = small_problem(0.5f * static_cast<float>(tenant + 1));
    req.problem.iterations = 100;  // long enough for the kill to land mid-run
    req.tenant = tenant;
    problems.push_back(req.problem);
    tickets.push_back(svc.submit(req));
  }
  svc.drain();
  EXPECT_GE(svc.metrics().card_reopens, 1u);
  // Degradation is local: the dead core shrinks this card's batch width by
  // one slot, and every request still completes bit-exact on the survivors.
  EXPECT_EQ(svc.card_capacity(0), before - 1);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto& r = svc.result(tickets[i].id);
    ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
    EXPECT_GE(r.retries, 1);
    expect_bit_exact(r, problems[i]);
  }
}

TEST(Serve, SpanTimelineIsDeterministic) {
  auto run = [] {
    StencilService svc(base_config());
    for (int tenant = 0; tenant < 3; ++tenant) {
      Request req;
      req.problem = small_problem(0.5f + 0.1f * static_cast<float>(tenant));
      req.tenant = tenant;
      req.arrival = static_cast<SimTime>(tenant) * 100 * kMicrosecond;
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

TEST(Serve, GalleryWorkloadsServeEndToEnd) {
  // Every gallery workload — hotspot, FDTD-2D, convection, Life — is
  // servable through the shape-keyed sessions; each delivered solution is
  // the primary field of the BF16-exact CPU reference, bit-for-bit.
  StencilService svc(base_config());
  const auto suite = core::gallery::suite(64, 48, 4);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    Request req;
    req.general = suite[i].problem;
    req.tenant = static_cast<int>(i);
    tickets.push_back(svc.submit(req));
    ASSERT_EQ(tickets.back().status, RequestStatus::kQueued) << suite[i].name;
  }
  svc.drain();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& r = svc.result(tickets[i].id);
    ASSERT_EQ(r.status, RequestStatus::kCompleted)
        << suite[i].name << ": " << r.error;
    const auto ref = cpu::general_reference_bf16(suite[i].problem);
    const auto& primary =
        ref[static_cast<std::size_t>(suite[i].problem.primary_field())];
    ASSERT_EQ(r.solution.size(), primary.size()) << suite[i].name;
    for (std::size_t e = 0; e < primary.size(); ++e) {
      ASSERT_EQ(r.solution[e], static_cast<float>(primary[e]))
          << suite[i].name << " elem " << e;
    }
  }
  // Four distinct transition hashes = four sessions, no batching across
  // different programs.
  EXPECT_EQ(svc.metrics().session_cache_misses, 4u);
}

TEST(Serve, SameProgramGalleryRequestsBatch) {
  // Two hotspot requests with different physics share one session (the key
  // hashes the program structure, not the boundary data) and ride one
  // launch, like same-shape Jacobi requests do.
  StencilService svc(base_config());
  auto a = core::gallery::hotspot(64, 48, 4);
  auto b = a;
  b.fields[0].bc_left = 0.75f;  // different physics, same structure
  Request ra, rb;
  ra.general = a;
  rb.general = b;
  rb.tenant = 1;
  const Ticket ta = svc.submit(ra);
  const Ticket tb = svc.submit(rb);
  svc.drain();
  EXPECT_EQ(svc.metrics().batches, 1u);
  EXPECT_EQ(svc.result(ta.id).batch_size, 2);
  for (const auto& [t, p] : {std::pair{ta, a}, std::pair{tb, b}}) {
    const auto& r = svc.result(t.id);
    ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
    const auto ref = cpu::general_reference_bf16(p);
    const auto& primary = ref[static_cast<std::size_t>(p.primary_field())];
    for (std::size_t e = 0; e < primary.size(); ++e) {
      ASSERT_EQ(r.solution[e], static_cast<float>(primary[e])) << "elem " << e;
    }
  }
}

TEST(Serve, TemporalStrategyRequestsServeBitExact) {
  // A per-request kTemporal override runs the k-deep chained kernels and
  // must deliver the same bits as the default row-chunk path; the two
  // strategies compile different programs, so they key separate sessions
  // and never share a batch.
  StencilService svc(base_config());
  const auto p = small_problem();
  Request row;
  row.problem = p;
  Request temporal;
  temporal.problem = p;
  temporal.strategy = core::DeviceStrategy::kTemporal;
  temporal.temporal_depth = 3;
  temporal.tenant = 1;
  const Ticket tr = svc.submit(row);
  const Ticket tt = svc.submit(temporal);
  svc.drain();
  expect_bit_exact(svc.result(tr.id), p);
  expect_bit_exact(svc.result(tt.id), p);
  EXPECT_EQ(svc.metrics().session_cache_misses, 2u);
  EXPECT_EQ(svc.metrics().batches, 2u);
}

TEST(Serve, TemporalServiceDefaultServesJacobiAndGallery) {
  // A pool configured with run.strategy = kTemporal serves classic and
  // general single-pass requests end to end, bit-exact vs the references.
  ServiceConfig cfg = base_config();
  cfg.run.strategy = core::DeviceStrategy::kTemporal;
  cfg.run.temporal_depth = 4;
  StencilService svc(cfg);
  auto p = small_problem();
  p.iterations = 9;  // not a multiple of the depth: exercises the short tail
  Request req;
  req.problem = p;
  const Ticket tj = svc.submit(req);
  Request greq;
  greq.general = core::gallery::hotspot(64, 48, 6);
  greq.tenant = 1;
  const Ticket tg = svc.submit(greq);
  svc.drain();
  expect_bit_exact(svc.result(tj.id), p);
  const auto& rg = svc.result(tg.id);
  ASSERT_EQ(rg.status, RequestStatus::kCompleted) << rg.error;
  const auto ref = cpu::general_reference_bf16(*greq.general);
  const auto& primary =
      ref[static_cast<std::size_t>(greq.general->primary_field())];
  ASSERT_EQ(rg.solution.size(), primary.size());
  for (std::size_t e = 0; e < primary.size(); ++e) {
    ASSERT_EQ(rg.solution[e], static_cast<float>(primary[e])) << "elem " << e;
  }
}

TEST(Serve, TemporalIneligibleRequestFailsFast) {
  // Multi-pass programs cannot chain through SRAM (leapfrog visibility
  // needs every pass's writes each iteration); the override fails at
  // submit, before a card is touched.
  StencilService svc(base_config());
  Request req;
  req.general = core::gallery::fdtd2d(64, 48, 4);
  req.strategy = core::DeviceStrategy::kTemporal;
  req.temporal_depth = 2;
  const Ticket t = svc.submit(req);
  EXPECT_EQ(t.status, RequestStatus::kFailed);
  EXPECT_FALSE(svc.result(t.id).error.empty());
}

TEST(Serve, PerRequestStrategyOverridesANonBatchableServiceDefault) {
  // The strategy is checked per request at admission, by the same core
  // validator a batched launch applies: a service whose default strategy
  // cannot batch still serves requests that override it, and rejects the
  // rest at submit with the validator's message.
  ServiceConfig cfg = base_config();
  cfg.run.strategy = core::DeviceStrategy::kSramResident;
  StencilService svc(cfg);
  const auto p = small_problem();
  Request row;
  row.problem = p;
  row.strategy = core::DeviceStrategy::kRowChunk;
  const Ticket tr = svc.submit(row);
  Request plain;
  plain.problem = p;
  const Ticket tp = svc.submit(plain);
  EXPECT_EQ(tp.status, RequestStatus::kFailed);
  EXPECT_NE(svc.result(tp.id).error.find("batched launches are built on the "
                                         "row-chunk or temporal strategies"),
            std::string::npos)
      << svc.result(tp.id).error;
  svc.drain();
  expect_bit_exact(svc.result(tr.id), p);
}

TEST(Serve, InvalidGeneralProgramFailsFast) {
  StencilService svc(base_config());
  Request req;
  req.general = core::GeneralStencilProblem{};  // no fields, no passes
  const Ticket t = svc.submit(req);
  EXPECT_EQ(t.status, RequestStatus::kFailed);
  EXPECT_FALSE(svc.result(t.id).error.empty());
}

TEST(Serve, MultiCardPoolSharesLoad) {
  ServiceConfig cfg = base_config();
  cfg.cards = 2;
  cfg.max_batch = 1;
  StencilService svc(cfg);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.problem = small_problem();
    req.tenant = i;
    tickets.push_back(svc.submit(req));
  }
  svc.drain();
  std::vector<int> cards_used;
  for (const auto& t : tickets) cards_used.push_back(svc.result(t.id).card);
  EXPECT_NE(std::count(cards_used.begin(), cards_used.end(), 0), 0);
  EXPECT_NE(std::count(cards_used.begin(), cards_used.end(), 1), 0);
}

TEST(Serve, PinnedMixedTrafficOnTwoCards) {
  // Classic row-chunk Jacobi, gallery hotspot (one written field beside a
  // read-only power field), temporal Jacobi, and checkpoint_every = 2
  // segments of both Jacobi and hotspot share a two-card pool. Every
  // delivered solution is bit-exact; the simulated timeline (per-ticket
  // completion, card and batch width, the batching and checkpoint counters,
  // the span trace) is pinned exactly, so a change to how requests move
  // through the service that moves any of it shows up here.
  ServiceConfig cfg = base_config();
  cfg.cards = 2;
  cfg.checkpoint_every = 2;
  cfg.record_spans = true;
  StencilService svc(cfg);

  struct Sent {
    Ticket ticket;
    Request req;
  };
  std::vector<Sent> sent;
  auto send = [&](Request req, int tenant, SimTime arrival) {
    req.tenant = tenant;
    req.arrival = arrival;
    sent.push_back({svc.submit(req), req});
    ASSERT_EQ(sent.back().ticket.status, RequestStatus::kQueued);
  };
  for (int i = 0; i < 3; ++i) {
    Request jacobi;
    jacobi.problem = small_problem(0.25f * static_cast<float>(i + 1));
    jacobi.problem.iterations = 2;
    send(jacobi, i, 0);
  }
  Request hot;
  hot.general = core::gallery::hotspot(64, 48, 2);
  send(hot, 3, 0);
  hot.general->fields[0].bc_left = 0.75f;
  send(hot, 4, 20 * kMicrosecond);
  Request temporal;
  temporal.problem = small_problem(0.5f);
  temporal.problem.iterations = 2;
  temporal.strategy = core::DeviceStrategy::kTemporal;
  temporal.temporal_depth = 2;
  send(temporal, 5, 40 * kMicrosecond);
  Request long_jacobi;
  long_jacobi.problem = small_problem(0.75f);
  long_jacobi.problem.iterations = 5;
  send(long_jacobi, 6, 60 * kMicrosecond);
  Request long_hot;
  long_hot.general = core::gallery::hotspot(64, 48, 5);
  send(long_hot, 7, 80 * kMicrosecond);
  svc.drain();

  for (const Sent& s : sent) {
    const RequestResult& r = svc.result(s.ticket.id);
    ASSERT_EQ(r.status, RequestStatus::kCompleted) << r.error;
    if (!s.req.general) {
      expect_bit_exact(r, s.req.problem);
      continue;
    }
    const auto ref = cpu::general_reference_bf16(*s.req.general);
    const auto& primary =
        ref[static_cast<std::size_t>(s.req.general->primary_field())];
    ASSERT_EQ(r.solution.size(), primary.size());
    for (std::size_t e = 0; e < primary.size(); ++e) {
      ASSERT_EQ(r.solution[e], static_cast<float>(primary[e])) << "elem " << e;
    }
  }

  struct Pin {
    SimTime completed;
    int card;
    int batch_size;
  };
  const std::vector<Pin> pins = {
      {671833722, 0, 3},  {671833722, 0, 3},  {671833722, 0, 3},
      {597272846, 1, 1},  {1311056568, 0, 2}, {1205659622, 1, 1},
      {2934483427, 1, 1}, {2477925337, 0, 1},
  };
  ASSERT_EQ(sent.size(), pins.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const RequestResult& r = svc.result(sent[i].ticket.id);
    EXPECT_EQ(r.completed, pins[i].completed) << "ticket " << i;
    EXPECT_EQ(r.card, pins[i].card) << "ticket " << i;
    EXPECT_EQ(r.batch_size, pins[i].batch_size) << "ticket " << i;
  }
  const ServiceMetrics& m = svc.metrics();
  EXPECT_EQ(m.batches, 9u);
  EXPECT_EQ(m.batched_requests, 12u);
  EXPECT_EQ(m.checkpoints_taken, 4u);
  EXPECT_EQ(m.checkpoint_bytes, 102400u);
  EXPECT_EQ(m.session_cache_hits, 2u);
  EXPECT_EQ(m.session_cache_misses, 7u);
  EXPECT_EQ(svc.spans().hash(), 8583585842677226036u);
}

// Most requests waiting at once on the simulated timeline, from the
// queue-wait spans (admission -> dispatch); departures first at equal times.
std::size_t most_waiting(const sim::TraceSink& spans) {
  std::vector<std::pair<SimTime, int>> edges;
  for (const sim::TraceEvent& e : spans.events()) {
    if (e.kind != sim::TraceEventKind::kServeQueueWait) continue;
    edges.emplace_back(e.ts, 1);
    edges.emplace_back(e.ts + e.dur, -1);
  }
  std::sort(edges.begin(), edges.end());
  int depth = 0;
  int peak = 0;
  for (const auto& [t, d] : edges) peak = std::max(peak, depth += d);
  return static_cast<std::size_t>(peak);
}

TEST(ServiceMetrics, MaxQueueDepthCountsOnlyArrivedRequests) {
  // An open-loop trace submitted up front: every request is in the queue
  // before the first dispatch, but a request waits only from its arrival.
  ServiceConfig cfg = base_config();
  cfg.record_spans = true;
  StencilService svc(cfg);
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.problem = small_problem(0.25f + 0.01f * static_cast<float>(i));
    req.tenant = i % 4;
    req.arrival = static_cast<SimTime>(i) * 40 * kMicrosecond;
    ASSERT_EQ(svc.submit(req).status, RequestStatus::kQueued);
  }
  svc.drain();
  const std::size_t from_spans = most_waiting(svc.spans());
  ASSERT_GT(from_spans, 1u);
  ASSERT_LT(from_spans, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(svc.metrics().max_queue_depth, from_spans);
}

TEST(ServiceMetrics, PercentileIsNearestRank) {
  // Samples n..1, unsorted: the nearest-rank p-th percentile is ceil(p*n).
  const auto samples = [](int n) {
    std::vector<SimTime> v;
    for (int i = n; i >= 1; --i) v.push_back(i);
    return v;
  };
  // 0.99 * 64 = 63.36: rounding the rank to nearest gave the 63rd sample.
  EXPECT_EQ(ServiceMetrics::percentile(samples(64), 0.99), 64);
  EXPECT_EQ(ServiceMetrics::percentile(samples(200), 0.95), 190);
  EXPECT_EQ(ServiceMetrics::percentile(samples(200), 0.50), 100);
  EXPECT_EQ(ServiceMetrics::percentile(samples(1), 0.01), 1);
  EXPECT_EQ(ServiceMetrics::percentile({}, 0.5), 0);

  // latency_percentile pools every tenant's completed requests.
  ServiceMetrics m;
  for (SimTime t : samples(64)) m.tenants[static_cast<int>(t % 3)].latencies.push_back(t);
  EXPECT_EQ(m.p99(), 64);
  EXPECT_EQ(m.p50(), 32);
}

}  // namespace
}  // namespace ttsim::serve
