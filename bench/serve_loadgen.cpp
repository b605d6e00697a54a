/// \file serve_loadgen.cpp
/// Deterministic load generator for the stencil-serving layer: seeded
/// synthetic tenants (no wall clock, no rand()) sweeping tenants x arrival
/// rate x cards in open- and closed-loop modes, reporting aggregate
/// throughput and p50/p99 latency in *simulated* time.
///
/// The headline comparison is the acceptance scenario — 64 tenants on one
/// card — where the service's spatial batching + async three-queue pipeline
/// must beat serial blocking run_program dispatch by >= 2x aggregate
/// throughput. Every scenario is a pure function of its seed: the rendered
/// report is byte-identical across repeated runs, including the variant
/// where a FaultPlan kills a core mid-load.
///
///   serve_loadgen            # full sweep + acceptance + determinism checks
///   serve_loadgen --smoke    # CI: small sweep, acceptance asserted,
///                            # exits non-zero on regression
///   serve_loadgen --chaos    # resilience scenarios instead of the sweep:
///                            # seeded fault storm vs shed-everything
///                            # baseline (goodput floor asserted), flapping
///                            # card (quarantine/probe/readmit), diurnal
///                            # overload (SLO admission + priority shedding);
///                            # byte-identical per seed

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ttsim/common/rng.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/serve/serve.hpp"
#include "ttsim/ttmetal/counters.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace {

using namespace ttsim;

constexpr std::uint64_t kSeed = 0x5EEDu;

core::JacobiProblem tenant_problem(int tenant) {
  core::JacobiProblem p;
  p.width = 256;
  p.height = 256;
  p.iterations = 4;
  // Distinct physics per tenant so batched slots carry genuinely different
  // data (correctness of the mix is pinned by tests/serve).
  p.bc_left = 0.5f + 0.005f * static_cast<float>(tenant % 64);
  return p;
}

core::DeviceRunConfig slot_config() {
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.cores_x = 1;
  cfg.cores_y = 4;
  return cfg;
}

struct Arrival {
  SimTime at = 0;
  int tenant = 0;
};

/// Seeded open-loop arrival trace: per-tenant Poisson with the given mean
/// inter-arrival gap, merged into one non-decreasing sequence.
std::vector<Arrival> make_arrivals(int tenants, int per_tenant, SimTime mean_gap,
                                   std::uint64_t seed) {
  std::vector<Arrival> all;
  for (int t = 0; t < tenants; ++t) {
    Rng rng(seed + static_cast<std::uint64_t>(t) * 0x9E3779B9u);
    SimTime at = 0;
    for (int k = 0; k < per_tenant; ++k) {
      double u = rng.next_double();
      if (u < 1e-12) u = 1e-12;
      at += static_cast<SimTime>(-static_cast<double>(mean_gap) * std::log(u));
      all.push_back({at, t});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.tenant < b.tenant;
  });
  return all;
}

struct Outcome {
  double throughput = 0;  // requests per simulated second
  SimTime p50 = 0, p99 = 0;
  std::uint64_t completed = 0, batches = 0, reopens = 0;
};

/// Serial blocking baseline: one device, one request at a time through the
/// blocking run_jacobi_on_device path, gated on arrivals.
Outcome run_serial(const std::vector<Arrival>& arrivals, std::ostringstream& rep) {
  auto device = ttmetal::Device::open();
  const core::DeviceRunConfig cfg = slot_config();
  const ttmetal::PcieScope pcie(*device);
  const ttmetal::RetryScope retries(*device);
  std::vector<SimTime> latencies;
  SimTime last_done = 0;
  for (const Arrival& a : arrivals) {
    if (device->now() < a.at) device->hw().engine().run_until(a.at);
    core::JacobiProblem p = tenant_problem(a.tenant);
    core::DeviceRunConfig c = cfg;
    c.verify = false;
    (void)core::run_jacobi_on_device(*device, p, c);
    last_done = device->now();
    latencies.push_back(last_done - a.at);
  }
  Outcome o;
  o.completed = arrivals.size();
  o.throughput = static_cast<double>(arrivals.size()) /
                 (static_cast<double>(last_done) / static_cast<double>(kSecond));
  o.p50 = serve::ServiceMetrics::percentile(latencies, 0.50);
  o.p99 = serve::ServiceMetrics::percentile(latencies, 0.99);
  rep << "  serial: pcie " << to_seconds(pcie.elapsed()) * 1e3 << " ms, retries "
      << retries.count() << "\n";
  return o;
}

serve::ServiceConfig service_config(int cards, int max_batch) {
  serve::ServiceConfig cfg;
  cfg.cards = cards;
  cfg.run = slot_config();
  cfg.max_batch = max_batch;
  cfg.queue_capacity = 4096;
  return cfg;
}

/// Open-loop service run over a precomputed arrival trace.
Outcome run_service(const std::vector<Arrival>& arrivals, serve::ServiceConfig cfg) {
  serve::StencilService svc(std::move(cfg));
  std::vector<std::uint64_t> ids;
  for (const Arrival& a : arrivals) {
    serve::Request req;
    req.problem = tenant_problem(a.tenant);
    req.tenant = a.tenant;
    req.arrival = a.at;
    ids.push_back(svc.submit(req).id);
  }
  svc.drain();
  Outcome o;
  SimTime last_done = 0;
  for (std::uint64_t id : ids) {
    const auto& r = svc.result(id);
    if (r.status == serve::RequestStatus::kCompleted) {
      ++o.completed;
      last_done = std::max(last_done, r.completed);
    }
  }
  const auto& m = svc.metrics();
  o.p50 = m.p50();
  o.p99 = m.p99();
  o.batches = m.batches;
  o.reopens = m.card_reopens;
  o.throughput = last_done > 0 ? static_cast<double>(o.completed) /
                                     (static_cast<double>(last_done) /
                                      static_cast<double>(kSecond))
                               : 0.0;
  return o;
}

/// Closed-loop service run: `waves` rounds where each tenant's next request
/// arrives the moment its previous one completed.
Outcome run_closed_loop(int tenants, int waves, serve::ServiceConfig cfg) {
  serve::StencilService svc(std::move(cfg));
  std::vector<SimTime> next(static_cast<std::size_t>(tenants), 0);
  std::vector<std::uint64_t> ids;
  for (int w = 0; w < waves; ++w) {
    std::vector<std::uint64_t> wave;
    for (int t = 0; t < tenants; ++t) {
      serve::Request req;
      req.problem = tenant_problem(t);
      req.tenant = t;
      req.arrival = next[static_cast<std::size_t>(t)];
      wave.push_back(svc.submit(req).id);
    }
    svc.drain();
    for (int t = 0; t < tenants; ++t) {
      const auto& r = svc.result(wave[static_cast<std::size_t>(t)]);
      next[static_cast<std::size_t>(t)] = r.completed;
    }
    ids.insert(ids.end(), wave.begin(), wave.end());
  }
  Outcome o;
  SimTime last_done = 0;
  for (std::uint64_t id : ids) {
    const auto& r = svc.result(id);
    if (r.status == serve::RequestStatus::kCompleted) {
      ++o.completed;
      last_done = std::max(last_done, r.completed);
    }
  }
  const auto& m = svc.metrics();
  o.p50 = m.p50();
  o.p99 = m.p99();
  o.batches = m.batches;
  o.reopens = m.card_reopens;
  o.throughput = last_done > 0 ? static_cast<double>(o.completed) /
                                     (static_cast<double>(last_done) /
                                      static_cast<double>(kSecond))
                               : 0.0;
  return o;
}

// ---------------------------------------------------------------------------
// Chaos scenarios (--chaos): the resilience stack under scripted adversity.
// Every scenario is a pure function of kSeed; the rendered report must be
// byte-identical across repeated runs even though cards die, flap and heal.

struct ChaosLoad {
  SimTime at = 0;
  int tenant = 0;
  int priority = 0;
  SimTime deadline = 0;  ///< absolute; 0 = none
};

struct ChaosOutcome {
  std::uint64_t offered = 0, completed = 0, in_deadline = 0;
  std::uint64_t failed = 0, rejected = 0;
  std::uint64_t offered_high = 0, in_deadline_high = 0;
  std::uint64_t offered_low = 0, in_deadline_low = 0;
  std::uint64_t reopens = 0, migrations = 0, checkpoints = 0;
  std::uint64_t shed = 0, infeasible = 0;
  std::uint64_t quarantines = 0, probes = 0, readmissions = 0;
  SimTime p99 = 0, p999 = 0;
  double goodput = 0;  ///< in-deadline completions / offered
};

ChaosOutcome run_chaos(const std::vector<ChaosLoad>& load,
                       serve::ServiceConfig cfg) {
  serve::StencilService svc(std::move(cfg));
  std::vector<std::pair<std::uint64_t, int>> subs;  // ticket id, priority
  subs.reserve(load.size());
  for (const ChaosLoad& l : load) {
    serve::Request req;
    req.problem = tenant_problem(l.tenant);
    req.tenant = l.tenant;
    req.priority = l.priority;
    req.arrival = l.at;
    req.deadline = l.deadline;
    subs.emplace_back(svc.submit(req).id, l.priority);
  }
  svc.drain();
  ChaosOutcome o;
  o.offered = subs.size();
  for (const auto& [id, priority] : subs) {
    const auto& r = svc.result(id);
    const bool high = priority > 0;
    ++(high ? o.offered_high : o.offered_low);
    switch (r.status) {
      case serve::RequestStatus::kCompleted:
        ++o.completed;
        if (!r.deadline_missed) {
          ++o.in_deadline;
          ++(high ? o.in_deadline_high : o.in_deadline_low);
        }
        break;
      case serve::RequestStatus::kFailed:
        ++o.failed;
        break;
      case serve::RequestStatus::kRejected:
        ++o.rejected;
        break;
      default:
        break;
    }
  }
  const auto& m = svc.metrics();
  o.p99 = m.p99();
  o.p999 = m.p999();
  o.reopens = m.card_reopens;
  o.migrations = m.migrations;
  o.checkpoints = m.checkpoints_taken;
  o.shed = m.shed;
  o.infeasible = m.infeasible_rejects;
  o.quarantines = m.quarantines;
  o.probes = m.probes;
  o.readmissions = m.readmissions;
  o.goodput = o.offered > 0
                  ? static_cast<double>(o.in_deadline) /
                        static_cast<double>(o.offered)
                  : 0.0;
  return o;
}

void print_chaos(std::ostringstream& rep, const char* label,
                 const ChaosOutcome& o) {
  char line[384];
  std::snprintf(
      line, sizeof line,
      "  %-22s goodput %5.1f%% (%llu/%llu in deadline)  p99 %8.1f us  "
      "p99.9 %8.1f us\n"
      "  %-22s failed %llu  rejected %llu (shed %llu, infeasible %llu)  "
      "reopens %llu\n"
      "  %-22s checkpoints %llu  migrations %llu  quarantines %llu  "
      "probes %llu  readmissions %llu\n",
      label, 100.0 * o.goodput, static_cast<unsigned long long>(o.in_deadline),
      static_cast<unsigned long long>(o.offered), to_seconds(o.p99) * 1e6,
      to_seconds(o.p999) * 1e6, "",
      static_cast<unsigned long long>(o.failed),
      static_cast<unsigned long long>(o.rejected),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.infeasible),
      static_cast<unsigned long long>(o.reopens), "",
      static_cast<unsigned long long>(o.checkpoints),
      static_cast<unsigned long long>(o.migrations),
      static_cast<unsigned long long>(o.quarantines),
      static_cast<unsigned long long>(o.probes),
      static_cast<unsigned long long>(o.readmissions));
  rep << line;
}

/// Fault storm: staggered core kills raking both cards through the load
/// window. `resilient` arms checkpointing + retries; off, every fault
/// victim is shed — the baseline the resilience stack must double.
serve::ServiceConfig storm_config(bool resilient) {
  serve::ServiceConfig cfg = service_config(/*cards=*/2, /*max_batch=*/16);
  cfg.device.sim_time_limit = 20 * kMillisecond;
  cfg.checkpoint_every = resilient ? 2 : 0;
  cfg.max_retries = resilient ? 3 : 0;
  cfg.health.quarantine_after = 2;
  cfg.health.probe_after = 2 * kMillisecond;
  cfg.health.readmit_successes = 1;
  cfg.health.heal_on_probe = true;
  cfg.card_devices.assign(2, cfg.device);
  for (int c = 0; c < 2; ++c) {
    sim::FaultConfig fc;
    for (int k = 0; k < 6; ++k) {
      fc.core_kills.push_back(
          {k, (500 + 700 * k + 350 * c) * kMicrosecond});
    }
    cfg.card_devices[static_cast<std::size_t>(c)].fault_plan =
        std::make_shared<sim::FaultPlan>(fc);
  }
  return cfg;
}

std::vector<ChaosLoad> storm_load(bool smoke) {
  const auto arrivals = make_arrivals(/*tenants=*/16, smoke ? 2 : 4,
                                      500 * kMicrosecond, kSeed ^ 0xC0FFEEu);
  std::vector<ChaosLoad> load;
  load.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    // Generous deadline: a retried solve makes it comfortably; only work
    // the baseline sheds outright misses.
    load.push_back({a.at, a.tenant, 0, a.at + 200 * kMillisecond});
  }
  return load;
}

/// Flapping card: card 0 dies, is quarantined, heals on probe, is
/// readmitted — then dies again later (the second scripted kill survives
/// the heal). Card 1 carries migrated sessions through the flaps.
serve::ServiceConfig flap_config() {
  serve::ServiceConfig cfg = service_config(/*cards=*/2, /*max_batch=*/8);
  cfg.device.sim_time_limit = 20 * kMillisecond;
  cfg.checkpoint_every = 2;
  cfg.max_retries = 3;
  cfg.health.quarantine_after = 1;
  cfg.health.probe_after = 1 * kMillisecond;
  cfg.health.readmit_successes = 1;
  cfg.health.heal_on_probe = true;
  cfg.card_devices.assign(2, cfg.device);
  sim::FaultConfig fc;
  fc.core_kills.push_back({0, 1 * kMillisecond});
  fc.core_kills.push_back({0, 8 * kMillisecond});
  cfg.card_devices[0].fault_plan = std::make_shared<sim::FaultPlan>(fc);
  return cfg;
}

std::vector<ChaosLoad> flap_load(bool smoke) {
  const auto arrivals = make_arrivals(/*tenants=*/8, smoke ? 2 : 4,
                                      1 * kMillisecond, kSeed ^ 0xF1A9u);
  std::vector<ChaosLoad> load;
  load.reserve(arrivals.size());
  for (const Arrival& a : arrivals) load.push_back({a.at, a.tenant, 0, 0});
  return load;
}

/// Diurnal overload: an off-peak trickle, a burst an order of magnitude
/// hotter than the card can serve, then off-peak again. A bounded queue
/// plus SLO admission and priority shedding keep high-priority goodput up
/// while excess low-priority work is turned away with adaptive hints.
serve::ServiceConfig diurnal_config() {
  serve::ServiceConfig cfg = service_config(/*cards=*/1, /*max_batch=*/8);
  cfg.queue_capacity = 8;
  cfg.slo_admission = true;
  cfg.shed_low_priority = true;
  cfg.adaptive_retry = true;
  return cfg;
}

std::vector<ChaosLoad> diurnal_load(bool smoke) {
  struct Phase {
    SimTime gap;
    int per_tenant;
  };
  const std::vector<Phase> phases =
      smoke ? std::vector<Phase>{{2 * kMillisecond, 1},
                                 {100 * kMicrosecond, 3},
                                 {2 * kMillisecond, 1}}
            : std::vector<Phase>{{2 * kMillisecond, 2},
                                 {100 * kMicrosecond, 8},
                                 {2 * kMillisecond, 2}};
  std::vector<ChaosLoad> load;
  SimTime base = 0;
  std::uint64_t salt = 0;
  for (const Phase& ph : phases) {
    const auto arrivals = make_arrivals(/*tenants=*/8, ph.per_tenant, ph.gap,
                                        kSeed ^ (0xD1A0u + salt++));
    SimTime last = base;
    for (const Arrival& a : arrivals) {
      const SimTime at = base + a.at;
      // One tenant in four is latency-critical; the rest are best-effort
      // and first against the wall when the burst overwhelms the queue.
      load.push_back({at, a.tenant, a.tenant % 4 == 0 ? 1 : 0,
                      at + 10 * kMillisecond});
      last = std::max(last, at);
    }
    base = last + ph.gap;
  }
  return load;
}

void print_outcome(std::ostringstream& rep, const char* label, const Outcome& o) {
  char line[256];
  std::snprintf(line, sizeof line,
                "  %-28s %8.1f req/s  p50 %8.1f us  p99 %8.1f us  "
                "completed %4llu  batches %4llu  reopens %llu\n",
                label, o.throughput, to_seconds(o.p50) * 1e6,
                to_seconds(o.p99) * 1e6,
                static_cast<unsigned long long>(o.completed),
                static_cast<unsigned long long>(o.batches),
                static_cast<unsigned long long>(o.reopens));
  rep << line;
}

}  // namespace

namespace {

int run_chaos_mode(bool smoke) {
  auto render = [&] {
    std::ostringstream rep;
    rep << "=== Chaos harness (seed 0x" << std::hex << kSeed << std::dec
        << (smoke ? ", smoke" : ", full") << ") ===\n";

    rep << "\nFault storm (2 cards, 6 staggered core kills each), resilient "
           "vs shed-everything:\n";
    const auto storm = storm_load(smoke);
    const ChaosOutcome shed_all = run_chaos(storm, storm_config(false));
    const ChaosOutcome resilient = run_chaos(storm, storm_config(true));
    print_chaos(rep, "shed-everything", shed_all);
    print_chaos(rep, "resilient", resilient);
    char line[160];
    std::snprintf(line, sizeof line,
                  "  goodput ratio: %.2fx (acceptance floor 2x)\n",
                  shed_all.goodput > 0 ? resilient.goodput / shed_all.goodput
                                       : 0.0);
    rep << line;

    rep << "\nFlapping card (card 0 dies at 1 ms and again at 8 ms, heals on "
           "probe):\n";
    const ChaosOutcome flap = run_chaos(flap_load(smoke), flap_config());
    print_chaos(rep, "flapping card", flap);

    rep << "\nDiurnal overload (off-peak / 10x burst / off-peak, bounded "
           "queue, SLO admission, priority shedding):\n";
    const ChaosOutcome diurnal = run_chaos(diurnal_load(smoke), diurnal_config());
    print_chaos(rep, "diurnal overload", diurnal);

    return std::make_tuple(rep.str(), resilient, shed_all, flap, diurnal);
  };

  const auto [report, resilient, shed_all, flap, diurnal] = render();
  std::fputs(report.c_str(), stdout);

  std::printf("\nDeterminism: re-running the chaos suite with the same "
              "seed... ");
  const auto [again, r2, s2, f2, d2] = render();
  const bool deterministic = report == again;
  std::printf("%s\n", deterministic ? "byte-identical" : "MISMATCH");

  bool ok = true;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: repeated same-seed chaos runs diverged\n");
    ok = false;
  }
  if (resilient.goodput < 2.0 * shed_all.goodput) {
    std::fprintf(stderr,
                 "FAIL: storm goodput %.1f%% < 2x shed-everything %.1f%%\n",
                 100.0 * resilient.goodput, 100.0 * shed_all.goodput);
    ok = false;
  }
  if (resilient.in_deadline * 4 < resilient.offered * 3) {
    std::fprintf(stderr,
                 "FAIL: storm goodput floor: %llu/%llu in deadline < 75%%\n",
                 static_cast<unsigned long long>(resilient.in_deadline),
                 static_cast<unsigned long long>(resilient.offered));
    ok = false;
  }
  if (resilient.p99 > 50 * kMillisecond) {
    std::fprintf(stderr, "FAIL: storm p99 %.1f us unbounded (cap 50 ms)\n",
                 to_seconds(resilient.p99) * 1e6);
    ok = false;
  }
  if (flap.completed != flap.offered || flap.quarantines < 1 ||
      flap.probes < 1 || flap.readmissions < 1) {
    std::fprintf(stderr,
                 "FAIL: flapping card: completed %llu/%llu, quarantines %llu, "
                 "probes %llu, readmissions %llu\n",
                 static_cast<unsigned long long>(flap.completed),
                 static_cast<unsigned long long>(flap.offered),
                 static_cast<unsigned long long>(flap.quarantines),
                 static_cast<unsigned long long>(flap.probes),
                 static_cast<unsigned long long>(flap.readmissions));
    ok = false;
  }
  const double high = diurnal.offered_high > 0
                          ? static_cast<double>(diurnal.in_deadline_high) /
                                static_cast<double>(diurnal.offered_high)
                          : 0.0;
  const double low = diurnal.offered_low > 0
                         ? static_cast<double>(diurnal.in_deadline_low) /
                               static_cast<double>(diurnal.offered_low)
                         : 0.0;
  if (diurnal.shed + diurnal.rejected < 1 || diurnal.in_deadline < 1 ||
      high < low) {
    std::fprintf(stderr,
                 "FAIL: diurnal overload: shed+rejected %llu, in-deadline "
                 "%llu, high-priority goodput %.1f%% < low %.1f%%\n",
                 static_cast<unsigned long long>(diurnal.shed +
                                                 diurnal.rejected),
                 static_cast<unsigned long long>(diurnal.in_deadline),
                 100.0 * high, 100.0 * low);
    ok = false;
  }
  if (ok) std::printf("All chaos checks passed.\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--smoke] [--chaos]\n", argv[0]);
      return 0;
    }
  }
  if (chaos) return run_chaos_mode(smoke);

  const int per_tenant = smoke ? 2 : 4;
  const SimTime mean_gap = 2 * kMillisecond;

  struct Scenario {
    const char* name;
    int tenants, cards, max_batch;
  };
  const std::vector<Scenario> sweep =
      smoke ? std::vector<Scenario>{{"8 tenants / 1 card", 8, 1, 16},
                                    {"8 tenants / 2 cards", 8, 2, 16}}
            : std::vector<Scenario>{{"8 tenants / 1 card", 8, 1, 16},
                                    {"16 tenants / 1 card", 16, 1, 16},
                                    {"16 tenants / 2 cards", 16, 2, 16},
                                    {"64 tenants / 2 cards", 64, 2, 16},
                                    {"64 tenants / 4 cards", 64, 4, 16}};

  // The whole report renders into a string so the determinism check can
  // compare repeated runs byte for byte.
  auto render = [&](bool with_fault) {
    std::ostringstream rep;
    rep << "=== Stencil serving load generator (seed 0x" << std::hex << kSeed
        << std::dec << ", " << per_tenant << " req/tenant, open-loop mean gap "
        << to_seconds(mean_gap) * 1e3 << " ms) ===\n";

    rep << "\nOpen-loop sweep (tenants x cards):\n";
    for (const Scenario& sc : sweep) {
      const auto arrivals =
          make_arrivals(sc.tenants, per_tenant, mean_gap, kSeed);
      const Outcome o =
          run_service(arrivals, service_config(sc.cards, sc.max_batch));
      print_outcome(rep, sc.name, o);
    }

    rep << "\nClosed-loop (wave-synchronous, 16 tenants / 1 card):\n";
    const Outcome closed =
        run_closed_loop(16, smoke ? 2 : 4, service_config(1, 16));
    print_outcome(rep, "closed-loop", closed);

    rep << "\nAcceptance: 64 tenants / 1 card, batched+async vs serial "
           "blocking dispatch:\n";
    const auto arrivals = make_arrivals(64, per_tenant, mean_gap, kSeed);
    const Outcome serial = run_serial(arrivals, rep);
    print_outcome(rep, "serial blocking", serial);
    const Outcome served = run_service(arrivals, service_config(1, 16));
    print_outcome(rep, "service (batch 16)", served);
    const double speedup = served.throughput / serial.throughput;
    char line[128];
    std::snprintf(line, sizeof line, "  speedup: %.2fx (acceptance floor 2x)\n",
                  speedup);
    rep << line;

    if (with_fault) {
      rep << "\nFault variant: core 0 killed 3 ms into the load, watchdog "
             "armed:\n";
      serve::ServiceConfig fcfg = service_config(1, 16);
      fcfg.device.sim_time_limit = 20 * kMillisecond;
      sim::FaultConfig fc;
      fc.core_kills.push_back({0, 3 * kMillisecond});
      fcfg.device.fault_plan = std::make_shared<sim::FaultPlan>(fc);
      fcfg.max_retries = 2;
      const Outcome faulted = run_service(arrivals, std::move(fcfg));
      print_outcome(rep, "service under fault", faulted);
    }
    return std::make_pair(rep.str(), speedup);
  };

  const auto [report, speedup] = render(true);
  std::fputs(report.c_str(), stdout);

  std::printf("\nDeterminism: re-running the full report with the same seed... ");
  const auto [again, speedup2] = render(true);
  const bool deterministic = report == again && speedup == speedup2;
  std::printf("%s\n", deterministic ? "byte-identical" : "MISMATCH");

  bool ok = true;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: repeated same-seed runs diverged\n");
    ok = false;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: acceptance speedup %.2fx < 2x\n", speedup);
    ok = false;
  }
  if (ok) std::printf("All checks passed.\n");
  return ok ? 0 : 1;
}
