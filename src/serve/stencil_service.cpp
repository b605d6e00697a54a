/// \file stencil_service.cpp
/// The multi-tenant stencil-serving frontend: admission (with SLO checks and
/// load shedding), shape-keyed session cache, batching scheduler, the
/// three-queue async pipeline per card, and the resilience layer —
/// checkpoint/migration, the per-card health state machine, and typed-error
/// fault recovery by card reopen. See serve.hpp for the design overview.

#include "ttsim/serve/serve.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <tuple>
#include <utility>

#include "ttsim/common/check.hpp"
#include "ttsim/core/field_grids.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::serve {

namespace {
/// Batches in flight per card: 2 gives write/compute overlap with the
/// double-banked slot buffers; deeper would let a third batch's H2D land in
/// a bank whose reads have not drained.
constexpr std::size_t kPipelineDepth = 2;
}  // namespace

const char* to_string(CardHealth health) {
  switch (health) {
    case CardHealth::kHealthy: return "healthy";
    case CardHealth::kDegraded: return "degraded";
    case CardHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ServiceMetrics

SimTime ServiceMetrics::percentile(std::vector<SimTime> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

SimTime ServiceMetrics::latency_percentile(double p) const {
  std::vector<SimTime> all;
  for (const auto& [tenant, stats] : tenants)
    all.insert(all.end(), stats.latencies.begin(), stats.latencies.end());
  return percentile(std::move(all), p);
}

std::uint64_t ServiceMetrics::total_completed() const {
  std::uint64_t n = 0;
  for (const auto& [tenant, stats] : tenants) n += stats.completed;
  return n;
}

// ---------------------------------------------------------------------------
// Internal structures

struct StencilService::Pending {
  /// The request as admitted: `general` is always set (a classic Jacobi
  /// request is converted once, at submit).
  Request req;
  ShapeKey key;  ///< shape of the NEXT segment (tracks remaining sweeps)
  int iterations_done = 0;  ///< sweeps completed across prior segments
  /// State after iterations_done sweeps (empty before the first seal): one
  /// sealed image per written field, while read-only fields restage from
  /// the request. Sharded sessions hold the GLOBAL padded images here — the
  /// whole-domain numerical state, so the next segment's group may be ANY
  /// set of cards.
  core::Checkpoint ckpt;
  int ckpt_card = -1;  ///< card that produced the checkpoint
  /// Sharded multi-card sessions: cards this request's slabs must spread
  /// over (0 = a normal single-card request), and the group that ran the
  /// previous segment (a different group counts as a migration).
  int shard_cards = 0;
  std::vector<int> group;
  bool waiting = true;  ///< not yet out of the queue since admission
};

struct StencilService::Session {
  explicit Session(const ShapeKey& k) : key(k), layout(k.width, k.height) {}

  ShapeKey key;
  core::PaddedLayout layout;
  /// groups[g] = the physical workers serving batch slot g.
  std::vector<std::vector<int>> groups;
  /// Fields of the key's program.
  int nfields = 0;
  /// banks[bank][g] = the grids of batch slot g. Two banks so batch j+1's
  /// H2D staging can overlap batch j's kernels without a hazard.
  std::array<std::vector<core::FieldGrids>, 2> banks;
  /// Compiled batch programs, keyed by (bank, batch width B). Programs are
  /// reusable across launches, so each (bank, B) compiles once.
  std::map<std::pair<int, int>, std::unique_ptr<ttmetal::Program>> programs;
  int next_bank = 0;
};

struct StencilService::InFlight {
  std::vector<std::uint64_t> members;  ///< ticket ids, slot order
  ShapeKey key;
  int bank = 0;
  SimTime dispatched = 0;
  ttmetal::Event write_done, kernel_done, read_done;
  /// Read destinations, outputs[member][field]: a finishing member reads
  /// its primary field (the delivered solution), a continuing one every
  /// written field (the next segment's checkpoints); the rest stay empty.
  std::vector<std::vector<std::vector<bfloat16_t>>> outputs;
  std::vector<std::uint8_t> continues;  ///< per member: more segments left
};

struct StencilService::Card {
  int index = 0;
  /// This card's device-family spec (cfg_.spec or its card_specs override);
  /// reopens use it so a Wormhole comes back a Wormhole.
  sim::DeviceSpec spec;
  /// This card's device config (cfg_.device or its card_devices override);
  /// reopens after faults and probes reuse it so the card keeps its own
  /// fault plan across generations.
  ttmetal::DeviceConfig dev_cfg;
  // The device must outlive the sessions (Buffer destructors release their
  // allocation on the device), so it is declared first / destroyed last.
  std::unique_ptr<ttmetal::Device> device;
  std::map<ShapeKey, std::unique_ptr<Session>> sessions;
  std::deque<InFlight> inflight;

  // -- health state machine (see health.hpp) --
  CardHealth health = CardHealth::kHealthy;
  int consecutive_failures = 0;
  int clean_streak = 0;   ///< clean harvests since degraded (readmission)
  SimTime probe_at = 0;   ///< quarantined: earliest readmission probe time
  bool retired = false;   ///< probe found dead silicon; never serves again
};

// ---------------------------------------------------------------------------
// Construction

StencilService::StencilService(ServiceConfig config)
    : cfg_(std::move(config)), spans_(span_engine_) {
  if (cfg_.cards < 1) TTSIM_THROW_API("service needs at least one card");
  if (cfg_.run.cores_x < 1 || cfg_.run.cores_y < 1) {
    TTSIM_THROW_API("need at least a 1x1 core grid per batch slot");
  }
  if (cfg_.max_batch < 1) TTSIM_THROW_API("max_batch must be >= 1");
  if (cfg_.queue_capacity < 1) TTSIM_THROW_API("queue_capacity must be >= 1");
  if (cfg_.max_retries < 0) TTSIM_THROW_API("max_retries must be >= 0");
  if (cfg_.checkpoint_every < 0) TTSIM_THROW_API("checkpoint_every must be >= 0");
  if (cfg_.health.quarantine_after < 1) {
    TTSIM_THROW_API("quarantine_after must be >= 1");
  }
  if (cfg_.health.readmit_successes < 1) {
    TTSIM_THROW_API("readmit_successes must be >= 1");
  }
  if (!cfg_.card_devices.empty() &&
      cfg_.card_devices.size() != static_cast<std::size_t>(cfg_.cards)) {
    TTSIM_THROW_API("card_devices must be empty or have one entry per card");
  }
  if (!cfg_.card_specs.empty() &&
      cfg_.card_specs.size() != static_cast<std::size_t>(cfg_.cards)) {
    TTSIM_THROW_API("card_specs must be empty or have one entry per card");
  }
  for (int i = 0; i < cfg_.cards; ++i) {
    auto card = std::make_unique<Card>();
    card->index = i;
    card->spec = cfg_.card_specs.empty()
                     ? cfg_.spec
                     : cfg_.card_specs[static_cast<std::size_t>(i)];
    card->dev_cfg = cfg_.card_devices.empty()
                        ? cfg_.device
                        : cfg_.card_devices[static_cast<std::size_t>(i)];
    card->device = ttmetal::Device::open(card->spec, card->dev_cfg);
    const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
    if (slot > card->device->num_workers()) {
      TTSIM_THROW_API("a batch slot needs " << slot << " cores but the card has "
                                            << card->device->num_workers());
    }
    cards_.push_back(std::move(card));
  }
}

StencilService::~StencilService() = default;

// ---------------------------------------------------------------------------
// Spans

int StencilService::tenant_track(int tenant) {
  auto it = tenant_tracks_.find(tenant);
  if (it != tenant_tracks_.end()) return it->second;
  std::ostringstream name;
  name << "tenant" << tenant;
  const int id = spans_.track(name.str());
  tenant_tracks_.emplace(tenant, id);
  return id;
}

int StencilService::card_track(int card) {
  auto it = card_tracks_.find(card);
  if (it != card_tracks_.end()) return it->second;
  std::ostringstream name;
  name << "card" << card;
  const int id = spans_.track(name.str());
  card_tracks_.emplace(card, id);
  return id;
}

void StencilService::record_span(sim::TraceEventKind kind, SimTime ts, SimTime dur,
                                 int track, std::uint64_t req, std::int32_t b) {
  if (!cfg_.record_spans) return;
  sim::TraceSink::Rec rec;
  rec.b = b;
  rec.addr = req;  // the ticket id ties spans of one request together
  spans_.record(kind, ts, dur, rec, track);
}

// ---------------------------------------------------------------------------
// Admission

ShapeKey StencilService::effective_key(const Pending& p) const {
  const core::GeneralStencilProblem& prog = *p.req.general;
  ShapeKey key;
  key.width = prog.width;
  key.height = prog.height;
  key.iterations = prog.iterations - p.iterations_done;
  if (cfg_.checkpoint_every > 0) {
    key.iterations = std::min(key.iterations, cfg_.checkpoint_every);
  }
  key.program = prog.transition_hash();
  key.chunk_elems = cfg_.run.chunk_elems;
  key.read_ahead = cfg_.run.read_ahead;
  const auto strat = p.req.strategy.value_or(cfg_.run.strategy);
  key.strategy = static_cast<int>(strat);
  key.temporal_depth =
      strat == core::DeviceStrategy::kTemporal
          ? (p.req.temporal_depth > 0 ? p.req.temporal_depth
                                      : cfg_.run.temporal_depth)
          : 1;
  return key;
}

core::DeviceRunConfig StencilService::run_for(const ShapeKey& key) const {
  core::DeviceRunConfig run = cfg_.run;
  run.strategy = static_cast<core::DeviceStrategy>(key.strategy);
  run.temporal_depth = key.temporal_depth;
  return run;
}

int StencilService::active_slots() const {
  int slots = 0;
  for (const auto& c : cards_) {
    if (c->retired || c->health == CardHealth::kQuarantined) continue;
    slots += card_capacity(c->index);
  }
  return slots;
}

SimTime StencilService::cheapest_cost(std::uint64_t program) const {
  SimTime best = 0;
  for (const auto& [key, e] : ewma_batch_) {
    if (key.first != program || e == 0) continue;
    if (best == 0 || e < best) best = e;
  }
  return best;
}

SimTime StencilService::estimate_completion(const Request& request) const {
  // Cost history is per (program, spec): a gallery batch can run at a
  // fraction of a Jacobi batch's cost, and a Wormhole retires the same
  // program at a different cost than a Grayskull — either collapse would
  // over-reject cheap (workload, card) pairings and under-reject expensive
  // ones the moment tenants or family members mix. The estimate takes the
  // MINIMUM cost across specs with history: the scheduler is free to place
  // the batch on the fastest family member, so rejecting against a slower
  // card's cost would turn admission pessimistic on exactly the requests a
  // mixed pool exists to serve.
  const core::GeneralStencilProblem& prog = *request.general;
  const SimTime own = cheapest_cost(prog.transition_hash());
  // No history for THIS program on ANY spec: admit optimistically.
  if (own == 0) return 0;
  const int slots = active_slots();
  if (slots < 1) return 0;  // pool is down; admission is not the gate
  // Work queued ahead of this request, each entry at its own program's
  // cost (unknown programs assumed to cost like the newcomer's), spread
  // over the pool's slots; then the newcomer's own segments.
  SimTime queued = 0;
  for (std::uint64_t id : pending_) {
    const SimTime e = cheapest_cost(requests_.at(id).key.program);
    queued += e != 0 ? e : own;
  }
  SimTime segments = 1;
  if (cfg_.checkpoint_every > 0) {
    segments = (prog.iterations + cfg_.checkpoint_every - 1) / cfg_.checkpoint_every;
  }
  return std::max(service_now_, request.arrival) +
         queued / static_cast<SimTime>(slots) + own * segments;
}

SimTime StencilService::backpressure_hint() const {
  if (!cfg_.adaptive_retry || ewma_batch_.empty()) return cfg_.retry_after;
  const int slots = active_slots();
  if (slots < 1) return cfg_.retry_after;
  // Drain time of the queue at per-program costs; programs with no history
  // yet cost the pool mean.
  SimTime mean = 0;
  SimTime n = 0;
  for (const auto& [key, e] : ewma_batch_) {
    if (e == 0) continue;
    mean += e;
    ++n;
  }
  if (n == 0) return cfg_.retry_after;
  mean /= n;
  SimTime queued = 0;
  for (std::uint64_t id : pending_) {
    const SimTime best = cheapest_cost(requests_.at(id).key.program);
    queued += best != 0 ? best : mean;
  }
  return std::max<SimTime>(queued / static_cast<SimTime>(slots), kMicrosecond);
}

Ticket StencilService::submit(const Request& submitted) {
  // Classic Jacobi is the general program to_general makes: convert once,
  // so nothing past this point tells the two apart.
  Request request = submitted;
  if (!request.general) request.general = core::to_general(request.problem);
  const core::GeneralStencilProblem& prog = *request.general;
  service_now_ = std::max(service_now_, request.arrival);
  Ticket ticket;
  ticket.id = next_ticket_++;
  TenantStats& ts = metrics_.tenants[request.tenant];
  ++ts.submitted;

  RequestResult r;
  r.tenant = request.tenant;
  r.admit = request.arrival;
  auto fail_now = [&](std::string why) {
    r.status = RequestStatus::kFailed;
    r.error = std::move(why);
    ++ts.failed;
    results_.emplace(ticket.id, std::move(r));
    ticket.status = RequestStatus::kFailed;
    return ticket;
  };

  // Invalid shapes fail immediately — they would fail on every card.
  // (CheckError covers general-program structural faults such as an
  // initial_field of the wrong size.)
  std::string invalid;
  try {
    core::DeviceRunConfig vrun = cfg_.run;
    if (request.strategy) vrun.strategy = *request.strategy;
    if (request.temporal_depth > 0) vrun.temporal_depth = request.temporal_depth;
    core::validate_stencil_request(prog, vrun);
  } catch (const ApiError& e) {
    invalid = e.what();
  } catch (const CheckError& e) {
    invalid = e.what();
  }
  if (!invalid.empty()) return fail_now(std::move(invalid));

  // Capacity triage: a shape whose session buffers exceed every card's DRAM
  // is not a failure — it is a sharded multi-card session. Find the smallest
  // group (each card holding its slab plus deep-halo overlap) that fits the
  // pool's TIGHTEST card, since the group may be drawn from any idle cards;
  // only when no group fits does the request fail.
  int shard_n = 0;
  {
    const std::uint32_t w = prog.width;
    const std::uint32_t h = prog.height;
    // Grid images a session must hold per slot: per field one image, plus a
    // second parity for written fields.
    std::uint64_t grids = 0;
    for (int f = 0; f < static_cast<int>(prog.fields.size()); ++f) {
      grids += prog.written_pass(f) >= 0 ? 2 : 1;
    }
    std::uint64_t max_budget = 0;
    std::uint64_t min_budget = 0;
    int pool = 0;
    for (const auto& c : cards_) {
      if (c->retired) continue;
      // 7/8 of DRAM: headroom for alignment and the allocator's metadata.
      const std::uint64_t budget = c->spec.dram_total_bytes() / 8 * 7;
      max_budget = std::max(max_budget, budget);
      min_budget = pool == 0 ? budget : std::min(min_budget, budget);
      ++pool;
    }
    const std::uint64_t needed =
        grids * core::PaddedLayout(w, h).bytes();
    if (max_budget != 0 && needed > max_budget) {
      const auto strat = request.strategy.value_or(cfg_.run.strategy);
      const int depth = request.temporal_depth > 0 ? request.temporal_depth
                                                   : cfg_.run.temporal_depth;
      const int k = strat == core::DeviceStrategy::kTemporal ? depth : 1;
      const bool shardable =
          (strat == core::DeviceStrategy::kRowChunk ||
           strat == core::DeviceStrategy::kTemporal) &&
          prog.passes.size() == 1;
      std::string why;
      if (!shardable) {
        why = "shape exceeds one card's DRAM and the program cannot shard "
              "(multi-pass or non-row-chunk/temporal strategy)";
      } else {
        for (int n = 2; n <= pool; ++n) {
          const std::uint32_t owned = (h + static_cast<std::uint32_t>(n) - 1) /
                                      static_cast<std::uint32_t>(n);
          if (h / static_cast<std::uint32_t>(n) <
              static_cast<std::uint32_t>(std::max(k, cfg_.run.cores_y)))
            break;  // slabs too thin for the halo protocol / core grid
          const std::uint64_t slab =
              grids * core::PaddedLayout(
                          w, owned + 2 * static_cast<std::uint32_t>(k - 1))
                          .bytes();
          if (slab <= min_budget) {
            shard_n = n;
            break;
          }
        }
        if (shard_n == 0) why = "shape exceeds the pool's combined capacity";
      }
      if (shard_n == 0) return fail_now(std::move(why));
      ++metrics_.sharded_sessions;
    }
  }

  // SLO admission: when history says the deadline cannot be met even if
  // everything goes right, rejecting now is kinder than a guaranteed miss.
  // retry_after = 0: resubmitting the same deadline is pointless.
  if (cfg_.slo_admission && request.deadline != 0) {
    const SimTime eta = estimate_completion(request);
    if (eta != 0 && eta > request.deadline) {
      r.status = RequestStatus::kRejected;
      ++ts.rejected;
      ++metrics_.infeasible_rejects;
      record_span(sim::TraceEventKind::kServeReject, request.arrival, 0,
                  tenant_track(request.tenant), ticket.id);
      results_.emplace(ticket.id, std::move(r));
      ticket.status = RequestStatus::kRejected;
      ticket.retry_after = 0;
      return ticket;
    }
  }

  // Backpressure: a full pending queue rejects with a retry-after hint
  // instead of queueing unboundedly — unless shedding is on and a
  // lower-priority queued request can make room for this one.
  if (pending_.size() >= cfg_.queue_capacity) {
    std::uint64_t victim = 0;
    if (cfg_.shed_low_priority) {
      // Lowest priority strictly below the newcomer; newest such entry
      // (its investment-so-far is smallest). Never shed a request that has
      // already run a segment — its checkpoint represents paid-for work.
      int victim_prio = request.priority;
      for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        const Pending& p = requests_.at(*it);
        if (p.iterations_done > 0) continue;
        if (p.req.priority < victim_prio) {
          victim_prio = p.req.priority;
          victim = *it;
        }
      }
    }
    if (victim != 0) {
      dequeue(victim, service_now_);
      auto& vr = results_.at(victim);
      vr.status = RequestStatus::kRejected;
      vr.retry_after = service_now_ + backpressure_hint();
      ++metrics_.tenants[vr.tenant].rejected;
      ++metrics_.shed;
      record_span(sim::TraceEventKind::kServeReject, service_now_, 0,
                  tenant_track(vr.tenant), victim);
      requests_.erase(victim);
    } else {
      r.status = RequestStatus::kRejected;
      ++ts.rejected;
      record_span(sim::TraceEventKind::kServeReject, request.arrival, 0,
                  tenant_track(request.tenant), ticket.id);
      ticket.status = RequestStatus::kRejected;
      ticket.retry_after = service_now_ + backpressure_hint();
      r.retry_after = ticket.retry_after;
      results_.emplace(ticket.id, std::move(r));
      return ticket;
    }
  }

  record_span(sim::TraceEventKind::kServeAdmit, request.arrival, 0,
              tenant_track(request.tenant), ticket.id);
  results_.emplace(ticket.id, std::move(r));
  ++wait_edges_[request.arrival];
  Pending p;
  p.req = std::move(request);  // invalidates `prog`
  p.key = effective_key(p);
  p.shard_cards = shard_n;
  requests_.emplace(ticket.id, std::move(p));
  pending_.push_back(ticket.id);
  return ticket;
}

// ---------------------------------------------------------------------------
// Sessions

int StencilService::card_capacity(int card) const {
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  const int usable = static_cast<int>(cards_[static_cast<std::size_t>(card)]
                                          ->device->usable_workers().size());
  return std::min(usable / slot, cfg_.max_batch);
}

CardHealth StencilService::card_health(int card) const {
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  return cards_[static_cast<std::size_t>(card)]->health;
}

const sim::DeviceSpec& StencilService::card_spec(int card) const {
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  return cards_[static_cast<std::size_t>(card)]->spec;
}

SimTime StencilService::ewma_cost(std::uint64_t program,
                                  const std::string& spec_name) const {
  const auto it = ewma_batch_.find({program, spec_name});
  return it == ewma_batch_.end() ? 0 : it->second;
}

std::vector<verify::Finding> StencilService::verify_findings() const {
  std::vector<verify::Finding> all;
  for (const auto& card : cards_) {
    const verify::Verifier* v = card->device->verifier();
    if (v == nullptr) continue;
    all.insert(all.end(), v->findings().begin(), v->findings().end());
  }
  return all;
}

StencilService::Session& StencilService::session(
    Card& card, const ShapeKey& key, const core::GeneralStencilProblem& head) {
  auto it = card.sessions.find(key);
  if (it != card.sessions.end()) {
    ++metrics_.session_cache_hits;
    return *it->second;
  }
  ++metrics_.session_cache_misses;
  TTSIM_CHECK_MSG(key.program == head.transition_hash(),
                  "session key does not match the request's program");

  auto s = std::make_unique<Session>(key);
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  const auto usable = card.device->usable_workers();
  const int groups = card_capacity(card.index);
  TTSIM_CHECK_MSG(groups >= 1, "session built on a card with no capacity");
  for (int g = 0; g < groups; ++g) {
    s->groups.emplace_back(usable.begin() + static_cast<std::ptrdiff_t>(g) * slot,
                           usable.begin() + static_cast<std::ptrdiff_t>(g + 1) * slot);
  }

  s->nfields = static_cast<int>(head.fields.size());
  for (int bank = 0; bank < 2; ++bank) {
    for (int g = 0; g < groups; ++g) {
      std::ostringstream name;
      name << "serve-c" << card.index << '-' << key.width << 'x' << key.height
           << "-i" << key.iterations << "-p" << std::hex << key.program << std::dec
           << "-bank" << bank << "-slot" << g;
      s->banks[static_cast<std::size_t>(bank)].emplace_back(*card.device, head,
                                                            cfg_.run, name.str());
    }
  }
  auto& ref = *s;
  card.sessions.emplace(key, std::move(s));
  return ref;
}

// ---------------------------------------------------------------------------
// Scheduling

void StencilService::fail_request(std::uint64_t id, const std::string& why) {
  auto& r = results_.at(id);
  r.status = RequestStatus::kFailed;
  r.error = why;
  ++metrics_.tenants[r.tenant].failed;
  requests_.erase(id);
}

bool StencilService::fail_if_expired(std::uint64_t id, SimTime t) {
  const Pending& p = requests_.at(id);
  if (p.req.deadline == 0 || p.req.deadline >= t) return false;
  results_.at(id).deadline_missed = true;
  ++metrics_.tenants[p.req.tenant].deadline_missed;
  fail_request(id, "deadline passed before dispatch");
  return true;
}

void StencilService::complete(std::uint64_t id, SimTime at, std::vector<float> solution) {
  auto& r = results_.at(id);
  const Pending& p = requests_.at(id);
  r.status = RequestStatus::kCompleted;
  r.completed = at;
  r.latency = at - r.admit;
  TenantStats& ts = metrics_.tenants[r.tenant];
  if (p.req.deadline != 0 && at > p.req.deadline) {
    r.deadline_missed = true;
    ++ts.deadline_missed;
  }
  r.solution = std::move(solution);
  ++ts.completed;
  ts.latencies.push_back(r.latency);
  requests_.erase(id);
}

void StencilService::requeue_checkpointed(std::uint64_t id, SimTime at, int card) {
  Pending& p = requests_.at(id);
  p.ckpt_card = card;
  p.key = effective_key(p);
  // Causality across skewed card clocks: the next segment must not
  // dispatch (on any card) before this one's state was read back.
  p.req.arrival = std::max(p.req.arrival, at);
  ++metrics_.checkpoints_taken;
  metrics_.checkpoint_bytes += p.ckpt.bytes();
  // The front of the queue, so a long solve is not starved by traffic that
  // arrived while its segment ran.
  pending_.push_front(id);
}

void StencilService::penalize(Card& card, SimTime at) {
  // The first failure degrades the card; a streak quarantines it (the
  // scheduler stops feeding it until a probe passes).
  card.clean_streak = 0;
  ++card.consecutive_failures;
  if (card.consecutive_failures >= cfg_.health.quarantine_after) {
    if (card.health != CardHealth::kQuarantined) ++metrics_.quarantines;
    card.health = CardHealth::kQuarantined;
    card.probe_at = at + cfg_.health.probe_after;
  } else if (card.health == CardHealth::kHealthy) {
    card.health = CardHealth::kDegraded;
  }
}

void StencilService::requeue_or_fail(std::uint64_t id, const std::string& why,
                                     bool retryable, SimTime at) {
  auto& r = results_.at(id);
  Pending& p = requests_.at(id);
  const bool expired = p.req.deadline != 0 && p.req.deadline <= at;
  if (!retryable || r.retries >= cfg_.max_retries || expired) {
    if (expired) {
      r.deadline_missed = true;
      ++metrics_.tenants[p.req.tenant].deadline_missed;
    }
    fail_request(id, why);
    return;
  }
  // A victim with a checkpoint resumes from it: only the lost segment
  // re-runs.
  ++r.retries;
  metrics_.iterations_saved += static_cast<std::uint64_t>(p.iterations_done);
  // The retried segment must not dispatch before the failure was observed.
  p.req.arrival = std::max(p.req.arrival, at);
  r.card = -1;
  r.batch_size = 0;
  pending_.push_front(id);
}

void StencilService::dequeue(std::uint64_t id, SimTime t) {
  pending_.erase(std::find(pending_.begin(), pending_.end(), id));
  Pending& p = requests_.at(id);
  if (!p.waiting) return;
  p.waiting = false;
  // Leaving at or before arrival (a request shed or failed ahead of its
  // arrival time) never counted as waiting.
  --wait_edges_[std::max(t, p.req.arrival)];
}

bool StencilService::dispatch_on(Card& card) {
  if (pending_.empty() || card.inflight.size() >= kPipelineDepth) return false;
  SimTime t = card.device->now();

  auto eligible_ids = [&](SimTime at) {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id : pending_) {
      const Pending& p = requests_.at(id);
      // Sharded sessions dispatch through dispatch_sharded (a card GROUP),
      // never through a single card's batch pipeline.
      if (p.shard_cards != 0) continue;
      if (p.req.arrival <= at) ids.push_back(id);
    }
    return ids;
  };
  std::vector<std::uint64_t> eligible = eligible_ids(t);
  if (eligible.empty()) {
    // Nothing has arrived on this card's clock. A busy card will catch up
    // when its batches are harvested; an idle one fast-forwards to the next
    // arrival (the engine just advances its clock — there is nothing to run).
    if (!card.inflight.empty()) return false;
    SimTime earliest = 0;
    bool first = true;
    for (std::uint64_t id : pending_) {
      const SimTime a = requests_.at(id).req.arrival;
      if (first || a < earliest) earliest = a;
      first = false;
    }
    if (earliest > t) card.device->hw().engine().run_until(earliest);
    t = card.device->now();
    eligible = eligible_ids(t);
    if (eligible.empty()) return false;
  }

  // Head choice: highest priority first; within it, round-robin over the
  // tenants that have eligible work (fair share), FIFO within a tenant.
  int top = requests_.at(eligible.front()).req.priority;
  for (std::uint64_t id : eligible) top = std::max(top, requests_.at(id).req.priority);
  std::vector<int> tenants;
  for (std::uint64_t id : eligible) {
    const Pending& p = requests_.at(id);
    if (p.req.priority != top) continue;
    if (std::find(tenants.begin(), tenants.end(), p.req.tenant) == tenants.end())
      tenants.push_back(p.req.tenant);
  }
  std::sort(tenants.begin(), tenants.end());
  TTSIM_CHECK(!tenants.empty());  // a top-priority request always exists
  int head_tenant = tenants.front();
  for (int tenant : tenants) {
    if (tenant >= rr_cursor_) {
      head_tenant = tenant;
      break;
    }
  }
  rr_cursor_ = head_tenant + 1;

  std::uint64_t head = 0;
  for (std::uint64_t id : eligible) {
    const Pending& p = requests_.at(id);
    if (p.req.priority == top && p.req.tenant == head_tenant) {
      head = id;
      break;
    }
  }
  const ShapeKey key = requests_.at(head).key;

  // Capacity: a card that cannot field even one slot of this shape leaves
  // it for a capable card; when no card can — now or after a readmission
  // probe — the request fails.
  if (card_capacity(card.index) < 1) {
    bool anyone = false;
    for (const auto& other : cards_) {
      if (other->retired) continue;
      if (card_capacity(other->index) >= 1 ||
          (other->health == CardHealth::kQuarantined && cfg_.health.heal_on_probe)) {
        anyone = true;
      }
    }
    if (!anyone) {
      dequeue(head, t);
      fail_request(head, "no card has enough usable workers for this shape");
      return true;
    }
    return false;
  }

  Session& s = session(card, key, *requests_.at(head).req.general);
  const int nf = s.nfields;
  const int max_slots =
      std::min(static_cast<int>(s.groups.size()), cfg_.max_batch);

  // Coalesce: fill the batch with same-shape eligible requests in priority /
  // FIFO order, starting from the head. Dispatch-time deadline misses fail
  // here rather than wasting a slot.
  std::vector<std::uint64_t> members{head};
  for (std::uint64_t id : eligible) {
    if (static_cast<int>(members.size()) >= max_slots) break;
    if (id == head) continue;
    const Pending& p = requests_.at(id);
    if (p.key != key) continue;
    members.push_back(id);
  }
  std::vector<std::uint64_t> batch;
  for (std::uint64_t id : members) {
    dequeue(id, t);
    if (!fail_if_expired(id, t)) batch.push_back(id);
  }
  if (batch.empty()) return true;  // everything expired; still progress

  const int b = static_cast<int>(batch.size());
  const int bank = s.next_bank;
  s.next_bank ^= 1;

  // The three-queue pipeline: writes on 0, the program on 1, reads on 2,
  // ordered by events. Nothing blocks here; the timeline materialises when
  // the card is driven at harvest.
  auto& dev = *card.device;
  auto& cq_write = dev.command_queue(0);
  auto& cq_kernel = dev.command_queue(1);
  auto& cq_read = dev.command_queue(2);

  auto& grids = s.banks[static_cast<std::size_t>(bank)];

  InFlight fl;
  fl.members = batch;
  fl.key = key;
  fl.bank = bank;
  fl.dispatched = t;
  for (int g = 0; g < b; ++g) {
    Pending& p = requests_.at(batch[static_cast<std::size_t>(g)]);
    auto& rr = results_.at(batch[static_cast<std::size_t>(g)]);
    const core::GeneralStencilProblem& prog = *p.req.general;
    for (int f = 0; f < nf; ++f) {
      // A written field resumes from its checkpoint, so the remaining
      // sweeps continue the solve bit-exactly on whichever card this is; a
      // fresh start or a read-only field stages THIS request's physics.
      std::vector<bfloat16_t> built;
      grids[static_cast<std::size_t>(g)].stage(f, p.ckpt.restore(prog, f, built),
                                               cq_write, /*blocking=*/false);
    }
    if (p.iterations_done > 0 && p.ckpt_card != card.index) {
      ++metrics_.migrations;
      ++rr.migrations;
    }
  }
  fl.write_done = cq_write.record_event();

  // Bind every slot for the launch, then compile (or reuse) the batch
  // program for (bank, B). Freshly staged grids bind in allocation order,
  // so a compiled program's addresses hold for every later batch. Any
  // member stands in for the key's program: same key, same structure, same
  // kernels. The launch runs the key's segment length (checkpointed solves
  // dispatch shorter tails).
  std::vector<core::GeneralBatchSlot> slots;
  for (int g = 0; g < b; ++g) {
    slots.push_back(grids[static_cast<std::size_t>(g)].bind(
        key.iterations, s.groups[static_cast<std::size_t>(g)]));
  }
  const auto pkey = std::make_pair(bank, b);
  auto pit = s.programs.find(pkey);
  if (pit == s.programs.end()) {
    // Only the structure counts: boundary values and initial fields are
    // staged data.
    core::GeneralStencilProblem shape = *requests_.at(batch.front()).req.general;
    shape.iterations = key.iterations;
    auto prog = std::make_unique<ttmetal::Program>();
    core::build_batched_stencil_program(*prog, shape, run_for(key), slots);
    pit = s.programs.emplace(pkey, std::move(prog)).first;
  }
  cq_kernel.wait_for_event(fl.write_done);
  cq_kernel.enqueue_program(*pit->second, /*blocking=*/false);
  fl.kernel_done = cq_kernel.record_event();
  cq_read.wait_for_event(fl.kernel_done);
  fl.outputs.resize(static_cast<std::size_t>(b));
  fl.continues.assign(static_cast<std::size_t>(b), 0);
  for (int g = 0; g < b; ++g) {
    const Pending& p = requests_.at(batch[static_cast<std::size_t>(g)]);
    const core::GeneralStencilProblem& prog = *p.req.general;
    const bool cont = p.iterations_done + key.iterations < prog.iterations;
    fl.continues[static_cast<std::size_t>(g)] = cont ? 1 : 0;
    // A mid-solve segment reads back EVERY written field — together they
    // are the whole numerical state, the next segment's checkpoints; a
    // final one reads the primary field it delivers. Each at the segment's
    // fresh grid. (The outer vector is sized first so the async reads'
    // destinations never move.)
    auto& outs = fl.outputs[static_cast<std::size_t>(g)];
    outs.resize(static_cast<std::size_t>(nf));
    for (int f = 0; f < nf; ++f) {
      if (cont ? prog.written_pass(f) < 0 : f != prog.primary_field()) continue;
      auto& out = outs[static_cast<std::size_t>(f)];
      out.resize(s.layout.elems());
      grids[static_cast<std::size_t>(g)].read(f, out, cq_read, /*blocking=*/false);
    }
  }
  fl.read_done = cq_read.record_event();

  ++metrics_.batches;
  metrics_.batched_requests += static_cast<std::uint64_t>(b);
  for (std::uint64_t id : batch) {
    auto& r = results_.at(id);
    r.card = card.index;
    r.batch_size = b;
    if (requests_.at(id).iterations_done == 0) {
      r.dispatched = t;
      record_span(sim::TraceEventKind::kServeQueueWait, r.admit, t - r.admit,
                  tenant_track(r.tenant), id);
    }
  }
  card.inflight.push_back(std::move(fl));
  return true;
}

// ---------------------------------------------------------------------------
// Sharded multi-card sessions

bool StencilService::dispatch_sharded(std::uint64_t id) {
  Pending& p = requests_.at(id);
  const int n = p.shard_cards;
  TTSIM_CHECK(n >= 2);

  // When the pool can never field the group again, fail now rather than
  // stalling drain() forever. A quarantined card still counts if a probe
  // could heal it back.
  int possible = 0;
  for (const auto& c : cards_) {
    if (c->retired) continue;
    if (card_capacity(c->index) >= 1 ||
        (c->health == CardHealth::kQuarantined && cfg_.health.heal_on_probe)) {
      ++possible;
    }
  }
  if (possible < n) {
    dequeue(id, now());
    fail_request(id, "not enough usable cards left for the sharded group");
    return true;
  }

  // Group formation: idle cards only — the group runs the whole segment
  // synchronously in lockstep, so a card with batches in flight would stall
  // its neighbours. Healthy cards are drafted before degraded ones, in index
  // order within a class (deterministic).
  std::vector<Card*> group;
  for (auto& c : cards_) {
    if (c->retired || c->health == CardHealth::kQuarantined) continue;
    if (!c->inflight.empty()) continue;
    if (card_capacity(c->index) < 1) continue;
    group.push_back(c.get());
  }
  std::stable_sort(group.begin(), group.end(),
                   [](const Card* a, const Card* b) {
                     return (a->health == CardHealth::kHealthy ? 0 : 1) <
                            (b->health == CardHealth::kHealthy ? 0 : 1);
                   });
  if (static_cast<int>(group.size()) < n) return false;  // wait for harvests
  group.resize(static_cast<std::size_t>(n));

  // Align the group's clocks at the segment start (a future arrival
  // fast-forwards the idle group, exactly like dispatch_on's idle path).
  SimTime t0 = std::max(service_now_, p.req.arrival);
  for (Card* c : group) t0 = std::max(t0, c->device->now());
  for (Card* c : group) c->device->hw().engine().run_until(t0);

  dequeue(id, t0);
  if (fail_if_expired(id, t0)) return true;
  auto& rr = results_.at(id);

  std::vector<int> gids;
  std::vector<ttmetal::Device*> devs;
  for (Card* c : group) {
    // The slab buffers need the card's DRAM to themselves; cached
    // single-card sessions (idle by construction) give their buffers back.
    c->sessions.clear();
    gids.push_back(c->index);
    devs.push_back(c->device.get());
  }

  const ShapeKey key = p.key;
  core::ShardedRunConfig scfg;
  scfg.run = run_for(key);
  scfg.exchange_every = 0;  // the strategy's natural epoch
  scfg.verify = false;

  // A per-group fabric: positions are group slots, global card ids name the
  // trace tracks and fault hooks. Link parameters come from the group
  // head's family spec.
  sim::ChipLinkFabric fabric(n, sim::ChipLinkConfig::from_spec(group.front()->spec),
                             gids);

  if (p.iterations_done == 0) {
    rr.dispatched = t0;
    record_span(sim::TraceEventKind::kServeQueueWait, rr.admit, t0 - rr.admit,
                tenant_track(rr.tenant), id);
  } else if (p.group != gids) {
    // The resumed segment landed on a different card group: the sealed
    // GLOBAL checkpoint is what makes that legal.
    ++metrics_.migrations;
    ++rr.migrations;
  }

  try {
    // The runner resumes from the checkpoint and, on success, seals the
    // segment's final state into it.
    core::GeneralStencilProblem prog = *p.req.general;
    const int total = prog.iterations;
    prog.iterations = key.iterations;
    core::ShardedRunResult res =
        core::run_general_sharded(devs, fabric, prog, scfg, &p.ckpt);

    SimTime end = t0;
    for (ttmetal::Device* d : devs) end = std::max(end, d->now());
    ++metrics_.sharded_segments;
    metrics_.sharded_link_bytes += res.link_bytes;
    record_span(sim::TraceEventKind::kServeKernel, t0, end - t0,
                card_track(gids.front()), id, n);

    p.iterations_done += key.iterations;
    p.group = gids;
    rr.card = gids.front();
    rr.group = gids;
    rr.batch_size = 1;
    if (p.iterations_done < total) {
      // The whole-domain state is sealed, so the next segment may run on
      // ANY group of idle cards.
      requeue_checkpointed(id, end, gids.front());
    } else {
      complete(id, end, std::move(res.solution));
    }
    return true;
  } catch (const SimError& e) {
    // Group-wide recovery: reopen EVERY card (the segment may have wedged
    // any of their queues), but penalise only the cards that come back
    // short of a slot — a link fault is nobody's silicon.
    SimTime fail_now = t0;
    for (ttmetal::Device* d : devs) fail_now = std::max(fail_now, d->now());
    for (Card* c : group) {
      ++metrics_.card_reopens;
      metrics_.commands_cancelled += c->device->cancel_queues();
      reopen_card(*c, fail_now);
      if (card_capacity(c->index) < 1) penalize(*c, fail_now);
    }
    requeue_or_fail(id, e.what(), e.retryable(), fail_now);
    return true;
  } catch (const ApiError& e) {
    // Structural rejection from the sharded runner (infeasible
    // decomposition): the request fails, the cards are untouched.
    fail_request(id, e.what());
    return true;
  }
}

void StencilService::note_clean_harvest(Card& card) {
  card.consecutive_failures = 0;
  if (card.health == CardHealth::kDegraded) {
    if (++card.clean_streak >= cfg_.health.readmit_successes) {
      card.health = CardHealth::kHealthy;
      card.clean_streak = 0;
    }
  }
}

void StencilService::harvest_one(Card& card) {
  TTSIM_CHECK(!card.inflight.empty());
  try {
    card.device->synchronize(card.inflight.front().read_done);
  } catch (const SimError& e) {
    // One catch for the whole fault taxonomy: watchdog timeouts, transfer
    // retry exhaustion and engine deadlocks are retryable (the victims
    // requeue onto a fresh generation); a violated invariant is not.
    handle_card_failure(card, e.what(), e.retryable());
    return;
  }
  note_clean_harvest(card);

  InFlight fl = std::move(card.inflight.front());
  card.inflight.pop_front();
  Session& s = *card.sessions.at(fl.key);
  const int b = static_cast<int>(fl.members.size());
  const SimTime h2d_end = fl.write_done.completed_at();
  const SimTime kernel_end = fl.kernel_done.completed_at();
  const SimTime d2h_end = fl.read_done.completed_at();
  const int track = card_track(card.index);
  record_span(sim::TraceEventKind::kServeH2D, fl.dispatched, h2d_end - fl.dispatched,
              track, fl.members.front(), b);
  record_span(sim::TraceEventKind::kServeKernel, h2d_end, kernel_end - h2d_end,
              track, fl.members.front(), b);
  record_span(sim::TraceEventKind::kServeD2H, kernel_end, d2h_end - kernel_end,
              track, fl.members.front(), b);

  // Batch service time feeds the SLO admission estimate (integer EWMA,
  // newest sample weighted 1/4 — smooth but responsive, and deterministic),
  // keyed by (program, spec) so unlike-cost workloads keep separate
  // histories and a Wormhole's samples never pollute a Grayskull's.
  const SimTime sample = d2h_end - fl.dispatched;
  SimTime& ewma = ewma_batch_[{fl.key.program, card.spec.name}];
  ewma = ewma == 0 ? sample : (3 * ewma + sample) / 4;

  // Finishing members complete in slot order; mid-solve ones seal their
  // readback (every written field's full padded image) as their checkpoint
  // and requeue, in reverse so the queue front keeps slot order. The next
  // segment may land on any card (migration).
  std::vector<std::size_t> continuing;
  for (std::size_t g = 0; g < fl.members.size(); ++g) {
    const std::uint64_t id = fl.members[g];
    Pending& p = requests_.at(id);
    p.iterations_done += fl.key.iterations;
    if (fl.continues[g] != 0) {
      continuing.push_back(g);
      continue;
    }
    const auto& out =
        fl.outputs[g][static_cast<std::size_t>(p.req.general->primary_field())];
    complete(id, d2h_end, s.layout.extract_interior(out));
  }
  for (auto it = continuing.rbegin(); it != continuing.rend(); ++it) {
    Pending& p = requests_.at(fl.members[*it]);
    p.ckpt.seal(*p.req.general, std::move(fl.outputs[*it]));
    requeue_checkpointed(fl.members[*it], d2h_end, card.index);
  }
}

void StencilService::reopen_card(Card& card, SimTime resume_at) {
  // Sessions hold the card's buffers and compiled programs; they must be
  // torn down before the device they were built on.
  card.sessions.clear();
  card.device.reset();
  // Reopen: the card's FaultPlan spans generations, so a failed core stays
  // failed (unless a probe healed it) and the next session on this card
  // shrinks its batch width accordingly.
  card.device = ttmetal::Device::open(card.spec, card.dev_cfg);
  // A reboot does not rewind time: restore the card clock so service
  // latencies stay monotone.
  card.device->hw().engine().run_until(resume_at);
}

void StencilService::handle_card_failure(Card& card, const std::string& why,
                                         bool retryable) {
  ++metrics_.card_reopens;
  const SimTime old_now = card.device->now();
  penalize(card, old_now);

  std::vector<std::uint64_t> victims;
  for (const auto& fl : card.inflight)
    for (std::uint64_t id : fl.members) victims.push_back(id);
  card.inflight.clear();
  // Drop what never started off the wedged queues (and clear the parked
  // host error) so teardown does not trip over half-enqueued work.
  metrics_.commands_cancelled += card.device->cancel_queues();
  reopen_card(card, old_now);

  // Oldest-first victims requeue to the *front* of the pending queue in
  // their original order (reverse iteration + push_front).
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
    requeue_or_fail(*it, why, retryable, old_now);
  }
}

void StencilService::probe_card(Card& card) {
  ++metrics_.probes;
  const SimTime at = std::max(card.device->now(), card.probe_at);
  if (cfg_.health.heal_on_probe && card.dev_cfg.fault_plan != nullptr) {
    // Field service resets the flapping card's transient core faults; kills
    // scripted for later times survive, so a card can flap repeatedly.
    card.dev_cfg.fault_plan->heal_dead_cores(at);
  }
  reopen_card(card, at);
  if (card_capacity(card.index) >= 1) {
    // Readmit on probation: degraded until readmit_successes clean harvests.
    card.health = CardHealth::kDegraded;
    card.consecutive_failures = 0;
    card.clean_streak = 0;
    ++metrics_.readmissions;
    return;
  }
  if (cfg_.health.heal_on_probe) {
    card.probe_at = at + cfg_.health.probe_after;  // the flap may clear later
  } else {
    card.retired = true;  // dead silicon, no field service: written off
  }
}

bool StencilService::step() {
  bool progress = false;
  // Readmission probes due on the service clock run first, so a recovered
  // card is back in the pool before this step's dispatch decisions.
  const SimTime tnow = now();
  for (auto& c : cards_) {
    if (c->health == CardHealth::kQuarantined && !c->retired &&
        tnow >= c->probe_at) {
      probe_card(*c);
      progress = true;
    }
  }
  // Sharded sessions dispatch first: a group of idle cards is easiest to
  // assemble before the single-card scheduler parcels them out. Ids are
  // snapshotted because a dispatched segment rewrites the queue.
  auto try_sharded = [&](bool allow_future) {
    bool any = false;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t sid : pending_) {
      const Pending& p = requests_.at(sid);
      if (p.shard_cards == 0) continue;
      if (!allow_future && p.req.arrival > tnow) continue;
      ids.push_back(sid);
    }
    for (std::uint64_t sid : ids) {
      if (std::find(pending_.begin(), pending_.end(), sid) == pending_.end())
        continue;
      if (dispatch_sharded(sid)) any = true;
    }
    return any;
  };
  if (try_sharded(/*allow_future=*/false)) progress = true;
  // Dispatch onto the best available card for as long as batches can be
  // formed. Health first (steer away from degraded cards), then fewest
  // batches in flight, then the clock furthest behind. Load before clock
  // matters for a same-instant wave: dispatching does not advance a card's
  // clock, so a clock-only rule would stack the wave onto card 0 up to
  // pipeline depth before the rest of the pool saw any work.
  while (!pending_.empty()) {
    Card* best = nullptr;
    auto rank = [](const Card& c) {
      return std::make_tuple(c.health == CardHealth::kDegraded ? 1 : 0,
                             c.inflight.size(), c.device->now());
    };
    for (auto& c : cards_) {
      if (c->retired || c->health == CardHealth::kQuarantined) continue;
      if (c->inflight.size() >= kPipelineDepth) continue;
      if (!best || rank(*c) < rank(*best)) best = c.get();
    }
    if (!best || !dispatch_on(*best)) break;
    progress = true;
  }
  // Harvest the oldest in-flight batch across the pool.
  Card* oldest = nullptr;
  for (auto& c : cards_) {
    if (c->inflight.empty()) continue;
    if (!oldest ||
        c->inflight.front().dispatched < oldest->inflight.front().dispatched)
      oldest = c.get();
  }
  if (oldest) {
    harvest_one(*oldest);
    progress = true;
  }
  // Stall guard: work is queued but every card is quarantined. Fast-forward
  // the service clock to the earliest probe and run it; when no card can
  // ever come back, fail the queue instead of spinning. A sharded request
  // whose arrival is still in the future gets one more chance first — an
  // idle group fast-forwards to it.
  if (!progress && !pending_.empty() &&
      try_sharded(/*allow_future=*/true)) {
    progress = true;
  }
  if (!progress && !pending_.empty()) {
    Card* next_probe = nullptr;
    for (auto& c : cards_) {
      if (c->health != CardHealth::kQuarantined || c->retired) continue;
      if (!next_probe || c->probe_at < next_probe->probe_at)
        next_probe = c.get();
    }
    if (next_probe != nullptr) {
      service_now_ = std::max(service_now_, next_probe->probe_at);
      probe_card(*next_probe);
      progress = true;
    } else {
      bool any_usable = false;
      for (const auto& c : cards_) {
        if (!c->retired && c->health != CardHealth::kQuarantined)
          any_usable = true;
      }
      if (!any_usable) {
        while (!pending_.empty()) {
          const std::uint64_t id = pending_.front();
          dequeue(id, now());
          fail_request(id, "no usable card left in the pool");
        }
        progress = true;
      }
    }
  }
  return progress;
}

void StencilService::drain() {
  while (step()) {
  }
  TTSIM_CHECK_MSG(pending_.empty(), "drain() finished with requests still queued");
}

const RequestResult& StencilService::result(std::uint64_t ticket_id) const {
  auto it = results_.find(ticket_id);
  if (it == results_.end()) TTSIM_THROW_API("unknown ticket id " << ticket_id);
  return it->second;
}

const ServiceMetrics& StencilService::metrics() const {
  // Only requests that have arrived wait: an open-loop trace submitted up
  // front sits in pending_ long before most of it arrives. Departures and
  // arrivals at one instant net out, so the peak is a prefix-sum maximum.
  std::int64_t depth = 0;
  std::int64_t peak = 0;
  for (const auto& [t, delta] : wait_edges_) peak = std::max(peak, depth += delta);
  metrics_.max_queue_depth = static_cast<std::size_t>(peak);
  return metrics_;
}

SimTime StencilService::now() const {
  SimTime t = service_now_;
  for (const auto& c : cards_) t = std::max(t, c->device->hw().engine().now());
  return t;
}

}  // namespace ttsim::serve
