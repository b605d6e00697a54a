#pragma once
/// \file trace.hpp
/// Simulator-wide event tracing. A TraceSink records typed events with
/// simulated timestamps from every layer of the model — data mover NoC
/// issues and completions, circular-buffer pushes/pops and full/empty
/// waits, semaphore and barrier waits, DRAM bank enqueue/service intervals
/// and row misses, aggregate-bus occupancy, NoC transfers, FPU operations,
/// fault injections, PCIe transfers and kernel lifetimes.
///
/// Overhead contract: the subsystem is always compiled, never sampled.
/// Every instrumentation point is guarded by a single `TraceSink*` null
/// check, so a simulation with tracing disabled pays one predictable branch
/// per hook (measured <= 1% end-to-end; see DESIGN.md "Tracing & metrics").
/// Tracing records state but never advances simulated time or touches the
/// event queue, so enabling it is observationally neutral: results and
/// simulated timings are bit-identical with tracing on or off
/// (tests/trace/test_trace_neutrality.cpp).
///
/// Because the engine is deterministic, the recorded stream is a pure
/// function of (spec, workload, fault seed): two runs of the same problem
/// produce byte-identical canonical traces, which is what the golden-trace
/// regression tests pin (tests/trace/test_golden_trace.cpp).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ttsim/sim/engine.hpp"

namespace ttsim::sim {

enum class TraceEventKind : std::uint8_t {
  kKernelStart,       ///< kernel process began executing (instant)
  kKernelEnd,         ///< kernel process returned (instant)
  kMoverReadIssue,    ///< data mover issued a NoC read; dur = issue time
  kMoverReadComplete, ///< the read's data landed in L1 (instant)
  kMoverWriteIssue,   ///< data mover issued a NoC write; dur = issue time
  kMoverWriteComplete,///< the write drained / was acknowledged (instant)
  kMoverMemcpy,       ///< baby-core software memcpy; dur = copy time
  kCbPush,            ///< producer committed pages; b = occupancy after
  kCbPop,             ///< consumer freed pages; b = occupancy after
  kCbFullWait,        ///< producer blocked for space; dur = blocked time
  kCbEmptyWait,       ///< consumer blocked for data; dur = blocked time
  kSemPost,           ///< semaphore post (instant)
  kSemWait,           ///< blocked semaphore wait; dur = blocked time
  kReadBarrierWait,   ///< noc_async_read_barrier blocked; dur = blocked time
  kWriteBarrierWait,  ///< noc_async_write_barrier blocked; dur = blocked time
  kGlobalBarrierWait, ///< device-wide barrier rendezvous; dur = blocked time
  kFpuOp,             ///< FPU math/pack operation; dur = operation time
  kDramEnqueue,       ///< request arrived at a bank; dur = queueing delay
  kDramService,       ///< bank busy interval for one segment; dur = occupancy
  kDramRowMiss,       ///< row re-activation penalty charged (instant)
  kDramAggregate,     ///< aggregate DDR bus occupancy; dur = transfer time
  kNocTransfer,       ///< payload transited a NoC; dur = link occupancy
  kFault,             ///< fault injection fired; a = FaultKind
  kPcieTransfer,      ///< host<->device transfer attempt; dur = bus time
  kDramBankPipe,      ///< cmd-stage occupancy under pipelined bank service
                      ///< (GrayskullSpec::dram_bank_pipeline); dur = proc +
                      ///< row activation, overlapping the previous request's
                      ///< data transfer. Never emitted in serialised mode.
  // Serving-layer request spans (src/serve/). Recorded only by the
  // StencilService's private span sink, never by device workloads, so the
  // golden-trace hashes of the device benchmarks are unaffected.
  kServeAdmit,        ///< request accepted into a tenant queue (instant)
  kServeReject,       ///< request rejected (backpressure/deadline); a = reason
  kServeQueueWait,    ///< admit -> dispatch; dur = time queued
  kServeH2D,          ///< host->device staging of a batch; dur = PCIe time
  kServeKernel,       ///< batched kernel launch; dur = program time; b = batch
  kServeD2H,          ///< device->host readback of a batch; dur = PCIe time
  // Chip-to-chip fabric (src/sim/chiplink/). Recorded only by the
  // ChipLinkFabric's private sink on per-directed-link tracks named after
  // the global card ids ("eth/card0->card1"), so single-card golden hashes
  // are unaffected and multi-card track ids stay stable across card counts.
  kChipLinkTransfer,  ///< one link message; a = src card, b = dst card,
                      ///< bytes = payload, dur = wire + serialisation time
};

const char* to_string(TraceEventKind kind);

/// One recorded event. `track` identifies the timeline the event belongs to
/// (a baby-core kernel process, a DRAM bank, a NoC, the aggregate bus or
/// the host); the remaining fields are kind-specific:
///   core  — worker id involved, -1 when not core-attached
///   a     — cb/semaphore/bank/noc/barrier id, or FaultKind for kFault
///   b     — occupancy after a CB push/pop, pages requested for a CB wait,
///           NoC hop count, or is_write for DRAM events
///   addr  — device/DRAM/L1 address when meaningful
///   bytes — payload size in bytes
struct TraceEvent {
  SimTime ts = 0;   ///< begin time (simulated, ps)
  SimTime dur = 0;  ///< 0 = instant event
  TraceEventKind kind = TraceEventKind::kKernelStart;
  std::int32_t track = 0;
  std::int32_t core = -1;
  std::int32_t a = -1;
  std::int32_t b = 0;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
};

class TraceSink {
 public:
  explicit TraceSink(Engine& engine) : engine_(engine) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  SimTime now() const { return engine_.now(); }

  /// Intern a track name; ids are assigned in first-use order, which the
  /// deterministic engine makes reproducible across runs.
  int track(std::string_view name);
  /// Track of the currently executing process (or "host" outside process
  /// context — scheduler callbacks and host-side code).
  int current_track();
  const std::string& track_name(int id) const { return track_names_[static_cast<std::size_t>(id)]; }
  std::size_t track_count() const { return track_names_.size(); }

  /// Kind-independent payload for record(); aggregate-initialise the fields
  /// that apply (see TraceEvent for their meaning per kind).
  struct Rec {
    std::int32_t core = -1;
    std::int32_t a = -1;
    std::int32_t b = 0;
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
  };

  /// Append one event. `track_id` < 0 means "the current process's track".
  void record(TraceEventKind kind, SimTime ts, SimTime dur, const Rec& r,
              int track_id = -1) {
    TraceEvent e;
    e.ts = ts;
    e.dur = dur;
    e.kind = kind;
    e.track = track_id >= 0 ? track_id : current_track();
    e.core = r.core;
    e.a = r.a;
    e.b = r.b;
    e.addr = r.addr;
    e.bytes = r.bytes;
    events_.push_back(e);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Drop recorded events (track interning survives, so ids stay stable
  /// within one sink's lifetime). Used to scope metrics to a phase of
  /// interest, e.g. "after the setup transfers, before the kernel run".
  void clear() { events_.clear(); }

  /// Canonical one-line-per-event rendering, ordered by (timestamp, track
  /// name, record order within the track). Byte-identical across runs of the
  /// same workload — the golden-trace property — and independent of the
  /// host order in which kernels running ahead of the engine record.
  std::string canonical() const;
  /// FNV-1a 64-bit hash of canonical(); what the golden tests pin.
  std::uint64_t hash() const;

  /// Chrome trace_event JSON (the format Perfetto / chrome://tracing load):
  /// one named thread per track, "X" complete events for intervals, "i"
  /// instants, plus CB-occupancy counter tracks; events in canonical() order.
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience: write_chrome_trace to a file; throws ApiError on failure.
  void write_chrome_trace_file(const std::string& path) const;

 private:
  /// The events in canonical() order.
  std::vector<const TraceEvent*> canonical_order() const;

  Engine& engine_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> track_names_;
  std::map<std::string, int, std::less<>> track_ids_;
};

}  // namespace ttsim::sim
