#pragma once
/// \file dram.hpp
/// DRAM controller + bank timing/functional model for the simulated e150.
///
/// Timing model (constants in GrayskullSpec, calibrated in DESIGN.md):
///  * each bank is a serialised FIFO resource: a request occupies it for
///    per-request processing + transfer at the bank's bandwidth, plus a
///    row re-activation penalty when the request does not continue the
///    previous access; with GrayskullSpec::dram_bank_pipeline the
///    processing stage of a queued request instead overlaps the data
///    transfer of the request in service (in-order two-stage pipeline per
///    bank — identical timing whenever no queue forms);
///  * a global aggregate-bandwidth resource models the DDR/NoC ceiling the
///    paper hits at two streaming cores (Table VII);
///  * interleaved buffers are split at page boundaries; every page
///    sub-request additionally occupies the *requesting* DMA engine
///    (Table VI's small-page penalty);
///  * round-trip latency is added once per request.
///
/// Functional model: buffers are host-backed byte arrays registered as
/// regions. Reads copy DRAM->destination at the simulated completion time;
/// writes snapshot the source at issue and commit at completion. The
/// 256-bit alignment rule is emulated per GrayskullSpec::alignment_policy,
/// including the controller write-merging the paper inferred (contiguous
/// unaligned writes that continue the previous write land correctly;
/// non-contiguous ones corrupt).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "ttsim/sim/engine.hpp"
#include "ttsim/sim/interleave.hpp"
#include "ttsim/sim/spec.hpp"

namespace ttsim::sim {

class FaultPlan;
class TraceSink;

/// A serialised resource in virtual time (bank, DMA engine, aggregate bus).
class ResourceTimeline {
 public:
  ResourceTimeline() : id_(next_id_++) {}

  /// Claim the resource for `busy` starting no earlier than `earliest`.
  /// Returns the actual start time.
  SimTime acquire(SimTime earliest, SimTime busy) {
    const SimTime start = std::max(earliest, free_at_);
    free_at_ = start + busy;
    return start;
  }
  SimTime free_at() const { return free_at_; }

  /// Process-unique identity, stable for the timeline's whole lifetime and
  /// never recycled (unlike the object's address). Anything that keys state
  /// by "which resource was this" must use the id: a destroyed timeline's
  /// heap/stack slot can be reused by a brand-new one, and pointer-keyed
  /// state would make the newcomer inherit its predecessor's history (e.g.
  /// a write-combiner stream that silently skips write_scatter_penalty).
  std::uint64_t id() const { return id_; }

 private:
  inline static std::uint64_t next_id_ = 0;
  std::uint64_t id_;
  SimTime free_at_ = 0;
};

/// One registered DRAM allocation.
struct DramRegion {
  std::uint64_t base = 0;       ///< device address of first byte
  std::uint64_t size = 0;       ///< bytes
  int bank = 0;                 ///< serving bank; -1 when interleaved/striped
  std::uint64_t page_size = 0;  ///< interleave page / stripe; 0 for single-bank
  /// Coarse striping (per-core slab placement across banks): splits at
  /// arbitrary stripe boundaries but does not pay tt-metal's per-page DMA
  /// sub-request overhead (a request virtually never crosses a stripe).
  bool coarse = false;
  std::byte* storage = nullptr; ///< host-backed functional data
  /// Coarse regions only: deterministic round-robin stripe->bank placement
  /// (stripe % banks) instead of the default allocator-order hash. Opt-in:
  /// the hash models real per-core slab allocation, which lands unevenly
  /// (16 stripes -> a 3/2/.../1 bank split) — exactly the hot-bank wall the
  /// deep-pipelining configuration then hits; balancing removes it.
  bool balanced = false;
};

/// Per-model counters exposed for tests and bench diagnostics.
struct DramStats {
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t unaligned_reads = 0;
  std::uint64_t unaligned_writes_merged = 0;
  std::uint64_t unaligned_writes_corrupted = 0;
  std::uint64_t interleave_segments = 0;
  // Accumulated resource occupancy (diagnostics for bench calibration).
  SimTime read_bank_busy = 0;
  SimTime write_bank_busy = 0;
  SimTime dma_busy = 0;
  SimTime aggregate_busy = 0;
  /// Pipelined bank service only: segments whose processing stage ran
  /// (partly or fully) under the previous request's data transfer, and the
  /// total serialised-service time that overlap saved.
  std::uint64_t pipelined_segments = 0;
  SimTime pipeline_overlap_saved = 0;
};

class DramModel {
 public:
  DramModel(Engine& engine, const GrayskullSpec& spec);

  /// Register an allocation. Regions must not overlap. Storage must outlive
  /// the model.
  void add_region(const DramRegion& region);
  void remove_region(std::uint64_t base);

  /// Find the region containing [addr, addr+size); throws ApiError if the
  /// range is unmapped or spans regions.
  const DramRegion& region_of(std::uint64_t addr, std::uint64_t size) const;

  /// Async device-side read of `size` bytes at device address `addr` into
  /// `dst`. `dma` is the requesting data mover's DMA-engine timeline (used
  /// for interleave sub-request serialisation); `hops` the NoC distance.
  /// The functional copy happens at the simulated completion time, then
  /// `on_complete` runs (scheduler context).
  void read(std::uint64_t addr, std::byte* dst, std::uint32_t size,
            ResourceTimeline& dma, int hops, std::function<void()> on_complete);

  /// Async device-side write; `src` is snapshotted at issue.
  void write(std::uint64_t addr, const std::byte* src, std::uint32_t size,
             ResourceTimeline& dma, int hops, std::function<void()> on_complete);

  /// Functional-only host access (PCIe timing handled by the caller).
  void host_write(std::uint64_t addr, const std::byte* src, std::uint64_t size);
  void host_read(std::uint64_t addr, std::byte* dst, std::uint64_t size) const;
  /// Read-only view of [addr, addr+size) in the backing storage, valid while
  /// the region stays mapped.
  std::span<const std::byte> host_view(std::uint64_t addr, std::uint64_t size) const;

  const DramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DramStats{}; }
  const GrayskullSpec& spec() const { return spec_; }

  /// Install a fault plan consulted on every device-side access (read
  /// bit-flips, stuck banks). Pass nullptr to disable. The plan must outlive
  /// the model (Grayskull owns both).
  void set_fault_plan(FaultPlan* plan) { fault_ = plan; }

  /// Install a trace sink recording bank enqueue/service/row-miss and
  /// aggregate-bus occupancy events (tracks "dram/bank<N>", "dram/aggregate").
  /// Pass nullptr to disable; the sink must outlive the model.
  void set_trace(TraceSink* trace);

  /// The bank serving `addr` (first page's bank for interleaved regions) —
  /// used for fault attribution and stuck-bank decisions.
  int serving_bank(const DramRegion& region, std::uint64_t offset) const;

 private:
  struct Placement {
    const DramRegion* region;
    std::uint64_t offset;  ///< offset of addr within the region
  };
  Placement place(std::uint64_t addr, std::uint64_t size) const;

  /// Computes the simulated completion time of an access (shared by
  /// read/write), charging bank/aggregate/DMA resources. Leaves the
  /// access's per-bank segments in scratch_segments_.
  SimTime schedule_access(const Placement& p, std::uint64_t addr, std::uint32_t size,
                          bool is_write, ResourceTimeline& dma, int hops);

  /// Consults the fault plan for every segment the just-scheduled access
  /// touches (scratch_segments_); true when any of them lands on a stuck
  /// bank. A multi-page interleaved access must fault even when only a
  /// non-first segment crosses the stuck bank.
  bool access_hits_stuck_bank(std::uint64_t addr, std::uint32_t size, bool is_write);

  Engine& engine_;
  GrayskullSpec spec_;
  std::map<std::uint64_t, DramRegion> regions_;  // keyed by base
  /// Per-bank table of recently-open sequential streams (row-buffer /
  /// controller-prefetch model): a request continuing any tracked stream is
  /// a row hit; otherwise it pays the re-activation penalty and evicts the
  /// oldest entry. Sized so a handful of concurrent per-core streams per
  /// bank coexist (the Table VIII full-card case) while the 33 interleaved
  /// streams of the x32-replication probe still thrash (Table V).
  struct StreamTable {
    static constexpr int kEntries = 16;
    std::uint64_t end[kEntries];
    int next = 0;
    StreamTable() { std::fill(std::begin(end), std::end(end), ~0ULL); }
    /// Returns true on a hit; records the stream's new end either way.
    bool access(std::uint64_t addr, std::uint64_t new_end) {
      for (auto& e : end) {
        if (e == addr) {
          e = new_end;
          return true;
        }
      }
      end[next] = new_end;
      next = (next + 1) % kEntries;
      return false;
    }
  };

  std::vector<ResourceTimeline> banks_;      // data-transfer stage (and the
                                             // whole service when serialised)
  std::vector<ResourceTimeline> bank_cmd_;   // processing stage (pipelined mode)
  std::vector<StreamTable> bank_read_streams_;      // row-miss tracking
  std::vector<StreamTable> bank_write_streams_;     // (separate write queues)
  std::vector<std::uint64_t> bank_last_write_end_;  // write-merge tracking
  /// Write-combiner continuation per requesting DMA engine, keyed by the
  /// timeline's stable id (never by pointer: a recycled timeline address
  /// must not inherit the old engine's stream and skip the scatter penalty).
  std::map<std::uint64_t, std::uint64_t> dma_last_write_end_;
  ResourceTimeline aggregate_;
  DramStats stats_;
  FaultPlan* fault_ = nullptr;
  TraceSink* trace_ = nullptr;
  std::vector<int> bank_tracks_;  // interned trace track ids, per bank
  int agg_track_ = -1;
  std::vector<InterleaveMap::Segment> scratch_segments_;
};

}  // namespace ttsim::sim
