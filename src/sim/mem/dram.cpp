#include "ttsim/sim/dram.hpp"

#include <cstring>

#include "ttsim/common/log.hpp"
#include "ttsim/sim/fault.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::sim {

DramModel::DramModel(Engine& engine, const GrayskullSpec& spec)
    : engine_(engine),
      spec_(spec),
      banks_(static_cast<std::size_t>(spec.dram_banks)),
      bank_cmd_(static_cast<std::size_t>(spec.dram_banks)),
      bank_read_streams_(static_cast<std::size_t>(spec.dram_banks)),
      bank_write_streams_(static_cast<std::size_t>(spec.dram_banks)),
      bank_last_write_end_(static_cast<std::size_t>(spec.dram_banks), ~0ULL) {}

void DramModel::add_region(const DramRegion& region) {
  TTSIM_CHECK(region.size > 0);
  TTSIM_CHECK(region.storage != nullptr);
  if (region.page_size == 0) {
    TTSIM_CHECK_MSG(region.bank >= 0 && region.bank < spec_.dram_banks,
                    "single-bank region must name a valid bank");
  } else {
    TTSIM_CHECK_MSG(region.bank == -1, "interleaved region must use bank = -1");
    if (!region.coarse) {
      TTSIM_CHECK_MSG(is_pow2(region.page_size), "page size must be a power of two");
      TTSIM_CHECK_MSG(region.page_size <= spec_.max_interleave_page,
                      "tt-metal supports interleave pages up to 64KB");
    }
  }
  // Reject overlap with neighbours in the base-sorted map.
  auto next = regions_.lower_bound(region.base);
  if (next != regions_.end()) {
    TTSIM_CHECK_MSG(region.base + region.size <= next->second.base,
                    "DRAM regions overlap");
  }
  if (next != regions_.begin()) {
    auto prev = std::prev(next);
    TTSIM_CHECK_MSG(prev->second.base + prev->second.size <= region.base,
                    "DRAM regions overlap");
  }
  regions_.emplace(region.base, region);
}

void DramModel::set_trace(TraceSink* trace) {
  trace_ = trace;
  bank_tracks_.clear();
  agg_track_ = -1;
  if (trace_ == nullptr) return;
  // Intern the bank tracks eagerly so track ids are independent of which
  // bank happens to see traffic first.
  for (int b = 0; b < spec_.dram_banks; ++b) {
    bank_tracks_.push_back(trace_->track("dram/bank" + std::to_string(b)));
  }
  agg_track_ = trace_->track("dram/aggregate");
}

void DramModel::remove_region(std::uint64_t base) {
  const auto it = regions_.find(base);
  TTSIM_CHECK_MSG(it != regions_.end(), "remove_region: unknown base");
  regions_.erase(it);
}

const DramRegion& DramModel::region_of(std::uint64_t addr, std::uint64_t size) const {
  return *place(addr, size).region;
}

int DramModel::serving_bank(const DramRegion& region, std::uint64_t offset) const {
  if (region.page_size == 0) return region.bank;
  if (region.coarse) {
    const std::uint64_t stripe = offset / region.page_size;
    const auto banks = static_cast<std::uint64_t>(spec_.dram_banks);
    return static_cast<int>(region.balanced ? stripe % banks
                                            : (stripe * 2654435761ULL >> 16) % banks);
  }
  return InterleaveMap(spec_.dram_banks, region.page_size).bank_of(offset);
}

DramModel::Placement DramModel::place(std::uint64_t addr, std::uint64_t size) const {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) TTSIM_THROW_API("DRAM access to unmapped address " << addr);
  --it;
  const DramRegion& r = it->second;
  if (addr + size > r.base + r.size) {
    TTSIM_THROW_API("DRAM access [" << addr << ", " << addr + size
                                    << ") runs past the region ending at "
                                    << r.base + r.size);
  }
  return Placement{&r, addr - r.base};
}

SimTime DramModel::schedule_access(const Placement& p, std::uint64_t addr,
                                   std::uint32_t size, bool is_write,
                                   ResourceTimeline& dma, int hops) {
  const SimTime now = engine_.now();
  const SimTime hop_lat = static_cast<SimTime>(hops) * spec_.noc_hop_latency;
  const SimTime proc = is_write ? spec_.bank_write_proc : spec_.bank_read_proc;
  const double bank_gbs = is_write ? spec_.bank_write_gbs : spec_.bank_read_gbs;
  const double dma_gbs = is_write ? spec_.dma_write_gbs : spec_.dma_read_gbs;
  const SimTime rt_latency = is_write ? spec_.write_latency : spec_.read_latency;

  scratch_segments_.clear();
  if (p.region->page_size != 0) {
    InterleaveMap map(spec_.dram_banks, p.region->page_size);
    map.split(p.offset, size, scratch_segments_);
    if (p.region->coarse) {
      // Coarse stripes model per-core slab allocation: slabs land on banks
      // effectively at random (allocator order), so scramble the
      // stripe->bank mapping to avoid artificial bank camping by cores
      // working through the same logical row range. `balanced` regions
      // round-robin instead — the even placement a bandwidth-aware
      // allocator would choose.
      for (auto& seg : scratch_segments_) {
        const std::uint64_t stripe = seg.offset / p.region->page_size;
        const auto banks = static_cast<std::uint64_t>(spec_.dram_banks);
        seg.bank = static_cast<int>(
            p.region->balanced ? stripe % banks
                               : (stripe * 2654435761ULL >> 16) % banks);
      }
    }
  } else {
    scratch_segments_.push_back(
        InterleaveMap::Segment{p.region->bank, p.offset, size});
  }
  stats_.interleave_segments += scratch_segments_.size() > 1
                                    ? scratch_segments_.size()
                                    : 0;

  // Scattered posted writes flush the mover's write combiner (once per
  // request, charged on the first segment's drain). Keyed by the timeline's
  // stable id: a fresh engine at a recycled address starts a fresh stream.
  SimTime scatter_penalty = 0;
  if (is_write) {
    auto [it, fresh] = dma_last_write_end_.try_emplace(dma.id(), ~0ULL);
    if (fresh || it->second != addr) scatter_penalty = spec_.write_scatter_penalty;
    it->second = addr + size;
  }

  SimTime complete = now;
  SimTime dma_ready = now;
  bool first_segment = true;
  for (const auto& seg : scratch_segments_) {
    // The requesting DMA engine streams the payload; interleaved accesses
    // additionally pay serialised per-page dispatch work (Table VI's
    // small-page penalty), folded as max(dispatch, transfer).
    SimTime dma_busy = transfer_time(seg.length, dma_gbs);
    if (p.region->page_size != 0 && !p.region->coarse) {
      dma_busy = std::max(dma_busy, spec_.interleave_sub_overhead);
    }
    if (first_segment) {
      dma_busy += scatter_penalty;
      first_segment = false;
    }
    dma_ready = dma.acquire(dma_ready, dma_busy) + dma_busy;

    // Bank occupancy: per-request processing + transfer at bank bandwidth,
    // plus a row re-activation penalty when not continuing the last access.
    auto& bank = banks_[static_cast<std::size_t>(seg.bank)];
    auto& streams = (is_write ? bank_write_streams_
                              : bank_read_streams_)[static_cast<std::size_t>(seg.bank)];
    const std::uint64_t seg_addr = p.region->base + seg.offset;
    const SimTime xfer = transfer_time(seg.length, bank_gbs);
    SimTime proc_busy = proc;
    // Coarse (slab-placed) regions: each core streams contiguously through
    // its own slab, so rows open once and stay hot; the global-image
    // addresses the simulator uses would misreport those as strided.
    bool row_miss = false;
    if (!p.region->coarse && !streams.access(seg_addr, seg_addr + seg.length)) {
      proc_busy += spec_.bank_row_miss;
      row_miss = true;
      ++stats_.row_misses;
    }
    const SimTime bank_busy = proc_busy + xfer;
    SimTime bank_start, bank_end;
    SimTime service_start, service_busy;  // the kDramService interval
    if (!spec_.dram_bank_pipeline) {
      // Serialised service: one request occupies the bank end to end.
      bank_start = bank.acquire(now + hop_lat, bank_busy);
      bank_end = bank_start + bank_busy;
      service_start = bank_start;
      service_busy = bank_busy;
    } else {
      // In-order two-stage pipeline: the command stage (processing + row
      // activation) of this request runs while the previous request's data
      // still transfers; the data stage stays strictly ordered behind it.
      // An uncontended bank times out identically to the serialised model.
      auto& cmd = bank_cmd_[static_cast<std::size_t>(seg.bank)];
      // Snapshot before acquiring: the serialised model would have started
      // this whole request (processing + transfer) once the previous data
      // transfer cleared, i.e. at max(arrival, bank free time).
      const SimTime bank_free = bank.free_at();
      const SimTime cmd_start = cmd.acquire(now + hop_lat, proc_busy);
      const SimTime cmd_end = cmd_start + proc_busy;
      const SimTime data_start = bank.acquire(cmd_end, xfer);
      bank_start = cmd_start;
      bank_end = data_start + xfer;
      service_start = data_start;
      service_busy = xfer;
      const SimTime serialized_end =
          std::max(now + hop_lat, bank_free) + bank_busy;
      if (bank_end < serialized_end) {
        ++stats_.pipelined_segments;
        stats_.pipeline_overlap_saved += serialized_end - bank_end;
      }
      if (trace_ != nullptr) {
        trace_->record(TraceEventKind::kDramBankPipe, cmd_start, proc_busy,
                       {/*core=*/-1, /*a=*/seg.bank, /*b=*/is_write ? 1 : 0,
                        seg_addr, seg.length},
                       bank_tracks_[static_cast<std::size_t>(seg.bank)]);
      }
    }
    (is_write ? stats_.write_bank_busy : stats_.read_bank_busy) += bank_busy;
    stats_.dma_busy += dma_busy;

    // Aggregate DDR/NoC ceiling shared by every core (Table VII plateau).
    const SimTime agg_busy = transfer_time(seg.length, spec_.aggregate_gbs);
    stats_.aggregate_busy += agg_busy;
    const SimTime agg_start = aggregate_.acquire(now, agg_busy);
    const SimTime agg_end = agg_start + agg_busy;

    if (trace_ != nullptr) {
      const int bank_track = bank_tracks_[static_cast<std::size_t>(seg.bank)];
      const SimTime arrival = now + hop_lat;
      const TraceSink::Rec r{/*core=*/-1, /*a=*/seg.bank,
                             /*b=*/is_write ? 1 : 0, seg_addr, seg.length};
      // Enqueue dur = time the request sat behind earlier bank work.
      trace_->record(TraceEventKind::kDramEnqueue, arrival,
                     bank_start - arrival, r, bank_track);
      trace_->record(TraceEventKind::kDramService, service_start, service_busy,
                     r, bank_track);
      if (row_miss) {
        trace_->record(TraceEventKind::kDramRowMiss, bank_start, 0, r,
                       bank_track);
      }
      trace_->record(TraceEventKind::kDramAggregate, agg_start, agg_busy, r,
                     agg_track_);
    }

    // Reads deliver when the slowest stage clears. Writes are posted: the
    // barrier sees the local drain (DMA) and acknowledgement; the bank
    // commits in the background (its timeline still holds reads off).
    const SimTime seg_end = is_write ? std::max(dma_ready, agg_end)
                                     : std::max({dma_ready, bank_end, agg_end});
    complete = std::max(complete, seg_end);
  }
  // Large read responses additionally transit store-and-forward buffering
  // on the return path (latency, not bank occupancy).
  if (!is_write) complete += transfer_time(size, spec_.read_store_forward_gbs);
  return complete + rt_latency + hop_lat;
}

bool DramModel::access_hits_stuck_bank(std::uint64_t addr, std::uint32_t size,
                                       bool is_write) {
  if (fault_ == nullptr) return false;
  // scratch_segments_ holds the just-scheduled access's per-bank segments —
  // an interleaved request must fault when *any* of them lands on a stuck
  // bank, not just the first byte's. bank_stuck is side-effect-free for
  // non-stuck banks, and we stop at the first hit so one access still logs
  // at most one fault event.
  for (const auto& seg : scratch_segments_) {
    if (fault_->bank_stuck(engine_.now(), seg.bank, addr, size, is_write)) {
      return true;
    }
  }
  return false;
}

void DramModel::read(std::uint64_t addr, std::byte* dst, std::uint32_t size,
                     ResourceTimeline& dma, int hops,
                     std::function<void()> on_complete) {
  TTSIM_CHECK(size > 0);
  std::uint64_t effective_addr = addr;
  if (addr % spec_.dram_alignment != 0) {
    ++stats_.unaligned_reads;
    switch (spec_.alignment_policy) {
      case AlignmentPolicy::kTrap:
        TTSIM_THROW_API("unaligned DRAM read at address "
                        << addr << " (alignment " << spec_.dram_alignment << ")");
      case AlignmentPolicy::kFaithful:
        // The controller drops the low address bits: data comes back from
        // the aligned-down address — silently wrong, as the paper observed
        // from the second row of Y downwards (Section IV-B).
        effective_addr = align_down(addr, spec_.dram_alignment);
        break;
      case AlignmentPolicy::kPermissive:
        break;
    }
  }
  const Placement p = place(effective_addr, size);
  const SimTime complete = schedule_access(place(addr, size), addr, size, /*is_write=*/false,
                                           dma, hops);
  ++stats_.read_requests;
  stats_.bytes_read += size;
  // Fault injection: decided at issue time (deterministic engine order),
  // applied at the simulated completion time.
  bool stuck = false;
  bool flip = false;
  std::uint32_t flip_bit = 0;
  if (fault_ != nullptr) {
    stuck = access_hits_stuck_bank(addr, size, /*is_write=*/false);
    if (!stuck) flip = fault_->flip_dram_read(engine_.now(), addr, size, &flip_bit);
  }
  std::byte* src = p.region->storage + p.offset;
  engine_.schedule_at(
      complete, [src, dst, size, stuck, flip, flip_bit, cb = std::move(on_complete)] {
        if (stuck) {
          std::memset(dst, 0xFF, size);
        } else {
          std::memcpy(dst, src, size);
          if (flip) {
            dst[flip_bit / 8] ^=
                std::byte{static_cast<unsigned char>(1u << (flip_bit % 8))};
          }
        }
        if (cb) cb();
      });
}

void DramModel::write(std::uint64_t addr, const std::byte* src, std::uint32_t size,
                      ResourceTimeline& dma, int hops,
                      std::function<void()> on_complete) {
  TTSIM_CHECK(size > 0);
  std::uint64_t effective_addr = addr;
  if (addr % spec_.dram_alignment != 0) {
    switch (spec_.alignment_policy) {
      case AlignmentPolicy::kTrap:
        TTSIM_THROW_API("unaligned DRAM write at address "
                        << addr << " (alignment " << spec_.dram_alignment << ")");
      case AlignmentPolicy::kFaithful: {
        // The paper found contiguous unaligned writes that *continue* the
        // previous write are merged correctly by the controller, while
        // non-contiguous unaligned writes corrupt memory. Reproduce both.
        const Placement probe = place(align_down(addr, spec_.dram_alignment), 1);
        // serving_bank, not a raw InterleaveMap: coarse regions scramble the
        // stripe->bank mapping, and the merge probe must look at the bank
        // that actually serves the byte or two distinct banks can alias to
        // one tracking slot (a write elsewhere then breaks a legitimate
        // continuation).
        const int bank = serving_bank(*probe.region, probe.offset);
        if (bank_last_write_end_[static_cast<std::size_t>(bank)] == addr) {
          ++stats_.unaligned_writes_merged;  // merged: lands where intended
        } else {
          ++stats_.unaligned_writes_corrupted;
          effective_addr = align_down(addr, spec_.dram_alignment);
        }
        break;
      }
      case AlignmentPolicy::kPermissive:
        break;
    }
  }
  {
    // Track write continuation on the *intended* stream so that a later
    // unaligned continuation of this write merges. Must agree with the
    // merge probe above on which bank serves the byte (serving_bank handles
    // the coarse-region stripe scramble).
    const Placement probe = place(align_down(addr, spec_.dram_alignment), 1);
    const int bank = serving_bank(*probe.region, probe.offset);
    bank_last_write_end_[static_cast<std::size_t>(bank)] = addr + size;
  }
  const Placement p = place(effective_addr, size);
  const SimTime complete = schedule_access(place(addr, size), addr, size, /*is_write=*/true,
                                           dma, hops);
  ++stats_.write_requests;
  stats_.bytes_written += size;
  // A stuck bank silently drops device-side writes (the timing above is
  // still charged: the transaction happened, the commit did not).
  const bool dropped = access_hits_stuck_bank(addr, size, /*is_write=*/true);
  // Snapshot the source now: on real hardware the data leaves the core when
  // the NoC accepts it, and the paper's kernels recycle source buffers.
  std::vector<std::byte> snapshot(src, src + size);
  std::byte* dst = p.region->storage + p.offset;
  engine_.schedule_at(complete, [dst, dropped, data = std::move(snapshot),
                                 cb = std::move(on_complete)] {
    if (!dropped) std::memcpy(dst, data.data(), data.size());
    if (cb) cb();
  });
}

void DramModel::host_write(std::uint64_t addr, const std::byte* src, std::uint64_t size) {
  const Placement p = place(addr, size);
  std::memcpy(p.region->storage + p.offset, src, size);
}

void DramModel::host_read(std::uint64_t addr, std::byte* dst, std::uint64_t size) const {
  const Placement p = place(addr, size);
  std::memcpy(dst, p.region->storage + p.offset, size);
}

std::span<const std::byte> DramModel::host_view(std::uint64_t addr, std::uint64_t size) const {
  const Placement p = place(addr, size);
  return {p.region->storage + p.offset, size};
}

}  // namespace ttsim::sim
