#include "ttsim/ttmetal/kernel_ctx.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "ttsim/sim/fpu.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/verify/race.hpp"

namespace ttsim::ttmetal {
namespace {

/// Sets CB `cb_id`'s bit in `noted`; true when it was clear. An id outside
/// the bitmask always reads as new (core_.cb() rejects it right after).
bool first_use(std::uint32_t& noted, int cb_id) {
  if (cb_id < 0 || cb_id >= 32) return true;
  const std::uint32_t bit = std::uint32_t{1} << cb_id;
  if ((noted & bit) != 0) return false;
  noted |= bit;
  return true;
}

}  // namespace

KernelCtxBase::KernelCtxBase(Device& device, sim::TensixCore& core,
                             std::vector<std::uint32_t> args, int position,
                             int group_size)
    : device_(device),
      core_(core),
      args_(std::move(args)),
      position_(position),
      group_size_(group_size),
      trace_(device.hw().trace()),
      deadline_(device.running_ != nullptr && device.running_->deadline > 0
                    ? device.running_->deadline
                    : std::numeric_limits<SimTime>::max()) {}

std::uint32_t KernelCtxBase::arg(std::size_t i) const {
  if (i >= args_.size()) {
    TTSIM_THROW_API("runtime arg " << i << " requested but only " << args_.size()
                                   << " were set");
  }
  return args_[i];
}

std::uint64_t KernelCtxBase::arg64(std::size_t i) const {
  return static_cast<std::uint64_t>(arg(i)) |
         (static_cast<std::uint64_t>(arg(i + 1)) << 32);
}

SimTime KernelCtxBase::now() const { return device_.hw().engine().now() + lag_; }

void KernelCtxBase::sync() {
  if (lag_ > 0) device_.hw().engine().delay(std::exchange(lag_, 0));
}

void KernelCtxBase::advance(SimTime dt) {
  const bool crosses = now() + dt > deadline_;
  if (crosses) sync();
  lag_ += dt;
  if (crosses) sync();
}

void KernelCtxBase::charge(SimTime cost) {
  maybe_halt();
  if (cost > 0) {
    active_ += cost;
    if (profile_ != nullptr) profile_->active = active_;
    advance(cost);
  }
}

void KernelCtxBase::maybe_halt() {
  sim::FaultPlan* plan = device_.hw().fault_plan();
  if (plan == nullptr || !plan->core_dead(core_.id(), now())) return;
  // The kill is checked on this kernel's clock but recorded at engine time,
  // in engine order with the plan's other records.
  sync();
  plan->record_core_failure(device_.hw().engine().now(), core_.id());
  core_.halt_current_process();
}

void KernelCtxBase::note_cb_wait(SimTime waited) {
  if (waited <= 0) return;
  cb_wait_ += waited;
  if (profile_ != nullptr) profile_->cb_wait = cb_wait_;
}

void KernelCtxBase::verify_read(std::uint32_t l1_addr, std::uint32_t size,
                                const char* what) {
  if (verify_ != nullptr) verify_->on_read(vtid_, core_.id(), l1_addr, size, what);
}

void KernelCtxBase::verify_write(std::uint32_t l1_addr, std::uint32_t size,
                                 const char* what) {
  if (verify_ != nullptr) verify_->on_write(vtid_, core_.id(), l1_addr, size, what);
}

void KernelCtxBase::note_remote_sem_post(int dst_core, int sem_id) {
  device_.note_sem_poster(dst_core, sem_id, kernel_name_);
}

void KernelCtxBase::note_cb_producer(int cb_id) {
  if (first_use(cb_produced_, cb_id)) {
    device_.note_cb_producer(core_.id(), cb_id, kernel_name_);
  }
}

void KernelCtxBase::note_cb_consumer(int cb_id) {
  if (first_use(cb_consumed_, cb_id)) {
    device_.note_cb_consumer(core_.id(), cb_id, kernel_name_);
  }
}

void KernelCtxBase::cb_reserve_back(int cb_id, std::uint32_t pages) {
  charge(device_.spec().cb_op_cost);
  note_cb_producer(cb_id);
  sim::CircularBuffer& cb = core_.cb(cb_id);
  sync_unless_local(cb, cb.pages_free() >= pages);
  const SimTime t0 = now();
  cb.reserve_back(pages);
  note_cb_wait(now() - t0);
  // Space granted: order this producer behind the consumer pops that freed
  // the pages it will now overwrite.
  if (verify_ != nullptr) {
    verify_->acquire(vtid_, verify::Verifier::cb_space_key(core_.id(), cb_id));
  }
}

void KernelCtxBase::cb_push_back(int cb_id, std::uint32_t pages) {
  charge(device_.spec().cb_op_cost);
  note_cb_producer(cb_id);
  sim::CircularBuffer& cb = core_.cb(cb_id);
  sync_unless_local(cb, true);
  // Publish the filled pages: consumers acquiring the data clock after their
  // wait_front are ordered behind every write this producer made.
  if (verify_ != nullptr) {
    verify_->release(vtid_, verify::Verifier::cb_data_key(core_.id(), cb_id));
  }
  cb.push_back(pages);
  record_cb(sim::TraceEventKind::kCbPush, cb_id, cb, pages);
}

void KernelCtxBase::cb_wait_front(int cb_id, std::uint32_t pages) {
  charge(device_.spec().cb_op_cost);
  note_cb_consumer(cb_id);
  sim::CircularBuffer& cb = core_.cb(cb_id);
  sync_unless_local(cb, cb.pages_available() >= pages);
  const SimTime t0 = now();
  cb.wait_front(pages);
  note_cb_wait(now() - t0);
  if (verify_ != nullptr) {
    verify_->acquire(vtid_, verify::Verifier::cb_data_key(core_.id(), cb_id));
  }
}

void KernelCtxBase::cb_pop_front(int cb_id, std::uint32_t pages) {
  charge(device_.spec().cb_op_cost);
  note_cb_consumer(cb_id);
  sim::CircularBuffer& cb = core_.cb(cb_id);
  sync_unless_local(cb, true);
  // Return the pages: producers acquiring the space clock in reserve_back
  // are ordered behind every read this consumer made.
  if (verify_ != nullptr) {
    verify_->release(vtid_, verify::Verifier::cb_space_key(core_.id(), cb_id));
  }
  cb.pop_front(pages);
  record_cb(sim::TraceEventKind::kCbPop, cb_id, cb, pages);
}

void KernelCtxBase::record_cb(sim::TraceEventKind kind, int cb_id,
                              const sim::CircularBuffer& cb, std::uint32_t pages) {
  // Recorded here, not by the CB, to stamp the kernel's clock: an op on a
  // kernel-local CB may run ahead of the engine.
  if (trace_ == nullptr) return;
  trace_->record(kind, now(), 0,
                 {core_.id(), cb_id, static_cast<std::int32_t>(cb.pages_available()),
                  0, static_cast<std::uint64_t>(pages) * cb.page_size()});
}

std::uint32_t KernelCtxBase::get_write_ptr(int cb_id, std::uint32_t page_offset) {
  return l1_address_of(core_.cb(cb_id).write_ptr(page_offset));
}

std::uint32_t KernelCtxBase::get_read_ptr(int cb_id) {
  return l1_address_of(core_.cb(cb_id).read_ptr());
}

std::byte* KernelCtxBase::l1_ptr(std::uint32_t l1_addr) {
  TTSIM_CHECK_MSG(l1_addr < core_.sram().capacity(), "L1 address out of range");
  return core_.sram().data(l1_addr);
}

const std::byte* KernelCtxBase::l1_ptr(std::uint32_t l1_addr) const {
  TTSIM_CHECK_MSG(l1_addr < core_.sram().capacity(), "L1 address out of range");
  return core_.sram().data(l1_addr);
}

std::uint32_t KernelCtxBase::l1_address_of(const std::byte* p) const {
  const std::byte* base = core_.sram().data(0);
  TTSIM_CHECK_MSG(p >= base && p < base + core_.sram().capacity(),
                  "pointer does not point into this core's SRAM");
  return static_cast<std::uint32_t>(p - base);
}

void KernelCtxBase::semaphore_post(int sem_id, std::int64_t n) {
  charge(device_.spec().cb_op_cost);
  sync();
  device_.note_sem_poster(core_.id(), sem_id, kernel_name_);
  if (verify_ != nullptr) {
    verify_->release(vtid_, verify::Verifier::sem_key(core_.id(), sem_id));
  }
  if (trace_ != nullptr) {
    trace_->record(sim::TraceEventKind::kSemPost, now(), 0,
                   {core_.id(), sem_id, static_cast<std::int32_t>(n)});
  }
  core_.semaphore(sem_id).post(n);
}

void KernelCtxBase::semaphore_wait(int sem_id, std::int64_t n) {
  charge(device_.spec().cb_op_cost);
  sync();
  const SimTime t0 = now();
  core_.semaphore(sem_id).wait(n);
  if (verify_ != nullptr) {
    verify_->acquire(vtid_, verify::Verifier::sem_key(core_.id(), sem_id));
  }
  if (trace_ != nullptr && now() > t0) {
    trace_->record(sim::TraceEventKind::kSemWait, t0, now() - t0,
                   {core_.id(), sem_id, static_cast<std::int32_t>(n)});
  }
}

void KernelCtxBase::global_barrier(int barrier_id) {
  // One NoC round trip to signal arrival at the rendezvous core.
  charge(device_.spec().read_latency);
  sync();
  const SimTime t0 = now();
  auto& b = device_.barrier(barrier_id);
  const std::uint64_t gen = b.generation;
  // All-to-all edge: release on arrival, acquire after the rendezvous — by
  // then every participant's release is merged into the barrier clock.
  if (verify_ != nullptr) {
    verify_->release(vtid_, verify::Verifier::barrier_key(barrier_id));
  }
  if (++b.arrived == b.expected) {
    b.arrived = 0;
    ++b.generation;
    b.queue.notify_all();
  } else {
    while (b.generation == gen) b.queue.wait();
  }
  if (verify_ != nullptr) {
    verify_->acquire(vtid_, verify::Verifier::barrier_key(barrier_id));
  }
  if (trace_ != nullptr && now() > t0) {
    trace_->record(sim::TraceEventKind::kGlobalBarrierWait, t0, now() - t0,
                   {core_.id(), barrier_id});
  }
}

void KernelCtxBase::loop_tick() { charge(device_.spec().loop_overhead); }

void KernelCtxBase::spin(SimTime dt) {
  charge(dt);
  sync();
}

// ---------------------------------------------------------------------------
// DataMoverCtx

DataMoverCtx::DataMoverCtx(Device& device, sim::TensixCore& core, int noc_id,
                           std::vector<std::uint32_t> args, int position,
                           int group_size)
    : KernelCtxBase(device, core, std::move(args), position, group_size),
      noc_id_(noc_id),
      reads_(std::make_shared<sim::CompletionTracker>(device.hw().engine())),
      writes_(std::make_shared<sim::CompletionTracker>(device.hw().engine())) {
  reads_->set_site({sim::WaitSite::Kind::kNocRead, core.id(), noc_id});
  writes_->set_site({sim::WaitSite::Kind::kNocWrite, core.id(), noc_id});
  if (trace_ != nullptr) {
    noc_track_ = trace_->track(noc_id_ == 0 ? "noc0" : "noc1");
  }
}

void DataMoverCtx::noc_async_read(std::uint64_t noc_addr, std::uint32_t l1_dst,
                                  std::uint32_t size) {
  read_impl(noc_addr, l1_dst, size, nullptr, -1);
}

void DataMoverCtx::noc_async_read(std::uint64_t noc_addr, std::uint32_t l1_dst,
                                  std::uint32_t size, int tag) {
  read_impl(noc_addr, l1_dst, size, read_tag(tag), tag);
}

const std::shared_ptr<sim::CompletionTracker>& DataMoverCtx::read_tag(int tag) {
  TTSIM_CHECK_MSG(tag >= 0 && tag < kMaxReadTags, "read tag out of range");
  if (static_cast<std::size_t>(tag) >= read_tags_.size()) {
    read_tags_.resize(static_cast<std::size_t>(tag) + 1);
  }
  auto& tracker = read_tags_[static_cast<std::size_t>(tag)];
  if (tracker == nullptr) {
    tracker = std::make_shared<sim::CompletionTracker>(device_.hw().engine());
    tracker->set_site({sim::WaitSite::Kind::kNocRead, core_.id(), tag});
  }
  return tracker;
}

void DataMoverCtx::fault_stall(sim::FaultPlan& plan) {
  charge(plan.mover_stall(now(), core_.id()));
  sync();
}

void DataMoverCtx::read_impl(std::uint64_t noc_addr, std::uint32_t l1_dst,
                             std::uint32_t size,
                             std::shared_ptr<sim::CompletionTracker> tag_tracker,
                             int tag) {
  const SimTime t0 = now();
  charge(device_.spec().read_issue_overhead);
  sync();
  if (verify_ != nullptr) {
    // The landing clobbers [l1_dst, l1_dst+size) at an unknown time before
    // the matching barrier; the detector also enforces the 256-bit DRAM
    // source alignment rule here.
    verify_->on_noc_read_issue(vtid_, core_.id(), l1_dst, size, tag, noc_addr,
                               device_.spec().dram_alignment);
  }
  auto& hw = device_.hw();
  sim::FaultPlan* plan = hw.fault_plan();
  if (plan != nullptr) fault_stall(*plan);
  const int hops = hw.hops_to_dram(core_, noc_addr, noc_id_);
  SimTime extra = 0;
  if (plan != nullptr) {
    extra = plan->noc_transaction(now(), core_.id(), noc_id_, noc_addr, size,
                                  /*is_write=*/false)
                .extra_delay;
  }
  // Capture the issuing track now: the completion callback runs in
  // scheduler context, where "current track" would resolve to the host.
  int track = -1;
  if (trace_ != nullptr) {
    track = trace_->current_track();
    trace_->record(sim::TraceEventKind::kMoverReadIssue, t0, now() - t0,
                   {core_.id(), noc_id_, hops, noc_addr, size}, track);
    trace_->record(sim::TraceEventKind::kNocTransfer, now(),
                   static_cast<SimTime>(hops) * device_.spec().noc_hop_latency,
                   {core_.id(), noc_id_, hops, noc_addr, size}, noc_track_);
  }
  reads_->issue();
  if (tag_tracker != nullptr) tag_tracker->issue();
  auto& engine = hw.engine();
  // The callback completes the global tracker first, then the tag tracker —
  // tag bookkeeping never adds engine events or time (CompletionTracker's
  // complete() with no waiter is pure counter work), so untagged and tagged
  // reads are timing- and trace-identical.
  hw.dram().read(noc_addr, l1_ptr(l1_dst), size, core_.dma(noc_id_), hops,
                 [t = reads_, tag = std::move(tag_tracker), &engine, extra,
                  tr = trace_, track, core = core_.id(), noc_addr, size] {
                   if (tr != nullptr) {
                     tr->record(sim::TraceEventKind::kMoverReadComplete,
                                tr->now(), 0, {core, -1, 0, noc_addr, size},
                                track);
                   }
                   if (extra > 0) {
                     engine.schedule_after(extra, [t, tag] {
                       t->complete();
                       if (tag != nullptr) tag->complete();
                     });
                   } else {
                     t->complete();
                     if (tag != nullptr) tag->complete();
                   }
                 });
}

void DataMoverCtx::noc_async_write(std::uint32_t l1_src, std::uint64_t noc_addr,
                                   std::uint32_t size) {
  const SimTime t0 = now();
  charge(device_.spec().write_issue_overhead);
  sync();
  // The DRAM model snapshots the source at issue, so this is when the L1
  // data is read.
  verify_read(l1_src, size, "noc_async_write source");
  auto& hw = device_.hw();
  sim::FaultPlan* plan = hw.fault_plan();
  if (plan != nullptr) fault_stall(*plan);
  const int hops = hw.hops_to_dram(core_, noc_addr, noc_id_);
  sim::NocFaultDecision fd;
  if (plan != nullptr) {
    fd = plan->noc_transaction(now(), core_.id(), noc_id_, noc_addr, size,
                               /*is_write=*/true);
  }
  int track = -1;
  if (trace_ != nullptr) {
    track = trace_->current_track();
    trace_->record(sim::TraceEventKind::kMoverWriteIssue, t0, now() - t0,
                   {core_.id(), noc_id_, hops, noc_addr, size}, track);
    trace_->record(sim::TraceEventKind::kNocTransfer, now(),
                   static_cast<SimTime>(hops) * device_.spec().noc_hop_latency,
                   {core_.id(), noc_id_, hops, noc_addr, size}, noc_track_);
  }
  auto complete_event = [tr = trace_, track, core = core_.id(), noc_addr,
                         size] {
    if (tr != nullptr) {
      tr->record(sim::TraceEventKind::kMoverWriteComplete, tr->now(), 0,
                 {core, -1, 0, noc_addr, size}, track);
    }
  };
  auto& engine = hw.engine();
  if (fd.drop) {
    // Acknowledged but never lands: the mover pays the usual latency and the
    // barrier completes, but DRAM keeps its old contents — silent data loss,
    // detectable only by downstream checksums / verification.
    writes_->issue();
    engine.schedule_after(device_.spec().write_latency + fd.extra_delay,
                          [t = writes_, complete_event] {
                            complete_event();
                            t->complete();
                          });
    return;
  }
  const int copies = fd.duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    writes_->issue();
    hw.dram().write(noc_addr, l1_ptr(l1_src), size, core_.dma(noc_id_), hops,
                    [t = writes_, &engine, extra = fd.extra_delay,
                     complete_event] {
                      complete_event();
                      if (extra > 0) {
                        engine.schedule_after(extra, [t] { t->complete(); });
                      } else {
                        t->complete();
                      }
                    });
  }
}

void DataMoverCtx::noc_async_read_barrier() {
  sync();
  const SimTime t0 = now();
  reads_->barrier();
  // The untagged barrier waits on every read this mover issued, tagged or
  // not — all its in-flight landings are now ordered writes.
  if (verify_ != nullptr) verify_->on_noc_read_retire(vtid_, -1);
  if (trace_ != nullptr && now() > t0) {
    trace_->record(sim::TraceEventKind::kReadBarrierWait, t0, now() - t0,
                   {core_.id(), noc_id_});
  }
}

void DataMoverCtx::noc_async_read_barrier(int tag) {
  sync();
  const SimTime t0 = now();
  read_tag(tag)->barrier();
  if (verify_ != nullptr) verify_->on_noc_read_retire(vtid_, tag);
  // Same event as the global barrier: a metrics consumer sees "time this
  // mover stalled waiting for reads" either way.
  if (trace_ != nullptr && now() > t0) {
    trace_->record(sim::TraceEventKind::kReadBarrierWait, t0, now() - t0,
                   {core_.id(), noc_id_});
  }
}

void DataMoverCtx::noc_async_write_barrier() {
  sync();
  const SimTime t0 = now();
  writes_->barrier();
  if (trace_ != nullptr && now() > t0) {
    trace_->record(sim::TraceEventKind::kWriteBarrierWait, t0, now() - t0,
                   {core_.id(), noc_id_});
  }
}

void DataMoverCtx::l1_memcpy(std::uint32_t l1_dst, std::uint32_t l1_src,
                             std::uint32_t size) {
  const auto& spec = device_.spec();
  const SimTime t0 = now();
  charge(spec.memcpy_call_overhead +
         static_cast<SimTime>(spec.memcpy_ns_per_byte * static_cast<double>(size) *
                              static_cast<double>(kNanosecond)));
  if (trace_ != nullptr) {
    trace_->record(sim::TraceEventKind::kMoverMemcpy, t0, now() - t0,
                   {core_.id(), -1, 0, l1_dst, size});
  }
  verify_read(l1_src, size, "l1_memcpy source");
  verify_write(l1_dst, size, "l1_memcpy destination");
  std::memmove(l1_ptr(l1_dst), l1_ptr(l1_src), size);
}

void DataMoverCtx::l1_store_u16(std::uint32_t l1_addr, std::uint16_t value) {
  charge(2 * kNanosecond);  // a couple of baby-core store cycles
  verify_write(l1_addr, sizeof(value), "l1_store_u16");
  std::memcpy(l1_ptr(l1_addr), &value, sizeof(value));
}

void DataMoverCtx::noc_async_write_core(int dst_core, std::uint32_t dst_l1,
                                        std::uint32_t src_l1, std::uint32_t size) {
  const SimTime t0 = now();
  charge(device_.spec().write_issue_overhead);
  sync();
  auto& hw = device_.hw();
  sim::FaultPlan* plan = hw.fault_plan();
  if (plan != nullptr) fault_stall(*plan);
  sim::TensixCore& dst = hw.worker(dst_core);
  TTSIM_CHECK_MSG(dst_l1 + size <= dst.sram().capacity(),
                  "core-to-core write past the target core's SRAM");
  auto& noc = hw.noc(noc_id_);
  const auto& spec = device_.spec();
  auto& engine = hw.engine();
  sim::NocFaultDecision fd;
  if (plan != nullptr) {
    fd = plan->noc_transaction(now(), core_.id(), noc_id_, dst_l1, size,
                               /*is_write=*/true);
  }
  // Drain through this mover's DMA engine, transit the NoC path, land in
  // the destination core's L1 at the simulated completion time.
  const SimTime drain = transfer_time(size, spec.dma_write_gbs);
  const SimTime dma_end =
      core_.dma(noc_id_).acquire(engine.now(), drain) + drain;
  // A NoC delay holds back the acknowledgement, not the data (as for a DRAM
  // write): the landing stays ahead of this mover's later semaphore
  // increments, which are not delayed with it.
  const SimTime landed = dma_end + noc.hop_latency(core_.coord(), dst.coord()) +
                         spec.write_latency;
  const SimTime complete = landed + fd.extra_delay;
  int track = -1;
  if (trace_ != nullptr) {
    track = trace_->current_track();
    const int hops = noc.hops(core_.coord(), dst.coord());
    trace_->record(sim::TraceEventKind::kMoverWriteIssue, t0, now() - t0,
                   {core_.id(), noc_id_, hops, dst_l1, size}, track);
    trace_->record(sim::TraceEventKind::kNocTransfer, dma_end,
                   noc.hop_latency(core_.coord(), dst.coord()),
                   {core_.id(), noc_id_, hops, dst_l1, size}, noc_track_);
  }
  auto complete_event = [tr = trace_, track, core = core_.id(), dst_l1, size] {
    if (tr != nullptr) {
      tr->record(sim::TraceEventKind::kMoverWriteComplete, tr->now(), 0,
                 {core, -1, 0, dst_l1, size}, track);
    }
  };
  writes_->issue();
  verify_read(src_l1, size, "noc_async_write_core source");
  if (fd.drop) {
    // Dropped core-to-core write: latency is paid but nothing lands.
    engine.schedule_at(complete, [t = writes_, complete_event] {
      complete_event();
      t->complete();
    });
    return;
  }
  if (verify_ != nullptr) {
    // The landing memcpy into the destination core runs strictly before the
    // matching noc_semaphore_inc arrives there (same NoC, earlier schedule),
    // so recording it at issue with this mover's clock keeps the usual
    // release-via-semaphore ordering exact.
    verify_->on_write(vtid_, dst_core, dst_l1, size, "noc_async_write_core landing");
  }
  std::vector<std::byte> snapshot(l1_ptr(src_l1), l1_ptr(src_l1) + size);
  engine.schedule_at(landed, [&dst, dst_l1, data = std::move(snapshot), t = writes_,
                              &engine, extra = fd.extra_delay, complete_event]() mutable {
    std::memcpy(dst.sram().data(dst_l1), data.data(), data.size());
    if (extra > 0) {
      engine.schedule_after(extra, [t, complete_event] {
        complete_event();
        t->complete();
      });
    } else {
      complete_event();
      t->complete();
    }
  });
}

void DataMoverCtx::noc_semaphore_inc(int dst_core, int sem_id, std::int64_t n) {
  charge(device_.spec().cb_op_cost);
  sync();
  note_remote_sem_post(dst_core, sem_id);
  if (verify_ != nullptr) {
    // Release at the call: the scheduled post lands no earlier than every
    // write this mover has issued so far (NoC ordering), so a waiter that
    // acquires after the post is correctly ordered behind those writes.
    verify_->release(vtid_, verify::Verifier::sem_key(dst_core, sem_id));
  }
  auto& hw = device_.hw();
  sim::TensixCore& dst = hw.worker(dst_core);
  auto& noc = hw.noc(noc_id_);
  // The increment is ordered behind this mover's in-flight writes on the
  // same NoC (tt-metal semantics): it fires after the DMA engine drains.
  const SimTime at = std::max(hw.engine().now(), core_.dma(noc_id_).free_at()) +
                     noc.hop_latency(core_.coord(), dst.coord()) +
                     device_.spec().write_latency;
  hw.engine().schedule_at(at, [&dst, sem_id, n] { dst.semaphore(sem_id).post(n); });
}

std::uint32_t DataMoverCtx::read_data_aligned(std::uint64_t address,
                                              std::uint64_t starting_address,
                                              std::uint32_t size,
                                              std::uint32_t l1_buffer) {
  // Paper Listing 4: round the read down to the previous 256-bit boundary,
  // read the extra prefix, and tell the caller where its data starts.
  const auto alignment = device_.spec().dram_alignment;
  const std::uint32_t offset =
      static_cast<std::uint32_t>((address - starting_address) % alignment);
  const std::uint64_t offset_start = address - offset;
  const std::uint32_t read_size = size + offset;
  noc_async_read(get_noc_addr(offset_start), l1_buffer, read_size);
  noc_async_read_barrier();
  return offset;
}

// ---------------------------------------------------------------------------
// ComputeCtx

template <typename Fn>
void ComputeCtx::fpu_op(SimTime cost, Fn&& fn) {
  // The op is accounted after its time has passed, so a partial profile
  // never counts an op still in flight. The math reads operand pages the
  // CB protocol already holds and dst registers, so it may run ahead.
  maybe_halt();
  const SimTime t0 = now();
  advance(cost);
  fn();
  if (cost > 0) {
    active_ += cost;
    fpu_busy_ += cost;
    if (profile_ != nullptr) {
      profile_->active = active_;
      profile_->fpu_busy = fpu_busy_;
    }
    if (trace_ != nullptr) {
      trace_->record(sim::TraceEventKind::kFpuOp, t0, cost, {core_.id()});
    }
  }
}

void ComputeCtx::verify_tile_read(int cb_id, std::uint32_t idx, const char* what) {
  if (verify_ == nullptr) return;
  auto& cb = core_.cb(cb_id);
  // The FPU fetches a full tile from read_ptr() + idx * kTileBytes, but only
  // read_valid_bytes() of it is meaningful (an in-place override may alias a
  // row much narrower than a tile; a small CB page holds less than a tile) —
  // recording the honest fetch span would overlap unrelated neighbours.
  const std::uint32_t addr = l1_address_of(cb.read_ptr()) +
                             idx * sim::Fpu::kTileBytes;
  const std::uint32_t size = std::min(sim::Fpu::kTileBytes, cb.read_valid_bytes());
  verify_->on_read(vtid_, core_.id(), addr, size, what);
}

void ComputeCtx::add_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib,
                           int dst) {
  verify_tile_read(cb_a, ia, "add_tiles operand a");
  verify_tile_read(cb_b, ib, "add_tiles operand b");
  fpu_op(device_.spec().tile_math_cost,
         [&] { core_.fpu().add_tiles(core_.cb(cb_a), core_.cb(cb_b), ia, ib, dst); });
}

void ComputeCtx::sub_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib,
                           int dst) {
  verify_tile_read(cb_a, ia, "sub_tiles operand a");
  verify_tile_read(cb_b, ib, "sub_tiles operand b");
  fpu_op(device_.spec().tile_math_cost,
         [&] { core_.fpu().sub_tiles(core_.cb(cb_a), core_.cb(cb_b), ia, ib, dst); });
}

void ComputeCtx::mul_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib,
                           int dst) {
  verify_tile_read(cb_a, ia, "mul_tiles operand a");
  verify_tile_read(cb_b, ib, "mul_tiles operand b");
  fpu_op(device_.spec().tile_math_cost,
         [&] { core_.fpu().mul_tiles(core_.cb(cb_a), core_.cb(cb_b), ia, ib, dst); });
}

void ComputeCtx::copy_tile(int cb, std::uint32_t idx, int dst) {
  verify_tile_read(cb, idx, "copy_tile source");
  fpu_op(device_.spec().tile_math_cost, [&] { core_.fpu().copy_tile(core_.cb(cb), idx, dst); });
}

void ComputeCtx::pack_tile(int dst, int cb, std::uint32_t page_offset) {
  if (verify_ != nullptr) {
    // A simulated pack_tile stores a full tile; the spill past a narrow
    // logical row is real SRAM traffic (callers size their strides for it),
    // so record the honest span even though the host stores only the
    // register's live extent.
    verify_->on_write(vtid_, core_.id(),
                      l1_address_of(core_.cb(cb).write_ptr(page_offset)),
                      sim::Fpu::kTileBytes, "pack_tile");
  }
  fpu_op(device_.spec().tile_pack_cost, [&] { core_.fpu().pack_tile(dst, core_.cb(cb), page_offset); });
}

void ComputeCtx::cb_set_rd_ptr(int cb_id, std::uint32_t l1_addr,
                               std::uint32_t valid_bytes) {
  charge(device_.spec().cb_op_cost);
  core_.cb(cb_id).set_read_ptr(l1_ptr(l1_addr), valid_bytes);
}

void ComputeCtx::cb_set_wr_ptr(int cb_id, std::uint32_t l1_addr) {
  charge(device_.spec().cb_op_cost);
  core_.cb(cb_id).set_write_ptr(l1_ptr(l1_addr));
}

void ComputeCtx::cb_clear_rd_ptr(int cb_id) {
  charge(device_.spec().cb_op_cost);
  core_.cb(cb_id).clear_read_ptr();
}

void ComputeCtx::abs_tile(int dst) {
  fpu_op(device_.spec().tile_math_cost, [&] { core_.fpu().abs_tile(dst); });
}

void ComputeCtx::eq_scalar_tile(int dst, bfloat16_t v) {
  fpu_op(device_.spec().tile_math_cost, [&] { core_.fpu().eq_scalar_tile(dst, v); });
}

bfloat16_t ComputeCtx::reduce_max(int dst) {
  bfloat16_t result{};
  fpu_op(device_.spec().tile_math_cost, [&] { result = core_.fpu().reduce_max(dst); });
  return result;
}

}  // namespace ttsim::ttmetal
