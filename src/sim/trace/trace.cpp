/// \file trace.cpp
/// TraceSink core: track interning, the canonical text rendering the golden
/// tests hash, and the FNV-1a digest.

#include "ttsim/sim/trace.hpp"

#include <algorithm>
#include <sstream>

#include "ttsim/common/check.hpp"

namespace ttsim::sim {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kKernelStart: return "kernel_start";
    case TraceEventKind::kKernelEnd: return "kernel_end";
    case TraceEventKind::kMoverReadIssue: return "mover_read_issue";
    case TraceEventKind::kMoverReadComplete: return "mover_read_complete";
    case TraceEventKind::kMoverWriteIssue: return "mover_write_issue";
    case TraceEventKind::kMoverWriteComplete: return "mover_write_complete";
    case TraceEventKind::kMoverMemcpy: return "mover_memcpy";
    case TraceEventKind::kCbPush: return "cb_push";
    case TraceEventKind::kCbPop: return "cb_pop";
    case TraceEventKind::kCbFullWait: return "cb_full_wait";
    case TraceEventKind::kCbEmptyWait: return "cb_empty_wait";
    case TraceEventKind::kSemPost: return "sem_post";
    case TraceEventKind::kSemWait: return "sem_wait";
    case TraceEventKind::kReadBarrierWait: return "read_barrier_wait";
    case TraceEventKind::kWriteBarrierWait: return "write_barrier_wait";
    case TraceEventKind::kGlobalBarrierWait: return "global_barrier_wait";
    case TraceEventKind::kFpuOp: return "fpu_op";
    case TraceEventKind::kDramEnqueue: return "dram_enqueue";
    case TraceEventKind::kDramService: return "dram_service";
    case TraceEventKind::kDramRowMiss: return "dram_row_miss";
    case TraceEventKind::kDramAggregate: return "dram_aggregate";
    case TraceEventKind::kNocTransfer: return "noc_transfer";
    case TraceEventKind::kFault: return "fault";
    case TraceEventKind::kPcieTransfer: return "pcie_transfer";
    case TraceEventKind::kDramBankPipe: return "dram_bank_pipe";
    case TraceEventKind::kServeAdmit: return "serve_admit";
    case TraceEventKind::kServeReject: return "serve_reject";
    case TraceEventKind::kServeQueueWait: return "serve_queue_wait";
    case TraceEventKind::kServeH2D: return "serve_h2d";
    case TraceEventKind::kServeKernel: return "serve_kernel";
    case TraceEventKind::kServeD2H: return "serve_d2h";
    case TraceEventKind::kChipLinkTransfer: return "chip_link_transfer";
  }
  return "unknown";
}

int TraceSink::track(std::string_view name) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const int id = static_cast<int>(track_names_.size());
  track_names_.emplace_back(name);
  track_ids_.emplace(track_names_.back(), id);
  return id;
}

int TraceSink::current_track() {
  if (!engine_.in_process()) return track("host");
  return track(engine_.current().name());
}

std::vector<const TraceEvent*> TraceSink::canonical_order() const {
  std::vector<const TraceEvent*> order;
  order.reserve(events_.size());
  for (const TraceEvent& e : events_) order.push_back(&e);
  // Stable: events of one track at one time keep their record order.
  std::stable_sort(order.begin(), order.end(),
                   [this](const TraceEvent* x, const TraceEvent* y) {
                     if (x->ts != y->ts) return x->ts < y->ts;
                     return track_name(x->track) < track_name(y->track);
                   });
  return order;
}

std::string TraceSink::canonical() const {
  std::ostringstream os;
  for (const TraceEvent* ep : canonical_order()) {
    const TraceEvent& e = *ep;
    os << e.ts << ' ' << e.dur << ' ' << to_string(e.kind) << ' '
       << track_name(e.track) << ' ' << e.core << ' ' << e.a << ' ' << e.b
       << ' ' << e.addr << ' ' << e.bytes << '\n';
  }
  return os.str();
}

std::uint64_t TraceSink::hash() const {
  // FNV-1a 64: stable, dependency-free, good enough to pin a text stream.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : canonical()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ttsim::sim
