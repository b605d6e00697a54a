/// \file metrics.cpp
/// Trace aggregation into a MetricsReport and its table rendering.

#include "ttsim/sim/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "ttsim/common/table.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::sim {

double MetricsReport::max_bank_utilization() const {
  double best = 0.0;
  for (std::size_t b = 0; b < banks.size(); ++b) {
    best = std::max(best, bank_utilization(b));
  }
  return best;
}

MetricsReport build_metrics(const TraceSink& sink, int num_banks) {
  MetricsReport rep;
  rep.banks.resize(static_cast<std::size_t>(std::max(0, num_banks)));

  // Kernel tracks are discovered on the fly: any track that records a
  // kernel_start. Keyed by track id; emitted in track order for determinism.
  std::map<int, KernelMetrics> kernels;
  std::map<int, SimTime> launch_start;  // per track, while a launch is open
  bool have_kernel_window = false;
  SimTime first_start = 0, last_end = 0, first_ts = 0, last_ts = 0;
  bool have_any = false;

  auto bank = [&rep](std::int32_t id) -> BankMetrics* {
    if (id < 0 || static_cast<std::size_t>(id) >= rep.banks.size()) return nullptr;
    return &rep.banks[static_cast<std::size_t>(id)];
  };
  auto noc = [&rep](std::int32_t id) -> std::size_t {
    const auto n = static_cast<std::size_t>(std::max(0, id));
    if (n >= rep.noc_bytes.size()) {
      rep.noc_bytes.resize(n + 1, 0);
      rep.noc_requests.resize(n + 1, 0);
      rep.noc_busy.resize(n + 1, 0);
    }
    return n;
  };

  for (const TraceEvent& e : sink.events()) {
    if (!have_any) {
      first_ts = e.ts;
      have_any = true;
    }
    first_ts = std::min(first_ts, e.ts);
    last_ts = std::max(last_ts, e.ts + e.dur);

    KernelMetrics& k = kernels[e.track];  // harmless for non-kernel tracks;
                                          // pruned below if never started
    switch (e.kind) {
      case TraceEventKind::kKernelStart:
        if (k.name.empty()) k.start = e.ts;
        k.name = sink.track_name(e.track);
        k.core = e.core;
        launch_start[e.track] = e.ts;
        if (!have_kernel_window || e.ts < first_start) first_start = e.ts;
        have_kernel_window = true;
        break;
      case TraceEventKind::kKernelEnd:
        k.end = e.ts;
        if (const auto it = launch_start.find(e.track); it != launch_start.end()) {
          k.launched += e.ts - it->second;
          launch_start.erase(it);
        }
        last_end = std::max(last_end, e.ts);
        break;
      case TraceEventKind::kMoverReadIssue:
        k.issue += e.dur;
        k.bytes_read += e.bytes;
        break;
      case TraceEventKind::kMoverWriteIssue:
        k.issue += e.dur;
        k.bytes_written += e.bytes;
        break;
      case TraceEventKind::kMoverMemcpy:
        k.memcpy_time += e.dur;
        k.memcpy_bytes += e.bytes;
        break;
      case TraceEventKind::kFpuOp:
        k.fpu += e.dur;
        break;
      case TraceEventKind::kCbFullWait:
        k.cb_full_wait += e.dur;
        break;
      case TraceEventKind::kCbEmptyWait:
        k.cb_empty_wait += e.dur;
        break;
      case TraceEventKind::kSemWait:
        k.sem_wait += e.dur;
        break;
      case TraceEventKind::kReadBarrierWait:
        k.read_barrier_wait += e.dur;
        break;
      case TraceEventKind::kWriteBarrierWait:
        k.write_barrier_wait += e.dur;
        break;
      case TraceEventKind::kGlobalBarrierWait:
        k.global_barrier_wait += e.dur;
        break;
      case TraceEventKind::kCbPush:
      case TraceEventKind::kCbPop:
        rep.cb_occupancy[{e.core, e.a}][e.b] += 1;
        break;
      case TraceEventKind::kDramEnqueue:
        if (BankMetrics* bm = bank(e.a)) bm->queue_wait += e.dur;
        break;
      case TraceEventKind::kDramService:
        if (BankMetrics* bm = bank(e.a)) {
          bm->requests += 1;
          bm->bytes += e.bytes;
        }
        break;
      case TraceEventKind::kDramRowMiss:
        if (BankMetrics* bm = bank(e.a)) bm->row_misses += 1;
        break;
      case TraceEventKind::kDramBankPipe:
        if (BankMetrics* bm = bank(e.a)) {
          bm->pipe_busy += e.dur;
          bm->pipe_segments += 1;
        }
        break;
      case TraceEventKind::kNocTransfer: {
        const std::size_t n = noc(e.a);
        rep.noc_bytes[n] += e.bytes;
        rep.noc_requests[n] += 1;
        rep.noc_busy[n] += e.dur;
        break;
      }
      case TraceEventKind::kFault:
        rep.fault_injections += 1;
        break;
      case TraceEventKind::kPcieTransfer:
        rep.pcie_transfers += 1;
        rep.pcie_bytes += e.bytes;
        break;
      default:
        break;
    }
  }

  if (have_kernel_window) {
    rep.window_begin = first_start;
    rep.window_end = std::max(last_end, first_start);
  } else if (have_any) {
    rep.window_begin = first_ts;
    rep.window_end = last_ts;
  }

  // Occupancy counts only inside the window it is divided by: service still
  // draining after the last kernel ends would read a bank above 100% busy.
  const auto inside = [&rep](const TraceEvent& e) {
    return std::max<SimTime>(0, std::min(e.ts + e.dur, rep.window_end) -
                                    std::max(e.ts, rep.window_begin));
  };
  for (const TraceEvent& e : sink.events()) {
    if (e.kind == TraceEventKind::kDramService) {
      if (BankMetrics* bm = bank(e.a)) bm->busy += inside(e);
    } else if (e.kind == TraceEventKind::kDramAggregate) {
      rep.aggregate_busy += inside(e);
    }
  }

  for (auto& [track, k] : kernels) {
    if (!k.name.empty()) rep.kernels.push_back(std::move(k));
  }
  return rep;
}

std::string MetricsReport::to_string() const {
  std::ostringstream os;
  const auto us = [](SimTime t) {
    return Table::fmt(static_cast<double>(t) * 1e-6, 2);
  };
  os << "window: " << us(span()) << " us  (begin " << us(window_begin)
     << " us, end " << us(window_end) << " us)\n\n";

  {
    Table t{"Bank", "Requests", "Row misses", "MiB", "Utilization",
            "Mean queue depth"};
    for (std::size_t b = 0; b < banks.size(); ++b) {
      const BankMetrics& bm = banks[b];
      t.add_row(static_cast<int>(b), bm.requests, bm.row_misses,
                Table::fmt(static_cast<double>(bm.bytes) / (1024.0 * 1024.0), 2),
                Table::fmt(bank_utilization(b), 3),
                Table::fmt(bank_mean_queue_depth(b), 2));
    }
    t.add_row("aggregate", "-", "-", "-",
              Table::fmt(aggregate_utilization(), 3), "-");
    os << "DRAM\n";
    t.print(os);
    bool any_pipe = false;
    for (const BankMetrics& bm : banks) any_pipe |= bm.pipe_segments > 0;
    if (any_pipe) {
      Table p{"Bank", "Pipelined segs", "Cmd-stage us"};
      for (std::size_t b = 0; b < banks.size(); ++b) {
        p.add_row(static_cast<int>(b), banks[b].pipe_segments,
                  us(banks[b].pipe_busy));
      }
      os << "Bank pipeline (cmd stage overlapping data transfer)\n";
      p.print(os);
    }
    os << '\n';
  }

  if (!kernels.empty()) {
    Table t{"Kernel",    "Core",     "Lifetime us", "Issue us",
            "Memcpy us", "FPU us",   "CB full us",  "CB empty us",
            "Sem us",    "Barrier us"};
    for (const KernelMetrics& k : kernels) {
      t.add_row(k.name, k.core, us(k.lifetime()), us(k.issue),
                us(k.memcpy_time), us(k.fpu), us(k.cb_full_wait),
                us(k.cb_empty_wait), us(k.sem_wait),
                us(k.read_barrier_wait + k.write_barrier_wait +
                   k.global_barrier_wait));
    }
    os << "Kernels\n";
    t.print(os);
    os << '\n';
  }

  {
    Table t{"NoC", "Transfers", "MiB", "Busy us"};
    for (std::size_t n = 0; n < noc_bytes.size(); ++n) {
      t.add_row(static_cast<int>(n), noc_requests[n],
                Table::fmt(static_cast<double>(noc_bytes[n]) / (1024.0 * 1024.0), 2),
                us(noc_busy[n]));
    }
    if (t.row_count() > 0) {
      os << "NoC\n";
      t.print(os);
      os << '\n';
    }
  }

  if (!cb_occupancy.empty()) {
    Table t{"Core", "CB", "Occupancy histogram (pages:samples)"};
    for (const auto& [key, hist] : cb_occupancy) {
      std::ostringstream h;
      const char* sep = "";
      for (const auto& [pages, count] : hist) {
        h << sep << pages << ':' << count;
        sep = " ";
      }
      t.add_row(key.first, key.second, h.str());
    }
    os << "Circular buffers\n";
    t.print(os);
    os << '\n';
  }

  if (fault_injections > 0 || pcie_transfers > 0) {
    os << "faults injected: " << fault_injections
       << "  pcie transfers: " << pcie_transfers << " ("
       << Table::fmt(static_cast<double>(pcie_bytes) / (1024.0 * 1024.0), 2)
       << " MiB)\n";
  }
  return os.str();
}

}  // namespace ttsim::sim
