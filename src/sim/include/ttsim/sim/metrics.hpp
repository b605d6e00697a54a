#pragma once
/// \file metrics.hpp
/// Aggregated metrics derived from a recorded trace: per-bank utilization
/// and mean queue depth, per-kernel stall breakdowns, circular-buffer
/// occupancy histograms and per-NoC traffic. This is the quantitative form
/// of the paper's bottleneck-attribution arguments — "the movers are
/// memcpy-bound" (Table II) or "two cores saturate one bank" (Table VII)
/// become assertions over these numbers instead of prose
/// (tests/trace/test_attribution.cpp, bench/attr_bottleneck).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ttsim/common/units.hpp"

namespace ttsim::sim {

class TraceSink;

/// One DRAM bank over the report window.
struct BankMetrics {
  std::uint64_t requests = 0;    ///< service intervals (one per segment)
  std::uint64_t row_misses = 0;  ///< row re-activations charged
  std::uint64_t bytes = 0;       ///< payload serviced
  SimTime busy = 0;              ///< service occupancy inside the window
  SimTime queue_wait = 0;        ///< total time requests sat queued
  /// Command-stage occupancy under pipelined bank service (zero when the
  /// model runs serialised): processing + row activation overlapping the
  /// previous request's data transfer. busy then counts the data stage
  /// only, so pipe_busy is the work the pipeline hid from the queue.
  SimTime pipe_busy = 0;
  std::uint64_t pipe_segments = 0;  ///< kDramBankPipe events seen
};

/// One kernel process (one trace track with kernel start/end events).
struct KernelMetrics {
  std::string name;        ///< process/track name
  int core = -1;           ///< worker index
  SimTime start = 0;       ///< first kernel_start on the track
  SimTime end = 0;         ///< last kernel_end on the track
  /// Sum over the track's launches of kernel_end - kernel_start (a launch
  /// that never ended adds nothing), so gaps between launches do not count.
  SimTime launched = 0;
  SimTime issue = 0;       ///< NoC read/write issue overhead
  SimTime memcpy_time = 0; ///< baby-core software memcpy
  SimTime fpu = 0;         ///< FPU math/pack occupancy
  SimTime cb_full_wait = 0;
  SimTime cb_empty_wait = 0;
  SimTime sem_wait = 0;
  SimTime read_barrier_wait = 0;
  SimTime write_barrier_wait = 0;
  SimTime global_barrier_wait = 0;
  std::uint64_t bytes_read = 0;     ///< NoC read payload issued
  std::uint64_t bytes_written = 0;  ///< NoC write payload issued
  std::uint64_t memcpy_bytes = 0;

  SimTime lifetime() const { return launched; }
  /// Time attributable to the mover's own CPU: issue overhead + memcpy.
  SimTime self_busy() const { return issue + memcpy_time + fpu; }
  SimTime total_wait() const {
    return cb_full_wait + cb_empty_wait + sem_wait + read_barrier_wait +
           write_barrier_wait + global_barrier_wait;
  }
};

/// Everything build_metrics() distils from one trace.
struct MetricsReport {
  SimTime window_begin = 0;  ///< first kernel_start (or first event)
  SimTime window_end = 0;    ///< last kernel_end (or last event end)
  SimTime span() const { return window_end - window_begin; }

  std::vector<BankMetrics> banks;  ///< indexed by bank id
  SimTime aggregate_busy = 0;      ///< DDR aggregate-bus occupancy in the window
  std::vector<KernelMetrics> kernels;  ///< in track order (deterministic)

  /// NoC traffic, indexed by NoC id.
  std::vector<std::uint64_t> noc_bytes;
  std::vector<std::uint64_t> noc_requests;
  std::vector<SimTime> noc_busy;

  /// Occupancy histograms: (core, cb_id) -> {pages -> samples}. Sampled
  /// after every push and pop, so it is occupancy weighted by transition
  /// count, not by time.
  std::map<std::pair<int, int>, std::map<int, std::uint64_t>> cb_occupancy;

  std::uint64_t fault_injections = 0;
  std::uint64_t pcie_transfers = 0;
  std::uint64_t pcie_bytes = 0;

  double bank_utilization(std::size_t bank) const {
    if (bank >= banks.size() || span() <= 0) return 0.0;
    return static_cast<double>(banks[bank].busy) / static_cast<double>(span());
  }
  double max_bank_utilization() const;
  /// Mean outstanding requests at the bank (Little's law: total queue wait
  /// over the window).
  double bank_mean_queue_depth(std::size_t bank) const {
    if (bank >= banks.size() || span() <= 0) return 0.0;
    return static_cast<double>(banks[bank].queue_wait) /
           static_cast<double>(span());
  }
  double aggregate_utilization() const {
    if (span() <= 0) return 0.0;
    return static_cast<double>(aggregate_busy) / static_cast<double>(span());
  }

  /// Human-readable multi-table rendering (bank table, kernel stall
  /// breakdown, NoC traffic, CB histograms).
  std::string to_string() const;
};

/// Aggregate a recorded trace. `num_banks` sizes the bank vector so banks
/// that saw no traffic still report zero utilization.
MetricsReport build_metrics(const TraceSink& sink, int num_banks);

}  // namespace ttsim::sim
