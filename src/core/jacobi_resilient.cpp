/// \file jacobi_resilient.cpp
/// Checkpoint/restart Jacobi driver (see resilience.hpp). Recovery layers:
///   1. Checksummed PCIe transfers retry transient corruption inside the
///      Device (bounded, exponential backoff) — invisible here except in the
///      retry counter.
///   2. The per-launch watchdog turns hangs (core failures parking kernels)
///      into DeviceTimeoutError; this driver answers by dropping the wedged
///      device generation, shrinking the decomposition onto the surviving
///      workers and replaying from the last checkpoint.
/// Checkpoints are exact BF16 device images, so replay — even on a smaller
/// core grid, which changes nothing about per-element arithmetic — is
/// bit-identical to an undisturbed run and still verifies against the CPU
/// reference.

#include "ttsim/core/resilience.hpp"

#include <algorithm>
#include <utility>

#include "jacobi_internal.hpp"
#include "ttsim/core/field_grids.hpp"
#include "ttsim/core/stencil.hpp"

namespace ttsim::core {

namespace {

SimTime auto_watchdog(const JacobiProblem& p, int chunk_iters) {
  // ~100 ns per point-update is three orders of magnitude above the e150's
  // streaming rate, so a legitimate chunk cannot trip it; a genuine hang
  // drains the event queue and is detected immediately regardless of the
  // bound, which therefore only has to catch livelock.
  const double updates = static_cast<double>(p.width) *
                         static_cast<double>(p.height) *
                         static_cast<double>(chunk_iters);
  return 10 * kMillisecond +
         static_cast<SimTime>(updates * 100.0 * static_cast<double>(kNanosecond));
}

}  // namespace

ResilientRunResult run_jacobi_resilient(const JacobiProblem& p,
                                        const DeviceRunConfig& cfg,
                                        const ResilienceOptions& options,
                                        std::shared_ptr<sim::FaultPlan> fault_plan,
                                        sim::GrayskullSpec spec) {
  detail::validate_launch(p, cfg, detail::Surface::kSolve, spec.worker_cores);
  if (options.checkpoint_every < 1) {
    TTSIM_THROW_API("checkpoint_every must be >= 1");
  }
  if (options.max_restarts < 0) TTSIM_THROW_API("max_restarts must be >= 0");
  if (!cfg.toggles.all_enabled()) {
    TTSIM_THROW_API("resilient solving runs the full pipeline (the Table II "
                    "toggles are a measurement instrument)");
  }
  const PaddedLayout layout(p.width, p.height);

  ResilientRunResult res;
  // The running checkpoint: the exact BF16 device image after the sweeps
  // completed so far. Restarting from it replays bit-exactly.
  std::vector<bfloat16_t> checkpoint = layout.initial_image(p);
  int remaining = p.iterations;

  for (;;) {
    ttmetal::DeviceConfig dc;
    dc.sim_time_limit =
        auto_watchdog(p, std::min(options.checkpoint_every, remaining));
    dc.checksum_transfers = true;
    dc.fault_plan = fault_plan;
    auto device = ttmetal::Device::open(spec, dc);

    // Shrink onto the workers that survived earlier generations.
    const detail::CoreSelection sel = detail::select_cores(*device, p, cfg);
    res.cores_used = sel.ncores();

    int in_flight = 0;
    try {
      FieldGrids grids(*device, to_general(p), cfg);
      auto& cq = device->command_queue(0);
      grids.stage(0, checkpoint, cq, /*blocking=*/true);
      while (remaining > 0) {
        in_flight = std::min(options.checkpoint_every, remaining);
        res.kernel_time += grids.launch(in_flight, sel);
        remaining -= in_flight;
        in_flight = 0;
        // Snapshot the freshest grid as the new checkpoint.
        std::vector<bfloat16_t> image(layout.elems());
        grids.read(0, image, cq, /*blocking=*/true);
        checkpoint = std::move(image);
      }
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      break;
    } catch (const ttmetal::DeviceTimeoutError&) {
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      res.iterations_replayed += in_flight;
      ++res.restarts;
      if (res.restarts > options.max_restarts) throw;
      // The wedged generation (and its buffers) is dropped; the next one
      // shrinks onto the survivors and restores the checkpoint.
    }
  }

  res.solution = layout.extract_interior(checkpoint);
  if (fault_plan != nullptr) res.fault_summary = fault_plan->trace_string();
  if (cfg.verify) res.verified_ok = detail::matches_reference(p, res.solution);
  return res;
}

}  // namespace ttsim::core
