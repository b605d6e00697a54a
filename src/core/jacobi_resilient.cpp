/// \file jacobi_resilient.cpp
/// Checkpoint/restart Jacobi driver (see resilience.hpp). Recovery layers:
///   1. Checksummed PCIe transfers retry transient corruption inside the
///      Device (bounded, exponential backoff) — invisible here except in the
///      retry counter.
///   2. The per-launch watchdog turns hangs (core failures parking kernels)
///      into DeviceTimeoutError; this driver answers by dropping the wedged
///      device generation, shrinking the decomposition onto the surviving
///      workers and replaying from the last checkpoint.
/// Checkpoints (core::Checkpoint) are exact BF16 device images, CRC-sealed
/// on the host, so replay — even on a smaller core grid, which changes
/// nothing about per-element arithmetic — is bit-identical to an
/// undisturbed run and still verifies against the CPU reference.

#include "ttsim/core/resilience.hpp"

#include <algorithm>
#include <utility>

#include "stencil_internal.hpp"
#include "ttsim/core/field_grids.hpp"

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
  const GeneralStencilProblem g = to_general(p);
  const int nfields = static_cast<int>(g.fields.size());

  ResilientRunResult res;
  // The running checkpoint: the state after the sweeps completed so far.
  // Until the first seal a generation stages from the program; restarting
  // from it replays bit-exactly.
  Checkpoint state;
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
      FieldGrids grids(*device, g, cfg);
      auto& cq = device->command_queue(0);
      for (int f = 0; f < nfields; ++f) {
        std::vector<bfloat16_t> built;
        grids.stage(f, state.restore(g, f, built), cq, /*blocking=*/true);
      }
      while (remaining > 0) {
        in_flight = std::min(options.checkpoint_every, remaining);
        res.kernel_time += grids.launch(in_flight, sel);
        remaining -= in_flight;
        in_flight = 0;
        // Seal the freshest written grids as the new checkpoint.
        std::vector<std::vector<bfloat16_t>> images(static_cast<std::size_t>(nfields));
        for (int f = 0; f < nfields; ++f) {
          if (g.written_pass(f) < 0) continue;
          auto& image = images[static_cast<std::size_t>(f)];
          image.resize(grids.layout().elems());
          grids.read(f, image, cq, /*blocking=*/true);
        }
        state.seal(g, std::move(images));
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

  res.solution =
      PaddedLayout(p.width, p.height).extract_interior(state.image(g.primary_field()));
  if (fault_plan != nullptr) res.fault_summary = fault_plan->trace_string();
  if (cfg.verify) {
    res.verified_ok = detail::matches_general_reference(g, {&res.solution, 1});
  }
  return res;
}

}  // namespace ttsim::core
