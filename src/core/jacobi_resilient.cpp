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
  // A generation may resume mid-solve: the whole solve is verified at the end.
  DeviceRunConfig generation_cfg = cfg;
  generation_cfg.verify = false;

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

    // checkpoint_every sweeps per launch, sealed between launches (the solve
    // body's readback reads the last). Kernel time goes straight into `res`:
    // the launches a lost generation finished still count.
    auto segments = [&](auto& grids, const detail::CoreSelection& sel, DeviceRunResult&) {
      const int sweeps = remaining;
      for (;;) {
        const int chunk = std::min(options.checkpoint_every, remaining);
        res.kernel_time += grids.launch(chunk, sel);
        remaining -= chunk;
        if (remaining == 0) return sweeps;
        std::vector<std::vector<bfloat16_t>> images(g.fields.size());
        for (int f = 0; f < static_cast<int>(g.fields.size()); ++f) {
          if (g.written_pass(f) < 0) continue;
          auto& image = images[static_cast<std::size_t>(f)];
          image.resize(grids.layout().elems());
          grids.read(f, image, device->command_queue(0), /*blocking=*/true);
        }
        state.seal(g, std::move(images));
      }
    };
    try {
      // Shrinks onto the surviving workers and restores the checkpoint.
      DeviceRunResult run = detail::solve_on_device(
          *device, g, generation_cfg, detail::Surface::kSolve, segments, state);
      res.solution = std::move(run.fields[static_cast<std::size_t>(g.primary_field())]);
      res.cores_used = run.cores_used;
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      break;
    } catch (const ttmetal::DeviceTimeoutError&) {
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      // Only a launch times out: the one in flight when the watchdog fired.
      res.iterations_replayed += std::min(options.checkpoint_every, remaining);
      ++res.restarts;
      if (res.restarts > options.max_restarts) throw;
      // The wedged generation (and its buffers) is dropped; the next one
      // shrinks onto the survivors and restores the checkpoint.
    }
  }

  if (fault_plan != nullptr) res.fault_summary = fault_plan->trace_string();
  if (cfg.verify) {
    res.verified_ok = detail::matches_general_reference(g, {&res.solution, 1});
  }
  return res;
}

}  // namespace ttsim::core
