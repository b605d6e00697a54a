#pragma once
/// \file resilience.hpp
/// Fault-tolerant Jacobi driver: checkpoint/restart on top of the Device
/// watchdog, checksummed transfers and faulty-core remapping.
///
/// The solve proceeds in chunks of `checkpoint_every` iterations; after each
/// chunk the freshest grid is snapshotted to the host. A hang (watchdog
/// timeout — e.g. a FaultPlan core kill parking a kernel forever) wedges the
/// simulated card, so recovery opens a *fresh* Device generation, shrinks
/// the decomposition onto the surviving workers (the FaultPlan remembers
/// failed silicon across reopens), re-uploads the last checkpoint and
/// replays from there. Replay is BF16-bit-exact: the checkpoint is the exact
/// device image, so a recovered solve still verifies against the CPU
/// reference.

#include <memory>
#include <string>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/sim/fault.hpp"

namespace ttsim::core {

/// Every launched chunk runs under a watchdog bound derived from its update
/// count (a true hang drains the event queue and is detected immediately
/// regardless, so the bound only trips livelock), and every host<->device
/// transfer is CRC-verified, transient corruption retried.
struct ResilienceOptions {
  /// Iterations between host-side checkpoints (also the launch chunk size).
  int checkpoint_every = 100;
  /// Give up after this many device-generation restarts.
  int max_restarts = 3;
};

/// `kernel_time` sums the successful launches, `total_time` every
/// generation including the lost ones, `transfer_retries` every
/// generation's checksummed-transfer retries, and `cores_used` is the grid
/// of the final (surviving) generation.
struct ResilientRunResult : DeviceRunResult {
  int restarts = 0;             ///< device generations lost to faults
  int iterations_replayed = 0;  ///< sweeps re-run after restoring checkpoints
  /// Canonical fault trace of the run's FaultPlan (empty without faults);
  /// byte-identical when re-run with the same seed, config and workload.
  std::string fault_summary;
};

/// Run `p` to completion despite injected faults. `fault_plan` may be null
/// (pure-overhead mode: watchdog + checksums + checkpoints, no injection).
/// Throws only when recovery is exhausted (restarts > max_restarts) or on a
/// non-recoverable transfer failure (ttmetal::TransferError carries the
/// original fault).
ResilientRunResult run_jacobi_resilient(const JacobiProblem& p,
                                        const DeviceRunConfig& config,
                                        const ResilienceOptions& options,
                                        std::shared_ptr<sim::FaultPlan> fault_plan,
                                        sim::GrayskullSpec spec = {});

}  // namespace ttsim::core
