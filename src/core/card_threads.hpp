#pragma once
/// \file card_threads.hpp
/// Host-thread executor for the per-card phases of a multi-card run. Each
/// card is an independent simulated Device (own engine, DRAM, trace sink),
/// so work that touches only one card may run on its own host thread; see
/// DESIGN.md "Multi-chip sharding", *Host threads*.

#include <functional>
#include <span>

#include "ttsim/ttmetal/device.hpp"

namespace ttsim::core::detail {

/// Run `body(i)` for every card i in [0, devices.size()): card 0 on the
/// calling thread, every other card on its own std::jthread. A POSIX thread
/// starts in its creator's floating-point environment, so every card's
/// kernels round under the caller's MXCSR. Joins every thread, then
/// rethrows the exception of the lowest-index card that threw.
///
/// When any card carries a fault plan or a watchdog (sim_time_limit > 0),
/// the same body runs inline in card order instead, and the first exception
/// propagates at once, leaving the later cards unrun: a plan may be shared
/// between cards and rolls one Rng in engine order, and a caller recovering
/// from a failed card reads every card's clock as the failure left it.
void for_each_card(std::span<ttmetal::Device* const> devices,
                   const std::function<void(int)>& body);

}  // namespace ttsim::core::detail
