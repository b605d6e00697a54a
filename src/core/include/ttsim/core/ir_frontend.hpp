#pragma once
/// \file ir_frontend.hpp
/// Problem-level entry points into the dataflow IR: build the protocol
/// graph a device run of the given problem/config would execute, without
/// opening a device. The graphs carry real geometry (decomposition,
/// chunking, slot-ring and slab sizing) but placeholder DRAM addresses,
/// so they are for static checking (ir::check) and inspection (ir::dump).
/// The device drivers build the same graphs over live addresses and lower
/// every row-chunk, SRAM-resident and temporal launch through them.

#include <cstdint>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/ir.hpp"

namespace ttsim::core {

/// IR graph of the Jacobi program `cfg` would launch for `p`. Supported
/// strategies: kRowChunk, kSramResident, kTemporal (the Section-IV tiled
/// programs predate the flow-controlled protocol the IR models); anything
/// else throws ApiError, as do configs the device driver itself would
/// reject — the graph runs the driver's own launch-config check (bad
/// decomposition, read-ahead out of range, temporal depth that overflows
/// L1, ...).
ir::Graph jacobi_ir_graph(const JacobiProblem& p, const DeviceRunConfig& cfg,
                          std::int64_t sram_bytes = std::int64_t{1} << 20);

/// IR graph of the general radius-1 stencil program `cfg` would launch
/// for `p` (row-chunk, SRAM-resident or temporal lowering).
ir::Graph general_ir_graph(const GeneralStencilProblem& p,
                           const DeviceRunConfig& cfg,
                           std::int64_t sram_bytes = std::int64_t{1} << 20);

}  // namespace ttsim::core
