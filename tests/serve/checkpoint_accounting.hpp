#pragma once
/// \file checkpoint_accounting.hpp
/// Exact expectations for the service's checkpoint metrics, derived from a
/// test's own scenario instead of lower bounds.

#include <cstdint>

#include "ttsim/core/problem.hpp"
#include "ttsim/core/stencil_spec.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::serve::accounting {

/// Sweeps a checkpointed solve has sealed when a kill lands at `kill_at` on
/// the timeline of its fault-free run: one `segment` per kernel span that
/// ended by then. A kill after a segment's kernel lets that segment's
/// readback land and its checkpoint seal; the segment running at `kill_at`
/// is the one lost, so a retry saves exactly these sweeps.
inline std::uint64_t sweeps_sealed_before(const sim::TraceSink& clean_spans,
                                          SimTime kill_at, int segment) {
  std::uint64_t sealed = 0;
  for (const sim::TraceEvent& e : clean_spans.events()) {
    if (e.kind == sim::TraceEventKind::kServeKernel && e.ts + e.dur <= kill_at) {
      sealed += static_cast<std::uint64_t>(segment);
    }
  }
  return sealed;
}

/// Bytes `taken` checkpoints of `p` hold: one padded image per written field.
inline std::uint64_t checkpoint_bytes(std::uint64_t taken,
                                      const core::GeneralStencilProblem& p) {
  std::uint64_t written = 0;
  for (int f = 0; f < static_cast<int>(p.fields.size()); ++f) {
    if (p.written_pass(f) >= 0) ++written;
  }
  return taken * written * core::PaddedLayout(p.width, p.height).bytes();
}

}  // namespace ttsim::serve::accounting
