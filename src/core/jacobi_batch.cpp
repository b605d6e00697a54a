#include "ttsim/core/jacobi_batch.hpp"

#include "ttsim/core/stencil.hpp"

namespace ttsim::core {

void build_batched_rowchunk_program(ttmetal::Program& prog, const JacobiProblem& p,
                                    const DeviceRunConfig& cfg,
                                    const std::vector<BatchSlot>& slots) {
  std::vector<GeneralBatchSlot> general;
  general.reserve(slots.size());
  for (const BatchSlot& s : slots) general.push_back({{s.d1}, {s.d2}, s.core_ids});
  build_batched_stencil_program(prog, to_general(p), cfg, general);
}

void validate_batch_request(const JacobiProblem& p, const DeviceRunConfig& cfg) {
  validate_stencil_request(to_general(p), cfg);
}

}  // namespace ttsim::core
