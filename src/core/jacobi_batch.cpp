#include "ttsim/core/jacobi_batch.hpp"

#include "jacobi_internal.hpp"

namespace ttsim::core {

void build_batched_rowchunk_program(ttmetal::Program& prog, const JacobiProblem& p,
                                    const DeviceRunConfig& cfg,
                                    const std::vector<BatchSlot>& slots) {
  validate_batch_request(p, cfg);
  detail::check_batch_slots(slots, static_cast<std::size_t>(cfg.cores_x * cfg.cores_y));
  // One resolve for the batch: the slots differ only in their grids,
  // workers and barrier.
  const auto base = detail::resolve_jacobi(p, cfg, detail::requested_cores(cfg), 0, 0);
  for (std::size_t g = 0; g < slots.size(); ++g) {
    auto shared = std::make_shared<detail::KernelShared>(*base);
    shared->d1 = slots[g].d1;
    shared->d2 = slots[g].d2;
    shared->core_ids = slots[g].core_ids;
    shared->barrier_id = static_cast<int>(g);
    detail::build_jacobi_program(prog, std::move(shared));
  }
}

void validate_batch_request(const JacobiProblem& p, const DeviceRunConfig& cfg) {
  detail::validate_launch(p, cfg, detail::Surface::kBatch, 0);
}

ttmetal::BufferConfig batch_grid_buffer_config(const DeviceRunConfig& cfg,
                                               const JacobiProblem& p) {
  return detail::grid_buffer_config(cfg, PaddedLayout(p.width, p.height));
}

}  // namespace ttsim::core
