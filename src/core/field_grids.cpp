#include "ttsim/core/field_grids.hpp"

#include <utility>

#include "ir_frontend.hpp"
#include "stencil_internal.hpp"
#include "ttsim/ir/lower.hpp"
#include "ttsim/ttmetal/command_queue.hpp"

namespace ttsim::core {

GeneralStencilProblem detail::structure_of(const GeneralStencilProblem& p) {
  GeneralStencilProblem s{p.width, p.height, p.iterations, {}, p.passes};
  for (const FieldSpec& f : p.fields) {
    s.fields.push_back({f.name, f.bc_left, f.bc_right, f.bc_top, f.bc_bottom,
                        f.initial, {}});
  }
  return s;
}

FieldGrids::FieldGrids(ttmetal::Device& device, const GeneralStencilProblem& program,
                       const DeviceRunConfig& cfg, const std::string& name)
    : device_(&device),
      program_(detail::structure_of(program)),
      cfg_(cfg),
      layout_(program.width, program.height) {
  const ttmetal::BufferConfig base = detail::grid_buffer_config(cfg, layout_);
  auto create = [&](int f, int d) {
    ttmetal::BufferConfig bc = base;
    if (!name.empty()) {
      bc.name = name + "-f" + std::to_string(f) + "-d" + std::to_string(d);
    }
    return device.create_buffer(bc);
  };
  const int nfields = static_cast<int>(program.fields.size());
  fields_.resize(static_cast<std::size_t>(nfields));
  for (int f = 0; f < nfields; ++f) {
    Field& field = fields_[static_cast<std::size_t>(f)];
    field.d1 = create(f, 1);
    if (program.written_pass(f) >= 0) field.d2 = create(f, 2);
  }
}

void FieldGrids::stage(int f, std::span<const bfloat16_t> image,
                       ttmetal::CommandQueue& cq, bool blocking) {
  TTSIM_CHECK_MSG(image.size() == layout_.elems(),
                  "staged image does not match the grid layout");
  Field& field = fields_.at(static_cast<std::size_t>(f));
  cq.enqueue_write_buffer(*field.d1, std::as_bytes(image), blocking);
  if (field.d2) cq.enqueue_write_buffer(*field.d2, std::as_bytes(image), blocking);
  field.fresh = -1;
}

void FieldGrids::read(int f, std::span<bfloat16_t> out, ttmetal::CommandQueue& cq,
                      bool blocking) const {
  cq.enqueue_read_buffer(fresh(f), std::as_writable_bytes(out), blocking);
}

ttmetal::Buffer& FieldGrids::fresh(int f) const {
  const Field& field = fields_.at(static_cast<std::size_t>(f));
  return field.fresh == 1 ? *field.d2 : *field.d1;
}

ttmetal::Buffer& FieldGrids::stale(int f) const {
  const Field& field = fields_.at(static_cast<std::size_t>(f));
  TTSIM_CHECK_MSG(field.d2 != nullptr, "a read-only field has no stale grid");
  return field.fresh == 1 ? *field.d1 : *field.d2;
}

GeneralBatchSlot FieldGrids::bind(int sweeps, std::vector<int> core_ids) {
  const detail::SweepParity rule{sweeps, cfg_.strategy, cfg_.temporal_depth};
  const int start = rule.after(-1);
  const int end = rule.after(rule.generations() - 1);
  GeneralBatchSlot slot;
  slot.core_ids = std::move(core_ids);
  for (Field& field : fields_) {
    if (!field.d2) {
      slot.d1.push_back(field.d1->address());
      slot.d2.push_back(0);
      continue;
    }
    // Swap the pair when the launch would otherwise start from the stale
    // buffer; the launch's parity `end` then names the physical buffer
    // through the same swap.
    const bool swap = field.fresh >= 0 && field.fresh != start;
    slot.d1.push_back((swap ? field.d2 : field.d1)->address());
    slot.d2.push_back((swap ? field.d1 : field.d2)->address());
    field.fresh = swap ? 1 - end : end;
  }
  return slot;
}

SimTime FieldGrids::launch(int sweeps, const detail::CoreSelection& sel,
                           std::uint64_t residual_addr) {
  GeneralBatchSlot slot = bind(sweeps, {});
  ttmetal::Program prog;
  if (detail::is_tiled(cfg_.strategy)) {
    // The Section IV programs predate the flow-controlled protocol the IR
    // models: built directly.
    JacobiProblem chunk = program_.geometry();
    chunk.iterations = sweeps;
    detail::build_tiled_program(
        prog, detail::resolve_tiled(chunk, cfg_, sel, slot.d1[0], slot.d2[0]));
  } else {
    // Prove the protocol race/deadlock-free, then lower; the graph's emit
    // closure is build_general_program.
    program_.iterations = sweeps;
    auto sh = detail::resolve_general(program_, cfg_, sel, std::move(slot.d1),
                                      std::move(slot.d2));
    sh->residual_addr = residual_addr;
    ir::lower(detail::make_general_graph(
                  std::move(sh), static_cast<std::int64_t>(device_->spec().sram_bytes)),
              prog);
  }
  device_->run_program(prog);
  return device_->last_kernel_duration();
}

}  // namespace ttsim::core
