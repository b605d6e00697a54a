#pragma once
/// \file ir_frontend.hpp (internal)
/// Builders that model an already-resolved kernel-shared state as a
/// dataflow-IR Graph. Each returned graph's emit closure is the general
/// frontend's strategy -> builder switch (build_general_program), so
/// ir::lower(graph, prog) first proves the protocol sound and then produces
/// exactly the Program that switch builds.
///
/// Programs with no IR graph: the Section-IV tiled programs, and the
/// batched launches — several independent solves share one Program there,
/// which the single-group graphs don't model.

#include <cstdint>
#include <memory>

#include "jacobi_internal.hpp"
#include "stencil_internal.hpp"
#include "ttsim/ir/ir.hpp"

namespace ttsim::core::detail {

/// Protocol graph of a certified classic Jacobi launch: the graph of the
/// general program classic_program makes (make_general_graph).
ir::Graph make_jacobi_graph(std::shared_ptr<KernelShared> sh,
                            std::int64_t sram_bytes);

/// Protocol graph of a general program: the row-chunk group, the
/// SRAM-resident program or the temporal group, keyed on sh->strategy.
ir::Graph make_general_graph(std::shared_ptr<GeneralShared> sh,
                             std::int64_t sram_bytes);

}  // namespace ttsim::core::detail
