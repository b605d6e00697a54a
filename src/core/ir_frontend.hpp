#pragma once
/// \file ir_frontend.hpp (internal)
/// Builders that model an already-resolved kernel-shared state as a
/// dataflow-IR Graph. Each returned graph's emit closure is the kind's
/// strategy -> builder switch (build_jacobi_program /
/// build_general_program), so ir::lower(graph, prog) first proves the
/// protocol sound and then produces exactly the Program that switch
/// builds.
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

/// Protocol graph of the program build_rowchunk_program /
/// build_classic_sram_program / build_temporal_program (keyed on
/// sh->strategy) would emit for `sh`. The row-chunk graph keeps the
/// read-ahead depth symbolic with range [2, max(8, depth)], so the checker
/// proves the slot-ring and credit arithmetic for every depth, not just
/// the one being launched.
ir::Graph make_jacobi_graph(std::shared_ptr<KernelShared> sh,
                            std::int64_t sram_bytes);

/// Same for the general radius-1 frontend: the row-chunk group, the
/// SRAM-resident program or the temporal group, keyed on sh->strategy.
ir::Graph make_general_graph(std::shared_ptr<GeneralShared> sh,
                             std::int64_t sram_bytes);

}  // namespace ttsim::core::detail
