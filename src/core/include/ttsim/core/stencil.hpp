#pragma once
/// \file stencil.hpp
/// Radius-1 stencils on the simulated Grayskull — the paper's future-work
/// direction ("we are now looking at more complex stencil algorithms, such
/// as atmospheric advection, on the Grayskull") grown into a general
/// frontend.
///
/// A GeneralStencilProblem (stencil_spec.hpp) names up to four fields and
/// a list of passes, each a weighted sum over the 3x3 neighbourhood with
/// an optional threshold post-op. The lowering compiles each pass onto the
/// Section VI row-chunk machinery (aliased CB read pointers, configurable
/// read-ahead), onto the SRAM-resident strategy (single-field single-pass
/// programs) or onto temporal tiling (single-pass programs), with all
/// products and sums performed in BF16 in the listed term order, so device
/// results are bit-exact replays of cpu::general_reference_bf16. Classic
/// Jacobi is the one-pass program to_general(const JacobiProblem&) makes,
/// and run_jacobi_on_device runs it through the same solve body.

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil_spec.hpp"

namespace ttsim::core {

/// The result of a general-frontend run: one interior per field in
/// `fields`, plus the primary field's interior again as `solution` (the
/// target of the last pass — what a service request returns).
using GeneralRunResult = DeviceRunResult;

/// Run a general radius-1 stencil program. `config.strategy` must be
/// kRowChunk (any problem), kSramResident (single-field single-pass,
/// cores_x == 1) or kTemporal (single-pass, cores_x == 1); the launch-config
/// checks are the Jacobi driver's, and the program is certified by the
/// dataflow IR before it launches. Throws ApiError on a config it rejects.
/// With config.verify the result is checked bit-exact against
/// cpu::general_reference_bf16.
GeneralRunResult run_general_stencil_on_device(ttmetal::Device& device,
                                               const GeneralStencilProblem& p,
                                               const DeviceRunConfig& config);
GeneralRunResult run_general_stencil_on_device(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& config,
                                               sim::GrayskullSpec spec = {});

/// One slot of a batched general-stencil launch: per-field grid buffer
/// addresses (d2 entries of read-only fields may be 0) and the disjoint
/// physical workers running the slot.
struct GeneralBatchSlot {
  std::vector<std::uint64_t> d1, d2;
  std::vector<int> core_ids;
};

/// Build one program running `p` independently on every slot (row-chunk
/// or temporal lowering). A batch of B requests pays the program-dispatch
/// cost once instead of B times and runs the B kernels in parallel across
/// the grid — the throughput lever the serving layer builds on. Each group
/// gets its own iteration barrier, so groups never synchronise with each
/// other; CBs, semaphores and L1 scratch are per-core resources and
/// replicate cleanly across disjoint groups. Throws ApiError on invalid
/// decompositions or overlapping slot core sets.
void build_batched_stencil_program(ttmetal::Program& prog,
                                   const GeneralStencilProblem& p,
                                   const DeviceRunConfig& cfg,
                                   const std::vector<GeneralBatchSlot>& slots);

/// Admission-time validation of a general-stencil batch slot: structural
/// problem validity, the single-solve launch-config check (iterations >= 1,
/// read_ahead in [2, 64], temporal_depth in [1, 8], the slab strategies'
/// cores_x == 1 and width rules, width divisible across cores_x into
/// 16-aligned strips, cores_y <= height) restricted to the row-chunk and
/// temporal strategies, temporal tiling's single-pass limit and the
/// row-chunk slot ring's read-tag budget. Throws ApiError naming the
/// violation, so bad shapes fail fast instead of poisoning a batch.
void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg);

/// The per-field device images a run uploads: layout-padded BF16 grids
/// with boundary cells on all four sides (halo corners zero — part of the
/// tap-order contract). Checkpoint::restore (field_grids.hpp) stages this
/// for every field it does not restore from a checkpoint.
std::vector<bfloat16_t> general_field_image(const PaddedLayout& layout,
                                            const GeneralStencilProblem& p,
                                            int field);

}  // namespace ttsim::core
