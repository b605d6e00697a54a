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
/// read-ahead) — or onto the SRAM-resident strategy for single-field
/// single-pass programs — with all products and sums performed in BF16 in
/// the listed term order, so device results are bit-exact replays of
/// cpu::general_reference_bf16. The 5-point WeightedStencil form remains
/// as the convenient special case and lowers through the same path.

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil_spec.hpp"

namespace ttsim::core {

/// Run a weighted stencil with the Section VI row-chunk machinery (aliased
/// CB read pointers, two-batch read-ahead). Lowers through the general
/// frontend (to_general); config field `toggles` is ignored and `strategy`
/// selects kSramResident or kTemporal when asked, row-chunk otherwise.
DeviceRunResult run_stencil_on_device(ttmetal::Device& device, const StencilProblem& p,
                                      const DeviceRunConfig& config);
DeviceRunResult run_stencil_on_device(const StencilProblem& p,
                                      const DeviceRunConfig& config,
                                      sim::GrayskullSpec spec = {});

/// Result of a general-frontend run: one interior per field, plus the
/// primary field's interior again as `solution` (the target of the last
/// pass — what a service request returns).
struct GeneralRunResult {
  std::vector<std::vector<float>> fields;  ///< per field, row-major interior
  std::vector<float> solution;             ///< fields[primary_field()]
  SimTime kernel_time = 0;
  SimTime total_time = 0;
  int cores_used = 0;
  bool verified_ok = true;  ///< only meaningful when config.verify
};

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
/// lowering; each group gets its own iteration barrier, exactly like
/// build_batched_rowchunk_program). Throws ApiError on invalid
/// decompositions or overlapping slot core sets.
void build_batched_stencil_program(ttmetal::Program& prog,
                                   const GeneralStencilProblem& p,
                                   const DeviceRunConfig& cfg,
                                   const std::vector<GeneralBatchSlot>& slots);

/// Admission-time validation of a general-stencil batch slot: structural
/// problem validity, the launch-config checks of validate_batch_request,
/// and temporal tiling's single-pass limit. Throws ApiError naming the
/// violation.
void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg);

/// The per-field device images a run uploads: layout-padded BF16 grids
/// with boundary cells on all four sides (halo corners zero — part of the
/// tap-order contract). Exposed for the serving layer's H2D staging.
std::vector<bfloat16_t> general_field_image(const PaddedLayout& layout,
                                            const GeneralStencilProblem& p,
                                            int field);

}  // namespace ttsim::core
