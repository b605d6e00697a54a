#pragma once
/// \file field_grids.hpp
/// The DRAM grids of one stencil program on one device, under every
/// solver: the single-device solves, the sharded epoch loop (one per card)
/// and the service's batch slots (one per slot and bank). One allocation
/// order, one staging/readback path and one parity rule, the kernels' own
/// (detail::SweepParity), so a run can be cut into launches of any sizes.
/// A Checkpoint is the one form in which a solve's state leaves a device
/// and comes back, and Checkpoint::restore the one rule for what each field
/// stages.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ttsim/core/stencil.hpp"

namespace ttsim::ttmetal {
class CommandQueue;
}

namespace ttsim::core {

namespace detail {
struct CoreSelection;
}

/// The numerical state of a solve between launches: for each field the
/// program writes, its padded image (PaddedLayout geometry, the Fig. 5
/// padding included), sealed with its own CRC-32 and verified on every
/// read, so host-side corruption is caught at the restore instead of
/// surfacing as a wrong solution. Read-only fields hold no image: they never
/// change, so a restore rebuilds them from the program. The images are the
/// whole state, so restoring them on any card or card group and running the
/// remaining sweeps reproduces the undisturbed solve bit for bit.
class Checkpoint {
 public:
  /// Nothing sealed yet: a restore stages every field from the program.
  bool empty() const { return fields_.empty(); }
  /// Bytes across the sealed images.
  std::uint64_t bytes() const;

  /// Seal `images` (one per field of `p`, at least the written ones
  /// filled), taking the written fields' images and dropping the rest.
  void seal(const GeneralStencilProblem& p,
            std::vector<std::vector<bfloat16_t>> images);

  /// Field `f`'s sealed image, CRC-verified: a CheckError names the sealed
  /// and the observed CRC on a mismatch.
  std::span<const bfloat16_t> image(int f) const;

  /// The one restore rule: the image field `f` of `p` stages. A field `p`
  /// writes restores from this checkpoint's sealed image, unless it is
  /// empty; any other field, and every field of a fresh start, is built
  /// from the program (general_field_image) into `built`, which the
  /// returned view then points into. ApiError when a non-empty checkpoint
  /// does not fit `p` (field count, image size).
  std::span<const bfloat16_t> restore(const GeneralStencilProblem& p, int f,
                                      std::vector<bfloat16_t>& built) const;

 private:
  struct Sealed {
    std::vector<bfloat16_t> image;  ///< empty for a read-only field
    std::uint32_t crc = 0;
  };
  std::vector<Sealed> fields_;
};

class FieldGrids {
 public:
  /// Allocate, field by field, d1 and then (when `program` writes the
  /// field) d2 in `cfg`'s buffer layout. DRAM addresses feed the golden
  /// hashes and the fault plan's rolls, so the order is part of the
  /// behaviour. `cfg`'s strategy and temporal depth set the parity rule.
  /// A non-empty `name` names the buffers "<name>-f<field>-d<1|2>".
  FieldGrids(ttmetal::Device& device, const GeneralStencilProblem& program,
             const DeviceRunConfig& cfg, const std::string& name = {});

  const PaddedLayout& layout() const { return layout_; }

  /// Write field `f`'s padded image; a written field's into both buffers
  /// (boundary cells are never kernel-written).
  void stage(int f, std::span<const bfloat16_t> image, ttmetal::CommandQueue& cq,
             bool blocking);
  /// Read field `f`'s fresh image into `out` (alive until a non-blocking
  /// read completes).
  void read(int f, std::span<bfloat16_t> out, ttmetal::CommandQueue& cq,
            bool blocking) const;

  /// The buffer holding field `f`'s latest state, and (written fields
  /// only) the other one of its pair.
  ttmetal::Buffer& fresh(int f) const;
  ttmetal::Buffer& stale(int f) const;

  /// Bind the next launch of `sweeps` sweeps on workers `core_ids`, for
  /// build_batched_stencil_program: each written pair is ordered so the
  /// launch reads the fresh buffer first (a freshly staged pair binds in
  /// allocation order), and the buffer it finishes in becomes fresh.
  GeneralBatchSlot bind(int sweeps, std::vector<int> core_ids);

  /// Bind and run `sweeps` sweeps in one program on `sel`; returns the
  /// kernel time. Certified by the dataflow IR first, except the tiled
  /// Section IV programs, built directly. A non-zero `residual_addr` has
  /// every core store its final-sweep max |unew - u| there (row-chunk).
  SimTime launch(int sweeps, const detail::CoreSelection& sel,
                 std::uint64_t residual_addr = 0);

 private:
  struct Field {
    std::shared_ptr<ttmetal::Buffer> d1, d2;  ///< d2 null when read-only
    /// Parity of the fresh buffer (0: d1, 1: d2); -1 while both hold the
    /// staged image.
    int fresh = -1;
  };

  ttmetal::Device* device_;
  GeneralStencilProblem program_;
  DeviceRunConfig cfg_;
  PaddedLayout layout_;
  std::vector<Field> fields_;
};

}  // namespace ttsim::core
