#pragma once
/// \file problem.hpp
/// The Jacobi/Laplace problem definition and the device memory layout.
///
/// The problem: solve Laplace's equation for diffusion on a 2-D grid with
/// fixed (Dirichlet) boundary conditions using the Jacobi iterative method
/// (paper Listing 1): unew(i,j) = 0.25*(u(i+1,j)+u(i-1,j)+u(i,j+1)+u(i,j-1)).
///
/// The device layout implements the paper's Fig. 5 fix for the 256-bit DRAM
/// alignment rule: an extra 256-bit (16 BF16 elements) region is allocated on
/// the left and right of the domain, holding the boundary values adjacent to
/// the interior, so that every 32-element result write starts on an aligned
/// address.

#include <cstdint>
#include <span>
#include <vector>

#include "ttsim/bfloat/bfloat16.hpp"
#include "ttsim/common/check.hpp"
#include "ttsim/common/units.hpp"

namespace ttsim::core {

struct JacobiProblem {
  std::uint32_t width = 512;   ///< interior elements in X (contiguous dim)
  std::uint32_t height = 512;  ///< interior elements in Y
  int iterations = 1000;

  /// Dirichlet boundary values per side — the diffusion drivers ("on the
  /// left might be high values and the right low values", Section II-B).
  float bc_left = 1.0f;
  float bc_right = 0.0f;
  float bc_top = 0.5f;
  float bc_bottom = 0.5f;
  float initial = 0.0f;  ///< initial guess in the interior

  std::uint64_t points() const {
    return static_cast<std::uint64_t>(width) * height;
  }
  /// Total point-updates across the run (the GPt/s denominator's numerator).
  std::uint64_t total_updates() const {
    return points() * static_cast<std::uint64_t>(iterations);
  }
};

/// Device-side grid layout with the Fig. 5 alignment padding.
///
/// Stored rows cover y in [-1, height] (boundary rows included); each stored
/// row is [pad | interior (width elems) | pad] where pad = 16 BF16 elements
/// (256 bits). The element adjacent to the interior on each side carries the
/// boundary condition; the rest of the pad is dead space. The row stride is
/// therefore a multiple of 32 bytes, making every 32-element (64 B) interior
/// write aligned.
class PaddedLayout {
 public:
  static constexpr std::uint32_t kPad = 16;  // 256 bits of BF16

  PaddedLayout(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {
    TTSIM_CHECK_MSG(width_ > 0 && height_ > 0, "empty domain");
    TTSIM_CHECK_MSG(width_ % 16 == 0,
                    "domain width must be a multiple of 16 elements so padded "
                    "rows stay 256-bit aligned (the paper limits domains to "
                    "powers of two)");
  }

  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }
  std::uint32_t row_elems() const { return width_ + 2 * kPad; }
  std::uint32_t row_bytes() const { return row_elems() * 2; }
  std::uint32_t stored_rows() const { return height_ + 2; }
  std::uint64_t elems() const {
    return static_cast<std::uint64_t>(row_elems()) * stored_rows();
  }
  std::uint64_t bytes() const { return elems() * 2; }

  /// Element index of interior coordinate (row, col); row in [-1, height],
  /// col in [-1, width] (the -1/limit values address the boundary cells).
  std::uint64_t index(std::int64_t row, std::int64_t col) const {
    TTSIM_DCHECK(row >= -1 && row <= static_cast<std::int64_t>(height_));
    TTSIM_DCHECK(col >= -1 && col <= static_cast<std::int64_t>(width_));
    return static_cast<std::uint64_t>(row + 1) * row_elems() +
           static_cast<std::uint64_t>(col + kPad);
  }
  std::uint64_t byte_offset(std::int64_t row, std::int64_t col) const {
    return index(row, col) * 2;
  }

  /// Build the initial device image: interior at the initial guess (or at
  /// `interior`'s row-major width x height values, when given), boundary
  /// cells on all four sides, dead padding and halo corners zeroed. One
  /// pass in address order.
  std::vector<bfloat16_t> initial_image(const JacobiProblem& p,
                                        std::span<const float> interior = {}) const;

  /// Extract the interior (row-major width x height floats) from a device
  /// image: one widening pass into storage that asks for huge pages.
  std::vector<float> extract_interior(std::span<const bfloat16_t> image) const;

 private:
  std::uint32_t width_;
  std::uint32_t height_;
};

}  // namespace ttsim::core
