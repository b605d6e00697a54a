#pragma once
/// \file stencil_cpu.hpp
/// CPU references for the generic weighted stencil (FP32 and BF16-exact),
/// mirroring the device's operation order: centre product first, then the
/// W, E, N, S taps each as a rounded BF16 product added in sequence.

#include "ttsim/core/stencil_spec.hpp"

namespace ttsim::cpu {

std::vector<float> stencil_reference_f32(const core::StencilProblem& p,
                                         int threads = 1);

/// Bit-exact replay of the device arithmetic.
std::vector<bfloat16_t> stencil_reference_bf16(const core::StencilProblem& p);

/// References for the general radius-1 frontend (multi-field, multi-pass,
/// optional threshold post-op). Passes apply in order with immediate
/// visibility: a pass reading a field an earlier pass updated this
/// iteration sees the new values — the same semantics the device's
/// per-pass buffer parity implements. Returns one interior (row-major
/// width*height) per field, in field order.
std::vector<std::vector<float>> general_reference_f32(
    const core::GeneralStencilProblem& p);

/// Bit-exact replay of the device arithmetic for the general frontend:
/// terms in listed order, every product and sum rounded to BF16, the Life
/// post-op as (S==3) + (S==2)*self with BF16 compares, the scale post-op as
/// one rounded product post_scale*S.
std::vector<std::vector<bfloat16_t>> general_reference_bf16(
    const core::GeneralStencilProblem& p);

}  // namespace ttsim::cpu
