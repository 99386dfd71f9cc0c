// 2-D convolution (NCHW, square kernel, zero padding, no bias — ResNet style).
//
// Forward and backward run as direct convolution over a zero-padded copy
// of the input, which a training-mode forward keeps for backward's dW
// (backward needs a training-mode forward). Rows of the padded copy are
// split into `stride` phase planes so every stride reads consecutive
// floats. The AVX2+FMA kernels (picked at run time from the host CPU) put
// 8 outputs in a vector: 8 consecutive x of a row, or two 4-wide half rows
// when rows are narrower than 8; forward register-blocks output channels,
// dW vectorizes over output channels. The scalar kernels do the same
// arithmetic with an unfused multiply, then add.
//
// Operation-order contract. Every output element is computed by exactly
// the operation sequence of an im2col + tensor::gemm formulation with
// col [N*ho*wo, cin*k*k], so results match that formulation bit for bit:
//  - y[n,co,oy,ox]: one multiply-add chain over c = (ci, ky, kx)
//    ascending, starting from +0, with padded taps read as zeros.
//  - dW[co,c]: one multiply-add chain over (n, oy, ox) ascending, starting
//    from the existing gradient.
//  - dx: each dcol[(n,oy,ox), c] is a multiply-add chain over co ascending
//    from +0; dx starts at +0 and adds the dcol values of an input element
//    in (oy, ox)-ascending order (kx descending within a row). 3x3
//    stride-1 pad-1 convolutions compute this per input element: 8
//    consecutive elements read their 9 dcol chains at fixed offsets of the
//    grad plane and sum them in registers in that order; the others add
//    each output's dcol vectors into a padded dx plane.
// Work fans out over disjoint outputs only — forward over (n, co-block),
// dW over (co-block, c-tile), dx over (n, ci) or, for 3x3 stride 1, over
// (n, pair of ci) — so the bits do not depend on the thread count.
// conv2d_reference_* are the double-precision oracle for parity tests and
// benchmark baselines.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace comdml::nn {

/// Naive convolution accumulated in double: x [N,cin,H,W] * w [cout,cin,k,k].
[[nodiscard]] Tensor conv2d_reference_forward(const Tensor& x,
                                              const Tensor& w, int64_t stride,
                                              int64_t padding);

/// Naive backward pass. Returns dx; accumulates into `dw` (shape of w).
[[nodiscard]] Tensor conv2d_reference_backward(const Tensor& x,
                                               const Tensor& w,
                                               const Tensor& grad_out,
                                               int64_t stride, int64_t padding,
                                               Tensor& dw);

class Conv2d : public Module {
 public:
  /// kernel k x k, stride s, symmetric zero padding p.
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override;

  [[nodiscard]] int64_t in_channels() const noexcept { return cin_; }
  [[nodiscard]] int64_t out_channels() const noexcept { return cout_; }

  /// Output spatial extent for an input extent under this conv's geometry.
  [[nodiscard]] int64_t out_extent(int64_t in) const {
    return (in + 2 * pad_ - k_) / stride_ + 1;
  }

 private:
  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter weight_;  ///< [cout, cin, k, k]
  Shape in_shape_;                   ///< last training forward's input shape
  std::vector<float> padded_input_;  ///< and its zero-padded input planes
};

}  // namespace comdml::nn
