// Batch normalization over the channel axis of NCHW activations.
//
// Operation-order contract. The AVX2 kernels (picked at run time from the
// host CPU) and the scalar ones produce the same bits, because every value
// is computed by the same operation sequence, with a separate multiply and
// add (never a fused one):
//  - mean[j], var[j] (training): double chains over (n, h*w) ascending
//    from +0, of x and of (x - mean)^2, then divided by N*H*W. The AVX2
//    kernels run 4 channels in the lanes of a double vector, one chain per
//    lane in that order; channels past the last whole group of 4 take the
//    scalar loop.
//  - y = gamma * ((x - float(mean)) * inv_std) + beta in training, with
//    inv_std = 1 / sqrt(float(var) + eps); in eval
//    y = ((gamma * (x - running_mean)) * inv_std) + beta.
//  - backward: sum_dy[j] and sum_dy_xh[j] are double chains over
//    (n, h*w) ascending from +0 of dy and dy * xhat; then
//    dx = (gamma * inv_std) * ((dy - mean_dy) - xhat * mean_dy_xh) with
//    mean_dy = float(sum_dy) / (N*H*W), likewise mean_dy_xh.
// forward_relu and backward_masked fold a residual add and a ReLU (or the
// ReLU's backward multiply) into these passes with the exact operations
// of tensor::add_inplace, ReLU::forward and tensor::mul, so a fused
// BasicBlock matches the unfused layers bit for bit.
#pragma once

#include "nn/module.hpp"

namespace comdml::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_state(std::vector<Tensor*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "batchnorm"; }

  /// relu(forward(x, train) [+ *residual]) in one pass; the ReLU's 1/0
  /// mask (ReLU::forward's) lands in `relu_mask`, resized to x's shape.
  Tensor forward_relu(const Tensor& x, bool train, const Tensor* residual,
                      Tensor& relu_mask);

  /// backward(grad_out * relu_mask) without materializing the product,
  /// unless `masked_grad` is set: it then receives grad_out * relu_mask.
  Tensor backward_masked(const Tensor& grad_out, const Tensor& relu_mask,
                         Tensor* masked_grad);

 private:
  Tensor forward_impl(const Tensor& x, bool train, const Tensor* residual,
                      Tensor* relu_mask);
  Tensor backward_impl(const Tensor& grad_out, const Tensor* relu_mask,
                       Tensor* masked_grad);

  int64_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  // training-pass caches
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  ///< [C]
};

}  // namespace comdml::nn
