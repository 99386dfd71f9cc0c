// CIFAR-style residual networks (He et al., 2016) and small model builders.
//
// Models are exposed as Sequential containers whose units are ComDML's
// split boundaries: [stem][block 1]...[block B][head]. ResNet-56 has
// B = 27 blocks (9 per stage); ResNet-110 has B = 54.
#pragma once

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/norm.hpp"

namespace comdml::nn {

/// Standard two-conv residual block with optional 1x1 downsampling shortcut:
/// relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x)), each ReLU fused
/// into the BatchNorm pass before it (bit-identical to the unfused layers).
class BasicBlock : public Module {
 public:
  BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride,
             Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_state(std::vector<Tensor*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "basicblock"; }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  // The two ReLUs' 1/0 masks (ReLU::forward's), reused across steps.
  Tensor relu1_mask_;
  Tensor relu_out_mask_;
  // Downsampling shortcut (1x1 conv + BN); null for identity shortcuts.
  std::unique_ptr<Conv2d> short_conv_;
  std::unique_ptr<BatchNorm2d> short_bn_;
  bool identity_shortcut_;
};

/// CIFAR ResNet of depth 6n+2 with `blocks_per_stage = n` blocks in each of
/// the three stages (channel widths base, 2*base, 4*base).
[[nodiscard]] std::unique_ptr<Sequential> make_resnet_cifar(
    int64_t blocks_per_stage, int64_t base_channels, int64_t classes,
    Rng& rng);

/// ResNet-56 for 3x32x32 inputs (blocks_per_stage = 9, base = 16).
[[nodiscard]] std::unique_ptr<Sequential> resnet56(int64_t classes, Rng& rng);

/// ResNet-110 for 3x32x32 inputs (blocks_per_stage = 18, base = 16).
[[nodiscard]] std::unique_ptr<Sequential> resnet110(int64_t classes, Rng& rng);

/// Tiny ResNet (one block per stage, base 8 channels) for fast tests and
/// examples; expects 3x8x8 (or larger) inputs.
[[nodiscard]] std::unique_ptr<Sequential> tiny_resnet(int64_t classes,
                                                      Rng& rng);

/// Small conv net (conv-bn-relu x2 + head) for fast real-training paths.
[[nodiscard]] std::unique_ptr<Sequential> small_cnn(int64_t in_channels,
                                                    int64_t classes, Rng& rng);

/// Plain MLP with the given layer widths; input is flat features.
[[nodiscard]] std::unique_ptr<Sequential> mlp(
    const std::vector<int64_t>& widths, Rng& rng);

}  // namespace comdml::nn
