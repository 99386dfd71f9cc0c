#include "nn/resnet.hpp"

namespace comdml::nn {

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels,
                       int64_t stride, Rng& rng)
    : conv1_(in_channels, out_channels, 3, stride, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels),
      identity_shortcut_(stride == 1 && in_channels == out_channels) {
  if (!identity_shortcut_) {
    short_conv_ =
        std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    short_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

// The ReLUs run inside the BatchNorm passes (forward_relu/backward_masked)
// with the unfused layers' operations, so the block's bits are those of
// conv -> bn -> relu -> conv -> bn -> (+ shortcut) -> relu.
Tensor BasicBlock::forward(const Tensor& x, bool train) {
  Tensor main =
      bn1_.forward_relu(conv1_.forward(x, train), train, nullptr, relu1_mask_);
  main = conv2_.forward(main, train);
  if (identity_shortcut_)  // no shortcut copy on the identity path
    return bn2_.forward_relu(main, train, &x, relu_out_mask_);
  const Tensor shortcut =
      short_bn_->forward(short_conv_->forward(x, train), train);
  return bn2_.forward_relu(main, train, &shortcut, relu_out_mask_);
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  // Main path; d_sum receives the output ReLU's gradient for the shortcut.
  Tensor d_sum;
  Tensor d = bn2_.backward_masked(grad_out, relu_out_mask_, &d_sum);
  d = conv2_.backward(d);
  d = bn1_.backward_masked(d, relu1_mask_, nullptr);
  Tensor dx = conv1_.backward(d);
  // Shortcut path.
  if (identity_shortcut_) {
    tensor::axpy(1.0f, d_sum, dx);
  } else {
    Tensor ds = short_bn_->backward(d_sum);
    ds = short_conv_->backward(ds);
    tensor::axpy(1.0f, ds, dx);
  }
  return dx;
}

void BasicBlock::collect_parameters(std::vector<Parameter*>& out) {
  conv1_.collect_parameters(out);
  bn1_.collect_parameters(out);
  conv2_.collect_parameters(out);
  bn2_.collect_parameters(out);
  if (!identity_shortcut_) {
    short_conv_->collect_parameters(out);
    short_bn_->collect_parameters(out);
  }
}

void BasicBlock::collect_state(std::vector<Tensor*>& out) {
  conv1_.collect_state(out);
  bn1_.collect_state(out);
  conv2_.collect_state(out);
  bn2_.collect_state(out);
  if (!identity_shortcut_) {
    short_conv_->collect_state(out);
    short_bn_->collect_state(out);
  }
}

LayerCost BasicBlock::cost(const Shape& in_shape) const {
  LayerCost total;
  Shape cur = in_shape;
  const ReLU relu1;
  for (const Module* m :
       std::initializer_list<const Module*>{&conv1_, &bn1_, &relu1, &conv2_,
                                            &bn2_}) {
    const LayerCost c = m->cost(cur);
    total.flops_forward += c.flops_forward;
    total.flops_backward += c.flops_backward;
    total.param_bytes += c.param_bytes;
    cur = c.out_shape;
  }
  if (!identity_shortcut_) {
    const LayerCost sc = short_conv_->cost(in_shape);
    const LayerCost sb = short_bn_->cost(sc.out_shape);
    total.flops_forward += sc.flops_forward + sb.flops_forward;
    total.flops_backward += sc.flops_backward + sb.flops_backward;
    total.param_bytes += sc.param_bytes + sb.param_bytes;
  }
  // Residual add + output ReLU.
  const auto n = static_cast<double>(tensor::shape_size(cur));
  total.flops_forward += 2.0 * n;
  total.flops_backward += 2.0 * n;
  total.out_bytes =
      tensor::shape_size(cur) * static_cast<int64_t>(sizeof(float));
  total.out_shape = cur;
  return total;
}

namespace {

/// conv-bn-relu stem packaged as one split unit.
std::unique_ptr<Sequential> make_stem(int64_t in_channels,
                                      int64_t out_channels, Rng& rng) {
  auto stem = std::make_unique<Sequential>();
  stem->push(std::make_unique<Conv2d>(in_channels, out_channels, 3, 1, 1,
                                      rng));
  stem->push(std::make_unique<BatchNorm2d>(out_channels));
  stem->push(std::make_unique<ReLU>());
  return stem;
}

/// pool + classifier head packaged as one split unit.
std::unique_ptr<Sequential> make_head(int64_t channels, int64_t classes,
                                      Rng& rng) {
  auto head = std::make_unique<Sequential>();
  head->push(std::make_unique<GlobalAvgPool2d>());
  head->push(std::make_unique<Linear>(channels, classes, rng));
  return head;
}

}  // namespace

std::unique_ptr<Sequential> make_resnet_cifar(int64_t blocks_per_stage,
                                              int64_t base_channels,
                                              int64_t classes, Rng& rng) {
  COMDML_CHECK(blocks_per_stage > 0 && base_channels > 0 && classes > 1);
  auto net = std::make_unique<Sequential>();
  net->push(make_stem(3, base_channels, rng));
  int64_t in_ch = base_channels;
  for (int stage = 0; stage < 3; ++stage) {
    const int64_t out_ch = base_channels << stage;
    for (int64_t b = 0; b < blocks_per_stage; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      net->push(std::make_unique<BasicBlock>(in_ch, out_ch, stride, rng));
      in_ch = out_ch;
    }
  }
  net->push(make_head(in_ch, classes, rng));
  return net;
}

std::unique_ptr<Sequential> resnet56(int64_t classes, Rng& rng) {
  return make_resnet_cifar(9, 16, classes, rng);
}

std::unique_ptr<Sequential> resnet110(int64_t classes, Rng& rng) {
  return make_resnet_cifar(18, 16, classes, rng);
}

std::unique_ptr<Sequential> tiny_resnet(int64_t classes, Rng& rng) {
  return make_resnet_cifar(1, 8, classes, rng);
}

std::unique_ptr<Sequential> small_cnn(int64_t in_channels, int64_t classes,
                                      Rng& rng) {
  auto net = std::make_unique<Sequential>();
  net->push(make_stem(in_channels, 8, rng));
  auto body = std::make_unique<Sequential>();
  body->push(std::make_unique<Conv2d>(8, 16, 3, 2, 1, rng));
  body->push(std::make_unique<BatchNorm2d>(16));
  body->push(std::make_unique<ReLU>());
  net->push(std::move(body));
  net->push(make_head(16, classes, rng));
  return net;
}

std::unique_ptr<Sequential> mlp(const std::vector<int64_t>& widths, Rng& rng) {
  COMDML_REQUIRE(widths.size() >= 2, "mlp needs at least input+output widths");
  auto net = std::make_unique<Sequential>();
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    auto unit = std::make_unique<Sequential>();
    unit->push(std::make_unique<Linear>(widths[i], widths[i + 1], rng));
    if (i + 2 < widths.size()) unit->push(std::make_unique<ReLU>());
    net->push(std::move(unit));
  }
  return net;
}

}  // namespace comdml::nn
