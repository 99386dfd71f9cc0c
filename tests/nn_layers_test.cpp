// Layer-level tests: shape contracts, analytic-vs-numeric gradients, cost
// descriptors, and state collection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/norm.hpp"
#include "nn/resnet.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace comdml::nn {
namespace {

using comdml::testing::away_from_zero;
using comdml::testing::input_grad_error;
using comdml::testing::param_grad_error;

constexpr double kGradTol = 5e-2;

// ---- Linear -----------------------------------------------------------------

TEST(Linear, ForwardShape) {
  Rng rng(1);
  Linear fc(8, 3, rng);
  const Tensor y = fc.forward(rng.normal_tensor({5, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({5, 3}));
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear fc(8, 3, rng);
  EXPECT_THROW((void)fc.forward(Tensor({5, 7}), true),
               std::invalid_argument);
}

TEST(Linear, BiasIsApplied) {
  Rng rng(2);
  Linear fc(2, 2, rng);
  // Zero input isolates the bias (initialised to zero).
  const Tensor y = fc.forward(Tensor({1, 2}), true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
}

TEST(Linear, InputGradientMatchesNumeric) {
  Rng rng(3);
  Linear fc(6, 4, rng);
  const Tensor x = rng.normal_tensor({3, 6}, 0, 1);
  const Tensor g = rng.normal_tensor({3, 4}, 0, 1);
  EXPECT_LT(input_grad_error(fc, x, g), kGradTol);
}

TEST(Linear, ParamGradientMatchesNumeric) {
  Rng rng(4);
  Linear fc(5, 3, rng);
  const Tensor x = rng.normal_tensor({4, 5}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 3}, 0, 1);
  EXPECT_LT(param_grad_error(fc, x, g), kGradTol);
}

TEST(Linear, GradAccumulatesAcrossBatches) {
  Rng rng(5);
  Linear fc(2, 2, rng);
  const Tensor x = rng.normal_tensor({1, 2}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 2}, 0, 1);
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  const Tensor once = fc.parameters()[0]->grad;
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  EXPECT_TRUE(tensor::allclose(fc.parameters()[0]->grad, tensor::scale(once, 2.0f), 1e-4f));
}

TEST(Linear, CostCountsMacsAndParams) {
  Rng rng(6);
  Linear fc(10, 4, rng);
  const LayerCost c = fc.cost({10});
  EXPECT_DOUBLE_EQ(c.flops_forward, 2.0 * 10 * 4);
  EXPECT_EQ(c.param_bytes, (10 * 4 + 4) * 4);
  EXPECT_EQ(c.out_shape, Shape({4}));
}

// ---- ReLU -------------------------------------------------------------------

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor::of({-1.f, 0.f, 2.f}), true);
  EXPECT_EQ(y, Tensor::of({0.f, 0.f, 2.f}));
}

TEST(ReLU, GradientMasksNegatives) {
  ReLU relu;
  (void)relu.forward(Tensor::of({-1.f, 2.f}), true);
  const Tensor dx = relu.backward(Tensor::of({5.f, 5.f}));
  EXPECT_EQ(dx, Tensor::of({0.f, 5.f}));
}

TEST(ReLU, InputGradientMatchesNumeric) {
  Rng rng(7);
  ReLU relu;
  const Tensor x = away_from_zero(rng, {2, 6});
  const Tensor g = rng.normal_tensor({2, 6}, 0, 1);
  EXPECT_LT(input_grad_error(relu, x, g), kGradTol);
}

TEST(ReLU, ForwardKeepsZeroSignAndNaNSemantics) {
  // Pinned bit for bit: -0 -> +0, NaN -> +0 with mask 0, denormals and
  // infinities by sign. The mask is read back through backward(ones).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const Tensor x =
      Tensor::of({-0.0f, 0.0f, nan, -nan, 1.5f, -2.0f, inf, -inf, tiny, -tiny});
  const std::vector<float> y_want = {0.0f, 0.0f, 0.0f, 0.0f, 1.5f,
                                     0.0f, inf,  0.0f, tiny, 0.0f};
  const std::vector<float> mask_want = {0.0f, 0.0f, 0.0f, 0.0f, 1.0f,
                                        0.0f, 1.0f, 0.0f, 1.0f, 0.0f};
  ReLU relu;
  const Tensor y = relu.forward(x, true);
  const Tensor mask = relu.backward(Tensor(x.shape(), 1.0f));
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(y[i]),
              std::bit_cast<uint32_t>(y_want[static_cast<size_t>(i)]))
        << "y[" << i << "]";
    EXPECT_EQ(std::bit_cast<uint32_t>(mask[i]),
              std::bit_cast<uint32_t>(mask_want[static_cast<size_t>(i)]))
        << "mask[" << i << "]";
  }
}

TEST(ReLU, HasNoParameters) {
  ReLU relu;
  EXPECT_TRUE(relu.parameters().empty());
}

// ---- Flatten / GlobalAvgPool ------------------------------------------------

TEST(Flatten, CollapsesTrailingAxes) {
  Flatten f;
  const Tensor y = f.forward(Tensor({2, 3, 4, 4}), true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
}

TEST(Flatten, BackwardRestoresShape) {
  Flatten f;
  (void)f.forward(Tensor({2, 3, 2, 2}), true);
  const Tensor dx = f.backward(Tensor({2, 12}));
  EXPECT_EQ(dx.shape(), Shape({2, 3, 2, 2}));
}

TEST(GlobalAvgPool, AveragesSpatially) {
  GlobalAvgPool2d pool;
  Tensor x({1, 1, 2, 2}, {1.f, 2.f, 3.f, 6.f});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(GlobalAvgPool, InputGradientMatchesNumeric) {
  Rng rng(8);
  GlobalAvgPool2d pool;
  const Tensor x = rng.normal_tensor({2, 3, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 3}, 0, 1);
  EXPECT_LT(input_grad_error(pool, x, g), kGradTol);
}

TEST(GlobalAvgPool, RejectsRank2) {
  GlobalAvgPool2d pool;
  EXPECT_THROW((void)pool.forward(Tensor({2, 3}), true),
               std::invalid_argument);
}

// ---- Conv2d -----------------------------------------------------------------

TEST(Conv2d, OutputGeometryStride1Pad1) {
  Rng rng(9);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor y = conv.forward(rng.normal_tensor({2, 3, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, OutputGeometryStride2) {
  Rng rng(10);
  Conv2d conv(4, 6, 3, 2, 1, rng);
  const Tensor y = conv.forward(rng.normal_tensor({1, 4, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({1, 6, 4, 4}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Rng rng(11);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);
  const Tensor x = rng.normal_tensor({1, 1, 3, 3}, 0, 1);
  EXPECT_TRUE(tensor::allclose(conv.forward(x, true), x, 1e-6f));
}

TEST(Conv2d, KnownConvolutionValue) {
  Rng rng(12);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);  // box filter
  Tensor x({1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(Conv2d, InputGradientMatchesNumeric) {
  Rng rng(13);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 5, 5}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 3, 5, 5}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, StridedInputGradientMatchesNumeric) {
  Rng rng(14);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  const Tensor x = rng.normal_tensor({1, 2, 6, 6}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, ParamGradientMatchesNumeric) {
  Rng rng(15);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  EXPECT_LT(param_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, PointwiseConvGradients) {
  Rng rng(16);
  Conv2d conv(4, 2, 1, 1, 0, rng);
  const Tensor x = rng.normal_tensor({2, 4, 3, 3}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
  EXPECT_LT(param_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, CostMatchesArithmetic) {
  Rng rng(17);
  Conv2d conv(3, 16, 3, 1, 1, rng);
  const LayerCost c = conv.cost({3, 32, 32});
  EXPECT_DOUBLE_EQ(c.flops_forward, 2.0 * 9 * 3 * 16 * 32 * 32);
  EXPECT_EQ(c.out_shape, Shape({16, 32, 32}));
  EXPECT_EQ(c.param_bytes, 16 * 3 * 9 * 4);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(18);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW((void)conv.forward(Tensor({1, 2, 8, 8}), true),
               std::invalid_argument);
}

// ---- BatchNorm2d -------------------------------------------------------------

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(19);
  BatchNorm2d bn(3);
  const Tensor x = rng.normal_tensor({8, 3, 4, 4}, 5.0f, 2.0f);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  const int64_t hw = 16, n = 8;
  auto yo = y.flat();
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0, var = 0;
    for (int64_t i = 0; i < n; ++i)
      for (int64_t k = 0; k < hw; ++k) mean += yo[(i * 3 + c) * hw + k];
    mean /= static_cast<double>(n * hw);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t k = 0; k < hw; ++k) {
        const double d = yo[(i * 3 + c) * hw + k] - mean;
        var += d * d;
      }
    var /= static_cast<double>(n * hw);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  Rng rng(20);
  BatchNorm2d bn(2);
  // Run several training passes to move the running stats.
  for (int i = 0; i < 20; ++i)
    (void)bn.forward(rng.normal_tensor({4, 2, 3, 3}, 3.0f, 1.0f), true);
  const Tensor x = rng.normal_tensor({4, 2, 3, 3}, 3.0f, 1.0f);
  const Tensor y = bn.forward(x, false);
  // Eval output should be roughly centred (running mean ~3).
  EXPECT_NEAR(tensor::mean(y), 0.0f, 0.35f);
}

TEST(BatchNorm, InputGradientMatchesNumeric) {
  Rng rng(21);
  BatchNorm2d bn(2);
  const Tensor x = rng.normal_tensor({4, 2, 3, 3}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(bn, x, g), kGradTol);
}

TEST(BatchNorm, ParamGradientMatchesNumeric) {
  Rng rng(22);
  BatchNorm2d bn(3);
  const Tensor x = rng.normal_tensor({4, 3, 2, 2}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 3, 2, 2}, 0, 1);
  EXPECT_LT(param_grad_error(bn, x, g), kGradTol);
}

TEST(BatchNorm, StateIncludesRunningStats) {
  BatchNorm2d bn(4);
  std::vector<Tensor*> state;
  bn.collect_state(state);
  EXPECT_EQ(state.size(), 4u);  // gamma, beta, running mean, running var
  EXPECT_EQ(bn.parameters().size(), 2u);
}

// ---- BasicBlock / Sequential -------------------------------------------------

TEST(BasicBlock, IdentityShortcutShape) {
  Rng rng(23);
  BasicBlock block(8, 8, 1, rng);
  const Tensor y =
      block.forward(rng.normal_tensor({2, 8, 4, 4}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(BasicBlock, DownsampleShortcutShape) {
  Rng rng(24);
  BasicBlock block(8, 16, 2, rng);
  const Tensor y =
      block.forward(rng.normal_tensor({2, 8, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 16, 4, 4}));
}

TEST(BasicBlock, InputGradientMatchesNumeric) {
  Rng rng(25);
  BasicBlock block(2, 2, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  EXPECT_LT(input_grad_error(block, x, g), kGradTol);
}

TEST(BasicBlock, DownsampleInputGradientMatchesNumeric) {
  Rng rng(26);
  BasicBlock block(2, 4, 2, rng);
  const Tensor x = rng.normal_tensor({1, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 4, 2, 2}, 0, 1);
  EXPECT_LT(input_grad_error(block, x, g), kGradTol);
}

TEST(BasicBlock, ParameterCounts) {
  Rng rng(27);
  BasicBlock identity(8, 8, 1, rng);
  BasicBlock downsample(8, 16, 2, rng);
  // identity: 2 convs + 2 BN(2 params each) = 2 + 4.
  EXPECT_EQ(identity.parameters().size(), 6u);
  // downsample adds a 1x1 conv + BN.
  EXPECT_EQ(downsample.parameters().size(), 9u);
}

TEST(Sequential, ForwardRangeComposes) {
  Rng rng(28);
  auto net = mlp({4, 8, 8, 3}, rng);
  const Tensor x = rng.normal_tensor({2, 4}, 0, 1);
  const Tensor full = net->forward(x, true);
  const Tensor mid = net->forward_range(x, 0, 1, true);
  const Tensor rest = net->forward_range(mid, 1, net->size(), true);
  EXPECT_TRUE(tensor::allclose(full, rest));
}

TEST(Sequential, BadRangeThrows) {
  Rng rng(29);
  auto net = mlp({4, 3}, rng);
  EXPECT_THROW((void)net->forward_range(Tensor({1, 4}), 0, 5, true),
               std::invalid_argument);
}

TEST(Sequential, CompositeGradientMatchesNumeric) {
  Rng rng(30);
  Sequential net;
  net.push(std::make_unique<Linear>(5, 7, rng));
  net.push(std::make_unique<ReLU>());
  net.push(std::make_unique<Linear>(7, 3, rng));
  const Tensor x = away_from_zero(rng, {2, 5});
  const Tensor g = rng.normal_tensor({2, 3}, 0, 1);
  EXPECT_LT(input_grad_error(net, x, g), kGradTol);
  EXPECT_LT(param_grad_error(net, x, g), kGradTol);
}

TEST(Sequential, UnitCostsChainShapes) {
  Rng rng(31);
  auto net = small_cnn(3, 10, rng);
  const auto costs = net->unit_costs({3, 8, 8});
  ASSERT_EQ(costs.size(), net->size());
  EXPECT_EQ(costs.back().out_shape, Shape({10}));
}

TEST(StateHelpers, SaveLoadRoundTrip) {
  Rng rng(32);
  auto a = mlp({4, 6, 3}, rng);
  auto b = mlp({4, 6, 3}, rng);
  const Tensor x = rng.normal_tensor({2, 4}, 0, 1);
  EXPECT_FALSE(
      tensor::allclose(a->forward(x, false), b->forward(x, false)));
  nn::load_state(*b, nn::state_of(*a));
  EXPECT_TRUE(
      tensor::allclose(a->forward(x, false), b->forward(x, false)));
}

TEST(StateHelpers, LoadRejectsArityMismatch) {
  Rng rng(33);
  auto a = mlp({4, 6, 3}, rng);
  auto b = mlp({4, 3}, rng);
  EXPECT_THROW(nn::load_state(*b, nn::state_of(*a)), std::invalid_argument);
}

TEST(StateHelpers, ParameterCountMlp) {
  Rng rng(34);
  auto net = mlp({4, 6, 3}, rng);
  EXPECT_EQ(nn::parameter_count(*net), 4 * 6 + 6 + 6 * 3 + 3);
}


// ---- bitwise parity sweep: vectorized kernels vs today's scalar loops ------
//
// The loops below are copies of the scalar BatchNorm, ReLU and elementwise
// kernels the vectorized ones replaced; every output must match them bit
// for bit, -0, NaN and infinities included.

/// Scalar BatchNorm2d: training forward (updates rm/rv, returns xhat and
/// inv_std through the out-params), eval forward, and backward.
struct ScalarBn {
  std::vector<float> gamma, beta, rm, rv;
  float momentum = 0.1f, eps = 1e-5f;
  Tensor xhat;
  std::vector<float> inv_std;

  Tensor forward(const Tensor& x, bool train) {
    const int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
    const int64_t per_channel = n * hw;
    Tensor y(x.shape());
    const float* xp = x.flat().data();
    float* yp = y.flat().data();
    if (!train) {
      for (int64_t j = 0; j < c; ++j) {
        const float is = 1.0f / std::sqrt(rv[j] + eps);
        for (int64_t i = 0; i < n; ++i)
          for (int64_t k = 0; k < hw; ++k)
            yp[(i * c + j) * hw + k] =
                gamma[j] * (xp[(i * c + j) * hw + k] - rm[j]) * is + beta[j];
      }
      return y;
    }
    xhat = Tensor(x.shape());
    inv_std.assign(static_cast<size_t>(c), 0.0f);
    for (int64_t j = 0; j < c; ++j) {
      double mean = 0.0, var = 0.0;
      for (int64_t i = 0; i < n; ++i)
        for (int64_t k = 0; k < hw; ++k) mean += xp[(i * c + j) * hw + k];
      mean /= static_cast<double>(per_channel);
      for (int64_t i = 0; i < n; ++i)
        for (int64_t k = 0; k < hw; ++k) {
          const double d = xp[(i * c + j) * hw + k] - mean;
          var += d * d;
        }
      var /= static_cast<double>(per_channel);
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      inv_std[j] = is;
      rm[j] = (1.0f - momentum) * rm[j] + momentum * static_cast<float>(mean);
      rv[j] = (1.0f - momentum) * rv[j] + momentum * static_cast<float>(var);
      for (int64_t i = 0; i < n; ++i)
        for (int64_t k = 0; k < hw; ++k) {
          const int64_t at = (i * c + j) * hw + k;
          const float v = (xp[at] - static_cast<float>(mean)) * is;
          xhat[at] = v;
          yp[at] = gamma[j] * v + beta[j];
        }
    }
    return y;
  }

  Tensor backward(const Tensor& g, std::vector<float>& dgam,
                  std::vector<float>& dbet) const {
    const int64_t n = g.dim(0), c = g.dim(1), hw = g.dim(2) * g.dim(3);
    const auto m = static_cast<float>(n * hw);
    Tensor dx(g.shape());
    for (int64_t j = 0; j < c; ++j) {
      double sum_dy = 0.0, sum_dy_xh = 0.0;
      for (int64_t i = 0; i < n; ++i)
        for (int64_t k = 0; k < hw; ++k) {
          const int64_t at = (i * c + j) * hw + k;
          sum_dy += g[at];
          sum_dy_xh += double(g[at]) * xhat[at];
        }
      dgam[j] += static_cast<float>(sum_dy_xh);
      dbet[j] += static_cast<float>(sum_dy);
      const float a = gamma[j] * inv_std[j];
      const float mean_dy = static_cast<float>(sum_dy) / m;
      const float mean_dy_xh = static_cast<float>(sum_dy_xh) / m;
      for (int64_t i = 0; i < n; ++i)
        for (int64_t k = 0; k < hw; ++k) {
          const int64_t at = (i * c + j) * hw + k;
          dx[at] = a * (g[at] - mean_dy - xhat[at] * mean_dy_xh);
        }
    }
    return dx;
  }
};

/// Bit-for-bit equality, except that any NaN equals any NaN: when both
/// operands of + or * are NaN, x86 returns the first one's payload, and a
/// compiler may commute the operands of either, so the sign and payload of
/// such a NaN are not a property of the source loop.
bool same_bits(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i]) &&
        !(std::isnan(a[i]) && std::isnan(b[i])))
      return false;
  return true;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.flat(), b.flat());
}

bool same_bits(const Tensor& a, const std::vector<float>& b) {
  return same_bits(a.flat(), b);
}

/// Normal values; with `special`, every 7th element is one of -0, NaN,
/// +inf, -inf, +0 in turn.
Tensor sweep_tensor(Rng& rng, const Shape& shape, bool special) {
  Tensor t = rng.normal_tensor(shape, 0.5f, 1.5f);
  if (!special) return t;
  const float values[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 0.0f};
  for (int64_t i = 3, v = 0; i < t.size(); i += 7, v = (v + 1) % 5)
    t[i] = values[v];
  return t;
}

/// (n, c, h, w)
using SweepShape = std::tuple<int64_t, int64_t, std::pair<int64_t, int64_t>>;

class KernelSweep : public ::testing::TestWithParam<SweepShape> {
 protected:
  Shape shape() const {
    const auto [n, c, hw] = GetParam();
    return {n, c, hw.first, hw.second};
  }
};

TEST_P(KernelSweep, BatchNormMatchesScalarLoopsBitwise) {
  const Shape s = shape();
  const int64_t c = s[1];
  for (const bool special : {false, true}) {
    Rng rng(71);
    BatchNorm2d bn(c);
    ScalarBn ref;
    std::vector<Tensor*> state;
    bn.collect_state(state);  // gamma, beta, running mean, running var
    for (Tensor* t : state) *t = rng.normal_tensor(t->shape(), 1.0f, 0.3f);
    ref.gamma.assign(state[0]->flat().begin(), state[0]->flat().end());
    ref.beta.assign(state[1]->flat().begin(), state[1]->flat().end());
    ref.rm.assign(state[2]->flat().begin(), state[2]->flat().end());
    ref.rv.assign(state[3]->flat().begin(), state[3]->flat().end());

    const Tensor x = sweep_tensor(rng, s, special);
    const Tensor g = sweep_tensor(rng, s, special);
    EXPECT_TRUE(same_bits(bn.forward(x, false), ref.forward(x, false)))
        << "eval y, special " << special;
    EXPECT_TRUE(same_bits(bn.forward(x, true), ref.forward(x, true)))
        << "train y, special " << special;
    EXPECT_TRUE(same_bits(*state[2], ref.rm)) << "running mean";
    EXPECT_TRUE(same_bits(*state[3], ref.rv)) << "running var";

    std::vector<float> dgam(static_cast<size_t>(c), 0.5f), dbet = dgam;
    for (Parameter* p : bn.parameters()) p->grad.fill(0.5f);
    EXPECT_TRUE(same_bits(bn.backward(g), ref.backward(g, dgam, dbet)))
        << "dx, special " << special;
    EXPECT_TRUE(same_bits(bn.parameters()[0]->grad, dgam)) << "dgamma";
    EXPECT_TRUE(same_bits(bn.parameters()[1]->grad, dbet)) << "dbeta";
  }
}

TEST_P(KernelSweep, ReluAndElementwiseOpsMatchScalarLoopsBitwise) {
  const Shape s = shape();
  for (const bool special : {false, true}) {
    Rng rng(72);
    const Tensor a = sweep_tensor(rng, s, special);
    const Tensor b = sweep_tensor(rng, s, special);
    const Tensor v0 = sweep_tensor(rng, s, special);
    const int64_t n = a.size();

    ReLU relu;
    Tensor y_ref(s), mask_ref(s);
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t keep = 0u - static_cast<uint32_t>(a[i] > 0.0f);
      y_ref[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(a[i]) & keep);
      mask_ref[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(1.0f) & keep);
    }
    EXPECT_TRUE(same_bits(relu.forward(a, true), y_ref)) << "relu y";
    Tensor dx_ref(s);
    for (int64_t i = 0; i < n; ++i) dx_ref[i] = b[i] * mask_ref[i];
    EXPECT_TRUE(same_bits(relu.backward(b), dx_ref)) << "relu dx";

    Tensor mul_ref(s), add_ref = b, axpy_ref = b;
    for (int64_t i = 0; i < n; ++i) {
      mul_ref[i] = a[i] * b[i];
      add_ref[i] += a[i];
      axpy_ref[i] += -0.75f * a[i];
    }
    EXPECT_TRUE(same_bits(tensor::mul(a, b), mul_ref)) << "mul";
    Tensor y = b;
    tensor::add_inplace(y, a);
    EXPECT_TRUE(same_bits(y, add_ref)) << "add_inplace";
    y = b;
    tensor::axpy(-0.75f, a, y);
    EXPECT_TRUE(same_bits(y, axpy_ref)) << "axpy";

    Tensor w = a, v = v0, w_ref = a, v_ref = v0;
    for (int64_t i = 0; i < n; ++i) {
      const float grad = b[i] + 5e-4f * w_ref[i];
      v_ref[i] = 0.9f * v_ref[i] - 0.05f * grad;
      w_ref[i] += v_ref[i];
    }
    tensor::sgd_momentum_update(w, v, b, 0.05f, 0.9f, 5e-4f);
    EXPECT_TRUE(same_bits(w, w_ref)) << "sgd w";
    EXPECT_TRUE(same_bits(v, v_ref)) << "sgd v";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelSweep,
    ::testing::Combine(
        ::testing::Values(int64_t{1}, int64_t{2}, int64_t{16}),
        ::testing::Values(int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                          int64_t{8}, int64_t{12}, int64_t{32}),
        ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                          std::pair<int64_t, int64_t>{3, 3},
                          std::pair<int64_t, int64_t>{4, 4},
                          std::pair<int64_t, int64_t>{5, 7},
                          std::pair<int64_t, int64_t>{16, 16})));

/// (in, out, stride, h = w, n, special inputs)
using BlockCase =
    std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, bool>;

class FusedBlock : public ::testing::TestWithParam<BlockCase> {};

TEST_P(FusedBlock, MatchesUnfusedLayersBitwise) {
  const auto [cin, cout, stride, hw, n, special] = GetParam();
  Rng rng(73);
  BasicBlock block(cin, cout, stride, rng);
  // The unfused composition, with the block's parameters copied in.
  Conv2d conv1(cin, cout, 3, stride, 1, rng), conv2(cout, cout, 3, 1, 1, rng);
  Conv2d short_conv(cin, cout, 1, stride, 0, rng);
  BatchNorm2d bn1(cout), bn2(cout), short_bn(cout);
  ReLU relu1, relu_out;
  const bool identity = stride == 1 && cin == cout;
  std::vector<Module*> layers = {&conv1, &bn1, &conv2, &bn2};
  if (!identity) layers.insert(layers.end(), {&short_conv, &short_bn});
  std::vector<Parameter*> mine;
  for (Module* m : layers) m->collect_parameters(mine);
  const std::vector<Parameter*> theirs = block.parameters();
  ASSERT_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    theirs[i]->value = rng.normal_tensor(theirs[i]->value.shape(), 0.2f, 0.5f);
    mine[i]->value = theirs[i]->value;
  }

  const int64_t ho = (hw - 1) / stride + 1;
  const Tensor x = sweep_tensor(rng, {n, cin, hw, hw}, special);
  const Tensor g = sweep_tensor(rng, {n, cout, ho, ho}, special);
  const auto unfused_forward = [&](bool train) {
    Tensor main = relu1.forward(
        bn1.forward(conv1.forward(x, train), train), train);
    main = bn2.forward(conv2.forward(main, train), train);
    tensor::add_inplace(main, identity ? x
                                       : short_bn.forward(
                                             short_conv.forward(x, train),
                                             train));
    return relu_out.forward(main, train);
  };
  EXPECT_TRUE(same_bits(block.forward(x, false), unfused_forward(false)))
      << "eval forward";
  EXPECT_TRUE(same_bits(block.forward(x, true), unfused_forward(true)))
      << "train forward";

  const Tensor d_sum = relu_out.backward(g);
  Tensor dx = conv1.backward(
      bn1.backward(relu1.backward(conv2.backward(bn2.backward(d_sum)))));
  tensor::axpy(1.0f, identity ? d_sum
                              : short_conv.backward(short_bn.backward(d_sum)),
               dx);
  EXPECT_TRUE(same_bits(block.backward(g), dx)) << "dx";
  for (size_t i = 0; i < mine.size(); ++i)
    EXPECT_TRUE(same_bits(theirs[i]->grad, mine[i]->grad))
        << "grad of parameter " << i;
  std::vector<Tensor*> state_mine, state_theirs;
  for (Module* m : layers) m->collect_state(state_mine);
  block.collect_state(state_theirs);
  ASSERT_EQ(state_mine.size(), state_theirs.size());
  for (size_t i = 0; i < state_mine.size(); ++i)
    EXPECT_TRUE(same_bits(*state_theirs[i], *state_mine[i]))
        << "state tensor " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, FusedBlock,
    ::testing::Values(BlockCase{8, 8, 1, 16, 2, false},
                      BlockCase{8, 8, 1, 16, 2, true},
                      BlockCase{8, 16, 2, 16, 2, false},
                      BlockCase{16, 32, 2, 8, 3, true},
                      BlockCase{32, 32, 1, 4, 4, false},
                      BlockCase{3, 3, 1, 5, 1, false},
                      BlockCase{5, 12, 2, 7, 2, true}));

}  // namespace
}  // namespace comdml::nn
