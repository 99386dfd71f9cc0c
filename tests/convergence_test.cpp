// Empirical verification of Theorem 1: both sides of local-loss split
// training converge, for convex and non-convex objectives, and the fast
// side's convergence is tied to the slow side's (constants C1/C2).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "analysis/convergence.hpp"
#include "data/synthetic.hpp"

namespace comdml::analysis {
namespace {

using nn::Rng;
using nn::Sequential;

// ---- analysis utilities ---------------------------------------------------------

TEST(Analysis, LogLogSlopeRecoversKnownRate) {
  std::vector<double> xs, ys;
  for (int r = 1; r <= 50; ++r) {
    xs.push_back(r);
    ys.push_back(3.0 / std::sqrt(static_cast<double>(r)));  // 1/sqrt(R)
  }
  EXPECT_NEAR(log_log_slope(xs, ys), -0.5, 1e-9);
}

TEST(Analysis, LogLogSlopeNeedsThreePoints) {
  std::vector<double> xs{1.0, 2.0}, ys{1.0, 0.5};
  EXPECT_THROW((void)log_log_slope(xs, ys), std::invalid_argument);
}

TEST(Analysis, DescentFractionOnMonotoneTrace) {
  std::vector<double> down{5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(descent_fraction(down), 1.0);
  std::vector<double> up{1, 2, 3};
  EXPECT_DOUBLE_EQ(descent_fraction(up), 0.0);
}

TEST(Analysis, ShrinkRatioMeasuresDecay) {
  std::vector<double> trace(20);
  for (size_t i = 0; i < trace.size(); ++i)
    trace[i] = 10.0 / static_cast<double>(i + 1);
  EXPECT_GT(shrink_ratio(trace), 5.0);
}

TEST(Analysis, GradientNormZeroAfterZeroGrad) {
  Rng rng(1);
  auto net = nn::mlp({4, 8, 2}, rng);
  net->zero_grad();
  EXPECT_DOUBLE_EQ(gradient_norm(*net), 0.0);
}

// ---- Theorem 1: convex case ------------------------------------------------------
//
// A linear model (no hidden nonlinearity) under softmax cross-entropy is a
// convex problem; the theorem predicts convergence of both sides at the
// faster (convex) rates.

TEST(Theorem1, ConvexBothSidesConverge) {
  Rng rng(2);
  auto ds = data::make_blobs(256, 3, 8, 0.25f, rng);
  // Two linear units -> the split problem on each side is convex.
  auto net = nn::mlp({8, 6, 3}, rng);  // unit 0 = Linear+ReLU... make pure:
  Sequential model;
  {
    Rng r2(3);
    auto u1 = std::make_unique<Sequential>();
    u1->push(std::make_unique<nn::Linear>(8, 6, r2));
    auto u2 = std::make_unique<Sequential>();
    u2->push(std::make_unique<nn::Linear>(6, 3, r2));
    model.push(std::move(u1));
    model.push(std::move(u2));
  }
  const auto traces = run_split_training(model, 1, {8}, 3, ds.images,
                                         ds.labels, 120, 0.1f, 4);
  // Losses shrink substantially and mostly monotonically.
  EXPECT_GT(shrink_ratio(traces.slow_loss), 1.5);
  EXPECT_GT(shrink_ratio(traces.fast_loss), 1.5);
  EXPECT_GT(descent_fraction(traces.slow_loss), 0.3);
  // Gradient norms decay toward stationarity.
  EXPECT_LT(traces.slow_grad_norm.back(),
            0.5 * *std::max_element(traces.slow_grad_norm.begin(),
                                    traces.slow_grad_norm.end()));
}

TEST(Theorem1, ConvexGradientNormDecaysPolynomially) {
  Rng rng(5);
  auto ds = data::make_blobs(256, 3, 8, 0.25f, rng);
  Sequential model;
  {
    Rng r2(6);
    auto u1 = std::make_unique<Sequential>();
    u1->push(std::make_unique<nn::Linear>(8, 6, r2));
    auto u2 = std::make_unique<Sequential>();
    u2->push(std::make_unique<nn::Linear>(6, 3, r2));
    model.push(std::move(u1));
    model.push(std::move(u2));
  }
  const auto traces = run_split_training(model, 1, {8}, 3, ds.images,
                                         ds.labels, 150, 0.1f, 7);
  std::vector<double> rounds(traces.fast_grad_norm.size());
  std::iota(rounds.begin(), rounds.end(), 1.0);
  // Theorem 1 (convex): at least O(1/sqrt(R)) decay -> log-log slope < -0.2
  // empirically (full-batch SGD is faster than the stochastic bound).
  const double slope = log_log_slope(rounds, traces.fast_grad_norm);
  EXPECT_LT(slope, -0.2);
}

// ---- Theorem 1: non-convex case --------------------------------------------------

TEST(Theorem1, NonConvexBothSidesConverge) {
  Rng rng(8);
  auto ds = data::make_blobs(256, 4, 10, 0.35f, rng);
  auto model = nn::mlp({10, 24, 24, 4}, rng);  // ReLU MLP: non-convex
  const auto traces = run_split_training(*model, 1, {10}, 4, ds.images,
                                         ds.labels, 150, 0.08f, 9);
  EXPECT_GT(shrink_ratio(traces.slow_loss), 1.2);
  EXPECT_GT(shrink_ratio(traces.fast_loss), 1.2);
}

TEST(Theorem1, FastSideConvergenceFollowsSlowSide) {
  // The fast side consumes the slow side's evolving representation; the
  // theorem encodes this as C1/C2 terms tied to the slow side's density
  // drift. Empirically: the fast side's loss at the end of training is
  // lower when the slow side has converged than when the slow side is
  // frozen at a *random* (unconverged but static) state -- i.e. fast-side
  // quality depends on slow-side quality.
  Rng rng(10);
  auto ds = data::make_blobs(256, 3, 8, 0.25f, rng);

  // (a) normal split training: slow side learns.
  auto learned = nn::mlp({8, 16, 3}, rng);
  const auto traces = run_split_training(*learned, 1, {8}, 3, ds.images,
                                         ds.labels, 80, 0.1f, 11);

  // (b) frozen slow side: train only the suffix on a random prefix.
  Rng rng_b(10);  // same init as (a) modulo the extra draws
  auto frozen = nn::mlp({8, 16, 3}, rng_b);
  nn::SGD fast_opt(
      [&] {
        std::vector<nn::Parameter*> p;
        frozen->unit(1).collect_parameters(p);
        return p;
      }(),
      {0.1f, 0.9f, 0.0f});
  float frozen_loss = 0.0f;
  for (int r = 0; r < 80; ++r) {
    const auto h = frozen->forward_range(ds.images, 0, 1, true);
    fast_opt.zero_grad();
    const auto logits = frozen->forward_range(h, 1, 2, true);
    const auto res = nn::softmax_cross_entropy(logits, ds.labels);
    (void)frozen->backward_range(res.grad_logits, 1, 2);
    fast_opt.step();
    frozen_loss = res.loss;
  }
  EXPECT_LT(traces.fast_loss.back(), frozen_loss);
}

TEST(Theorem1, SlowSideConvergesIndependentlyOfFastSide) {
  // The theorem proves slow-side convergence with no dependence on the
  // fast side: sabotaging the suffix must not change the slow-side trace.
  Rng rng(12);
  auto ds = data::make_blobs(200, 3, 8, 0.25f, rng);
  auto model_a = nn::mlp({8, 16, 3}, rng);
  auto model_b = nn::mlp({8, 16, 3}, rng);
  nn::load_state(*model_b, nn::state_of(*model_a));
  // Sabotage b's suffix.
  {
    std::vector<nn::Parameter*> p;
    model_b->unit(1).collect_parameters(p);
    for (auto* param : p) param->value.fill(100.0f);
  }
  const auto ta = run_split_training(*model_a, 1, {8}, 3, ds.images,
                                     ds.labels, 40, 0.1f, 13);
  const auto tb = run_split_training(*model_b, 1, {8}, 3, ds.images,
                                     ds.labels, 40, 0.1f, 13);
  for (size_t r = 0; r < ta.slow_loss.size(); ++r)
    EXPECT_NEAR(ta.slow_loss[r], tb.slow_loss[r], 1e-5) << r;
}

TEST(Theorem1, DeeperCutsStillConverge) {
  // Convergence holds for every admissible split m (the theorem is stated
  // per split model).
  Rng rng(14);
  auto ds = data::make_blobs(200, 3, 8, 0.25f, rng);
  for (const size_t cut : {1u, 2u, 3u}) {
    auto model = nn::mlp({8, 16, 16, 16, 3}, rng);
    const auto traces = run_split_training(*model, cut, {8}, 3, ds.images,
                                           ds.labels, 80, 0.08f, 15 + cut);
    EXPECT_GT(shrink_ratio(traces.fast_loss), 1.2) << "cut " << cut;
  }
}

}  // namespace
}  // namespace comdml::analysis
