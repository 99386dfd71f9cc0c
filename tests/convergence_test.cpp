// Empirical verification of Theorem 1: both sides of local-loss split
// training converge, for convex and non-convex objectives, and the fast
// side's convergence is tied to the slow side's (constants C1/C2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/split.hpp"

namespace comdml::analysis {
namespace {

using nn::Rng;
using nn::Sequential;

// ---- the theorem's measurements -------------------------------------------------
//
// The paper proves O(1/sqrt(R A_m)) (non-convex) and O(1/(R A_m)) + linear
// (convex) convergence of the slow and fast agent-side models under
// local-loss split training, with fast-side convergence *contingent on*
// slow-side convergence (constants C1/C2). These helpers measure the
// quantities the theorem speaks about — gradient norms and suboptimality
// traces — and fit decay rates.

/// Global L2 norm of all parameter gradients currently accumulated in `m`.
double gradient_norm(nn::Module& m) {
  double sq = 0.0;
  for (const nn::Parameter* p : m.parameters())
    for (const float g : p->grad.flat()) sq += static_cast<double>(g) * g;
  return std::sqrt(sq);
}

/// Least-squares slope of log(y) against log(x) over positive samples —
/// the empirical decay exponent (a 1/R rate gives slope ~ -1, a 1/sqrt(R)
/// rate gives slope ~ -0.5). Requires >= 3 positive points.
double log_log_slope(std::span<const double> xs, std::span<const double> ys) {
  COMDML_CHECK(xs.size() == ys.size());
  std::vector<double> lx, ly;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > 0.0 && ys[i] > 0.0) {
      lx.push_back(std::log(xs[i]));
      ly.push_back(std::log(ys[i]));
    }
  }
  COMDML_REQUIRE(lx.size() >= 3, "need >= 3 positive samples, got "
                                     << lx.size());
  double mx = 0, my = 0;
  for (size_t i = 0; i < lx.size(); ++i) {
    mx += lx[i];
    my += ly[i];
  }
  mx /= static_cast<double>(lx.size());
  my /= static_cast<double>(lx.size());
  double cov = 0, var = 0;
  for (size_t i = 0; i < lx.size(); ++i) {
    cov += (lx[i] - mx) * (ly[i] - my);
    var += (lx[i] - mx) * (lx[i] - mx);
  }
  COMDML_REQUIRE(var > 0.0, "degenerate x range");
  return cov / var;
}

/// Fraction of steps where the running minimum improved — a robustness
/// measure of "the trace is going down" that tolerates SGD noise.
double descent_fraction(std::span<const double> trace) {
  COMDML_CHECK(trace.size() >= 2);
  double best = trace[0];
  size_t improved = 0;
  for (size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] < best) {
      best = trace[i];
      ++improved;
    }
  }
  return static_cast<double>(improved) /
         static_cast<double>(trace.size() - 1);
}

/// Smallest prefix mean / last-window mean (how much the trace shrank).
double shrink_ratio(std::span<const double> trace, size_t window = 5) {
  COMDML_CHECK(trace.size() >= 2 * window && window >= 1);
  double head = 0, tail = 0;
  for (size_t i = 0; i < window; ++i) {
    head += trace[i];
    tail += trace[trace.size() - 1 - i];
  }
  // A tail of exactly zero means the objective fully converged; report a
  // large finite ratio instead of dividing by zero.
  return head / std::max(tail, 1e-12);
}

/// Traces from one local-loss split-training run (Theorem 1's setting).
struct SplitRunTraces {
  std::vector<double> slow_loss;       ///< f_s per round (Eq. 2)
  std::vector<double> fast_loss;       ///< f_f per round (Eq. 3)
  std::vector<double> slow_grad_norm;  ///< ||grad f_s|| after each round
  std::vector<double> fast_grad_norm;  ///< ||grad f_f|| after each round
};

/// Train `model` (cut at `cut`) with local-loss split training for
/// `rounds` full-batch steps on (x, labels), recording the theorem's
/// quantities. The model is trained in place.
SplitRunTraces run_split_training(nn::Sequential& model, size_t cut,
                                  const tensor::Shape& in_shape,
                                  int64_t classes, const tensor::Tensor& x,
                                  std::span<const int64_t> labels,
                                  int64_t rounds, float lr, uint64_t seed) {
  COMDML_CHECK(rounds > 0);
  tensor::Rng rng(seed);
  nn::LocalLossSplitTrainer trainer(model, cut, in_shape, classes, rng,
                                    {lr, 0.9f, 0.0f});
  SplitRunTraces traces;
  traces.slow_loss.reserve(static_cast<size_t>(rounds));
  for (int64_t r = 0; r < rounds; ++r) {
    const auto stats = trainer.train_batch(x, labels);
    traces.slow_loss.push_back(stats.slow_loss);
    traces.fast_loss.push_back(stats.fast_loss);
    // Gradient norms of the *last* step, split by side: prefix + aux vs
    // suffix. train_batch leaves the most recent gradients in place.
    double slow_sq = 0.0, fast_sq = 0.0;
    for (size_t u = 0; u < model.size(); ++u) {
      std::vector<nn::Parameter*> params;
      model.unit(u).collect_parameters(params);
      double sq = 0.0;
      for (const nn::Parameter* p : params)
        for (const float g : p->grad.flat())
          sq += static_cast<double>(g) * g;
      if (u < cut)
        slow_sq += sq;
      else
        fast_sq += sq;
    }
    traces.slow_grad_norm.push_back(std::sqrt(slow_sq));
    traces.fast_grad_norm.push_back(std::sqrt(fast_sq));
  }
  return traces;
}

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
