// Shared helpers for the ComDML test suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace comdml::testing {

using nn::Module;
using tensor::Rng;
using tensor::Tensor;

/// Scalar probe L(x) = sum(forward(x) .* G) used for gradient checks.
inline float probe_loss(Module& m, const Tensor& x, const Tensor& g) {
  const Tensor y = m.forward(x, /*train=*/true);
  EXPECT_EQ(y.shape(), g.shape());
  double acc = 0.0;
  auto yo = y.flat();
  auto go = g.flat();
  for (size_t i = 0; i < yo.size(); ++i)
    acc += static_cast<double>(yo[i]) * go[i];
  return static_cast<float>(acc);
}

/// Max relative error between the analytic input gradient and central
/// finite differences. `g` is the upstream gradient (same shape as output).
inline double input_grad_error(Module& m, Tensor x, const Tensor& g,
                               float eps = 1e-2f) {
  (void)m.forward(x, true);
  const Tensor analytic = m.backward(g);
  double worst = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = probe_loss(m, x, g);
    x[i] = orig - eps;
    const float down = probe_loss(m, x, g);
    x[i] = orig;
    const double numeric = (static_cast<double>(up) - down) / (2.0 * eps);
    const double denom = std::max(1.0, std::fabs(numeric));
    worst = std::max(worst, std::fabs(numeric - analytic[i]) / denom);
  }
  return worst;
}

/// Max relative error between analytic parameter gradients and central
/// finite differences (samples at most `max_checks` coordinates/parameter).
inline double param_grad_error(Module& m, const Tensor& x, const Tensor& g,
                               float eps = 1e-2f, int64_t max_checks = 24) {
  m.zero_grad();
  (void)m.forward(x, true);
  (void)m.backward(g);
  double worst = 0.0;
  for (nn::Parameter* p : m.parameters()) {
    const int64_t stride =
        std::max<int64_t>(1, p->value.size() / max_checks);
    for (int64_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const float up = probe_loss(m, x, g);
      p->value[i] = orig - eps;
      const float down = probe_loss(m, x, g);
      p->value[i] = orig;
      const double numeric = (static_cast<double>(up) - down) / (2.0 * eps);
      const double denom = std::max(1.0, std::fabs(numeric));
      worst = std::max(worst, std::fabs(numeric - p->grad[i]) / denom);
    }
  }
  return worst;
}

/// Random tensor whose entries stay away from ReLU's kink at zero.
inline Tensor away_from_zero(Rng& rng, tensor::Shape shape,
                             float margin = 0.15f) {
  Tensor t = rng.normal_tensor(std::move(shape), 0.0f, 1.0f);
  for (float& v : t.flat()) {
    if (std::fabs(v) < margin) v = v < 0 ? v - margin : v + margin;
  }
  return t;
}

/// Payloads that stress the int8 round trip: random ones of lengths 0-37
/// and 16387 with NaN, +-Inf and signed zeros at the front, the middle and
/// the end (in the vector body and in the scalar tail alike), negatives
/// that round to -0, all zeros, a sub-FLT_MIN range, exact .5 ties and a
/// range just above FLT_MIN. Each comes with what it tests.
inline std::vector<std::pair<std::string, std::vector<double>>>
codec_payloads() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, std::vector<double>>> out;
  Rng rng(7);
  std::vector<size_t> lengths(38);
  std::iota(lengths.begin(), lengths.end(), size_t{0});
  lengths.push_back(16387);
  for (const size_t n : lengths) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.normal(0.0f, 2.0f);
    out.emplace_back("random", data);
    if (n == 0) continue;
    for (const size_t at : {size_t{0}, n / 2, n - 1}) {
      auto special = data;
      special[at] = kNaN;
      out.emplace_back("NaN", special);
      special[at] = -0.0;
      special[n - 1 - at] = 0.0;
      out.emplace_back("signed zeros", special);
      special[at] = kInf;
      out.emplace_back("+Inf", special);
      special[at] = -kInf;
      out.emplace_back("-Inf", special);
    }
    // Negatives that round to -0: max|v| = 127 makes the scale exactly 1.
    std::vector<double> small(n);
    for (size_t i = 0; i < n; ++i)
      small[i] = -0.49 * static_cast<double>(i % 3) / 2.0;
    small[n - 1] = -127.0;
    out.emplace_back("negatives to -0", small);
    out.emplace_back("all zero", std::vector<double>(n, 0.0));
    std::vector<double> tiny(n);
    for (size_t i = 0; i < n; ++i)
      tiny[i] = (i % 2 == 0 ? 1.0 : -1.0) * 1e-40 * static_cast<double>(i);
    out.emplace_back("sub-FLT_MIN range", tiny);
  }
  // Exact .5 ties: with max|v| = 127 the scale is exactly 1, so k + 0.5
  // hits nearbyint's round-half-to-even on every element.
  std::vector<double> ties{127.0};
  for (int k = -127; k < 127; ++k) ties.push_back(k + 0.5);
  for (size_t n = 1; n <= ties.size(); n += 13)
    out.emplace_back("ties",
                     std::vector<double>(ties.begin(), ties.begin() + n));
  // Just above the fp32 normal range: the scale is normal, the elements
  // are not.
  std::vector<double> near_min(37);
  for (size_t i = 0; i < near_min.size(); ++i)
    near_min[i] = std::numeric_limits<float>::min() * 127.0 * 3.0 *
                  (static_cast<double>(i) / 36.0 - 0.5);
  out.emplace_back("near FLT_MIN", near_min);
  return out;
}

}  // namespace comdml::testing
