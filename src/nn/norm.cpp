#include "nn/norm.hpp"

#include <algorithm>
#include <cmath>

#include "core/workspace.hpp"
#include "tensor/simd.hpp"

namespace comdml::nn {

namespace {

/// One call's NCHW extents: rows of `hw` floats, row (i, j) at (i*c + j)*hw.
struct Extent {
  int64_t n, c, hw;
};

/// Per-channel constants of the normalize pass. Training computes
/// v = (x - shift) * scale, caches v and emits gamma * v + beta; eval
/// emits gamma * (x - shift) * scale + beta.
struct Affine {
  float shift, scale, gamma, beta;
};

/// The tensors of one normalize pass; `mask` (the 1/0 mask of a ReLU
/// applied last) is optional, `res` (a residual added to the BN output
/// before that ReLU) comes only with it, and `xh` is written in training
/// only.
struct NormIo {
  const float* x;
  const float* res;
  float* y;
  float* xh;
  float* mask;
};

/// The tensors of one backward; `mask` multiplies grad_out first (a ReLU
/// backward) and `masked`, when set, receives that product.
struct GradIo {
  const float* g;
  const float* mask;
  const float* xh;
  float* masked;
  float* dx;
};

// ---- scalar kernels: the reference order of every operation ----------------

/// out[j] = chain over (i, k) ascending from +0 of x, or with `mean` of
/// (x - mean[j])^2, in double, for channels [j0, c).
void channel_sums_scalar(const float* xp, Extent e, const double* mean,
                         double* out, int64_t j0) {
  for (int64_t j = j0; j < e.c; ++j) {
    double acc = 0.0;
    for (int64_t i = 0; i < e.n; ++i) {
      const float* p = xp + (i * e.c + j) * e.hw;
      for (int64_t k = 0; k < e.hw; ++k) {
        if (mean == nullptr) {
          acc += p[k];
        } else {
          const double d = p[k] - mean[j];
          acc += d * d;
        }
      }
    }
    out[j] = acc;
  }
}

/// sum_dy[j] and sum_dy_xh[j], chains over (i, k) ascending from +0 of
/// dy = g (* mask) and dy * xh, for channels [j0, c).
void grad_sums_scalar(const GradIo& io, Extent e, double* sum_dy,
                      double* sum_dy_xh, int64_t j0) {
  for (int64_t j = j0; j < e.c; ++j) {
    double s = 0.0, sx = 0.0;
    for (int64_t i = 0; i < e.n; ++i) {
      const int64_t row = (i * e.c + j) * e.hw;
      for (int64_t k = row; k < row + e.hw; ++k) {
        const float dy = io.mask != nullptr ? io.g[k] * io.mask[k] : io.g[k];
        if (io.masked != nullptr) io.masked[k] = dy;
        s += dy;
        sx += double(dy) * io.xh[k];
      }
    }
    sum_dy[j] = s;
    sum_dy_xh[j] = sx;
  }
}

/// What the normalize pass applies after the affine.
enum class Tail { kNone, kRelu, kResRelu };

template <bool kTrain, Tail kTail>
inline void normalize_scalar(const NormIo& io, Affine a, int64_t lo,
                             int64_t hi) {
  for (int64_t k = lo; k < hi; ++k) {
    float out;
    if constexpr (kTrain) {
      const float v = (io.x[k] - a.shift) * a.scale;
      io.xh[k] = v;
      out = a.gamma * v + a.beta;
    } else {
      out = a.gamma * (io.x[k] - a.shift) * a.scale + a.beta;
    }
    if constexpr (kTail == Tail::kResRelu) out += io.res[k];
    if constexpr (kTail != Tail::kNone) out = simd::relu(out, io.mask[k]);
    io.y[k] = out;
  }
}

/// dx = a * (dy - mean_dy - xh * mean_dy_xh) with dy = g (* mask).
template <bool kMask>
inline void grad_dx_scalar(const GradIo& io, float a, float mean_dy,
                           float mean_dy_xh, int64_t lo, int64_t hi) {
  for (int64_t k = lo; k < hi; ++k) {
    const float dy = kMask ? io.g[k] * io.mask[k] : io.g[k];
    io.dx[k] = a * (dy - mean_dy - io.xh[k] * mean_dy_xh);
  }
}

// ---- AVX2 kernels ----------------------------------------------------------
//
// Statistics put one channel in each double lane: four rows of 4 floats
// transpose into four vectors of 4 channels at consecutive k, so each lane
// adds its own channel's elements in the scalar order. G groups of 4
// channels run side by side to hide the add latency. The elementwise
// passes run 8 floats of a row with the scalar operation order.

#if COMDML_SIMD_X86
#define COMDML_AVX2 __attribute__((target("avx2")))

/// Floats k..k+3 of rows p, p + hw, p + 2hw, p + 3hw as four vectors of
/// the 4 rows at k, k+1, k+2, k+3.
COMDML_AVX2 inline void load_transposed(const float* p, int64_t hw, int64_t k,
                                        __m128 t[4]) {
  t[0] = _mm_loadu_ps(p + k);
  t[1] = _mm_loadu_ps(p + hw + k);
  t[2] = _mm_loadu_ps(p + 2 * hw + k);
  t[3] = _mm_loadu_ps(p + 3 * hw + k);
  _MM_TRANSPOSE4_PS(t[0], t[1], t[2], t[3]);
}

/// Float k of the rows p, p + hw, p + 2hw, p + 3hw as doubles.
COMDML_AVX2 inline __m256d load_column(const float* p, int64_t hw,
                                       int64_t k) {
  return _mm256_cvtps_pd(
      _mm_set_ps(p[3 * hw + k], p[2 * hw + k], p[hw + k], p[k]));
}

template <bool kVar>
COMDML_AVX2 inline __m256d sum_term(__m256d v, __m256d mean) {
  if constexpr (!kVar) return v;
  const __m256d d = _mm256_sub_pd(v, mean);
  return _mm256_mul_pd(d, d);
}

template <int G, bool kVar>
COMDML_AVX2 void channel_sums_avx2(const float* xp, Extent e,
                                   const double* mean, double* out,
                                   int64_t j0) {
  __m256d acc[G], mv[G];
  for (int g = 0; g < G; ++g) {
    acc[g] = _mm256_setzero_pd();
    mv[g] = kVar ? _mm256_loadu_pd(mean + j0 + 4 * g) : _mm256_setzero_pd();
  }
  for (int64_t i = 0; i < e.n; ++i) {
    const float* base = xp + (i * e.c + j0) * e.hw;
    int64_t k = 0;
    for (; k + 4 <= e.hw; k += 4)
      for (int g = 0; g < G; ++g) {
        __m128 t[4];
        load_transposed(base + 4 * g * e.hw, e.hw, k, t);
        for (int q = 0; q < 4; ++q)
          acc[g] = _mm256_add_pd(
              acc[g], sum_term<kVar>(_mm256_cvtps_pd(t[q]), mv[g]));
      }
    for (; k < e.hw; ++k)
      for (int g = 0; g < G; ++g)
        acc[g] = _mm256_add_pd(
            acc[g],
            sum_term<kVar>(load_column(base + 4 * g * e.hw, e.hw, k), mv[g]));
  }
  for (int g = 0; g < G; ++g) _mm256_storeu_pd(out + j0 + 4 * g, acc[g]);
}

/// Four rows of dy = g (* mask) at k..k+3, stored to `masked` when set,
/// then transposed like load_transposed.
COMDML_AVX2 inline void load_dy_transposed(const GradIo& io, int64_t at,
                                           int64_t hw, int64_t k,
                                           __m128 t[4]) {
  for (int l = 0; l < 4; ++l) {
    const int64_t o = at + l * hw + k;
    t[l] = _mm_loadu_ps(io.g + o);
    if (io.mask != nullptr) t[l] = _mm_mul_ps(t[l], _mm_loadu_ps(io.mask + o));
    if (io.masked != nullptr) _mm_storeu_ps(io.masked + o, t[l]);
  }
  _MM_TRANSPOSE4_PS(t[0], t[1], t[2], t[3]);
}

template <int G>
COMDML_AVX2 void grad_sums_avx2(const GradIo& io, Extent e, double* sum_dy,
                                double* sum_dy_xh, int64_t j0) {
  __m256d s[G], sx[G];
  for (int g = 0; g < G; ++g) s[g] = sx[g] = _mm256_setzero_pd();
  for (int64_t i = 0; i < e.n; ++i) {
    const int64_t at = (i * e.c + j0) * e.hw;
    int64_t k = 0;
    for (; k + 4 <= e.hw; k += 4)
      for (int g = 0; g < G; ++g) {
        __m128 dy[4], xh[4];
        load_dy_transposed(io, at + 4 * g * e.hw, e.hw, k, dy);
        load_transposed(io.xh + at + 4 * g * e.hw, e.hw, k, xh);
        for (int q = 0; q < 4; ++q) {
          const __m256d d = _mm256_cvtps_pd(dy[q]);
          s[g] = _mm256_add_pd(s[g], d);
          sx[g] = _mm256_add_pd(sx[g],
                                _mm256_mul_pd(d, _mm256_cvtps_pd(xh[q])));
        }
      }
    for (; k < e.hw; ++k)
      for (int g = 0; g < G; ++g) {
        float dy[4];
        for (int l = 0; l < 4; ++l) {
          const int64_t o = at + (4 * g + l) * e.hw + k;
          dy[l] = io.mask != nullptr ? io.g[o] * io.mask[o] : io.g[o];
          if (io.masked != nullptr) io.masked[o] = dy[l];
        }
        const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(dy));
        s[g] = _mm256_add_pd(s[g], d);
        sx[g] = _mm256_add_pd(
            sx[g],
            _mm256_mul_pd(d, load_column(io.xh + at + 4 * g * e.hw, e.hw, k)));
      }
  }
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_pd(sum_dy + j0 + 4 * g, s[g]);
    _mm256_storeu_pd(sum_dy_xh + j0 + 4 * g, sx[g]);
  }
}

template <bool kTrain, Tail kTail>
COMDML_AVX2 void normalize_avx2(const NormIo& io, Affine a, int64_t hw) {
  const __m256 shift = _mm256_set1_ps(a.shift);
  const __m256 scale = _mm256_set1_ps(a.scale);
  const __m256 gamma = _mm256_set1_ps(a.gamma);
  const __m256 beta = _mm256_set1_ps(a.beta);
  int64_t k = 0;
  for (; k + 8 <= hw; k += 8) {
    const __m256 x = _mm256_sub_ps(_mm256_loadu_ps(io.x + k), shift);
    __m256 out;
    if constexpr (kTrain) {
      const __m256 v = _mm256_mul_ps(x, scale);
      _mm256_storeu_ps(io.xh + k, v);
      out = _mm256_add_ps(_mm256_mul_ps(gamma, v), beta);
    } else {
      out = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(gamma, x), scale), beta);
    }
    if constexpr (kTail == Tail::kResRelu)
      out = _mm256_add_ps(out, _mm256_loadu_ps(io.res + k));
    if constexpr (kTail != Tail::kNone) {
      __m256 m;
      out = simd::relu8(out, m);
      _mm256_storeu_ps(io.mask + k, m);
    }
    _mm256_storeu_ps(io.y + k, out);
  }
  normalize_scalar<kTrain, kTail>(io, a, k, hw);
}

template <bool kMask>
COMDML_AVX2 void grad_dx_avx2(const GradIo& io, float a, float mean_dy,
                              float mean_dy_xh, int64_t hw) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vm = _mm256_set1_ps(mean_dy);
  const __m256 vmx = _mm256_set1_ps(mean_dy_xh);
  int64_t k = 0;
  for (; k + 8 <= hw; k += 8) {
    __m256 dy = _mm256_loadu_ps(io.g + k);
    if constexpr (kMask) dy = _mm256_mul_ps(dy, _mm256_loadu_ps(io.mask + k));
    const __m256 t = _mm256_sub_ps(
        _mm256_sub_ps(dy, vm), _mm256_mul_ps(_mm256_loadu_ps(io.xh + k), vmx));
    _mm256_storeu_ps(io.dx + k, _mm256_mul_ps(va, t));
  }
  grad_dx_scalar<kMask>(io, a, mean_dy, mean_dy_xh, k, hw);
}

#undef COMDML_AVX2
#endif  // COMDML_SIMD_X86

// ---- dispatch --------------------------------------------------------------

#if COMDML_SIMD_X86
/// Runs the channel-lane kernels over whole groups of 4 channels, 16 or 8
/// channels at a time where they fit; returns the first channel left over.
template <bool kVar>
int64_t channel_sums_lanes(const float* xp, Extent e, const double* mean,
                           double* out) {
  int64_t j0 = 0;
  for (; j0 + 16 <= e.c; j0 += 16)
    channel_sums_avx2<4, kVar>(xp, e, mean, out, j0);
  for (; j0 + 8 <= e.c; j0 += 8)
    channel_sums_avx2<2, kVar>(xp, e, mean, out, j0);
  for (; j0 + 4 <= e.c; j0 += 4)
    channel_sums_avx2<1, kVar>(xp, e, mean, out, j0);
  return j0;
}

int64_t grad_sums_lanes(const GradIo& io, Extent e, double* sum_dy,
                        double* sum_dy_xh) {
  int64_t j0 = 0;
  for (; j0 + 16 <= e.c; j0 += 16)
    grad_sums_avx2<4>(io, e, sum_dy, sum_dy_xh, j0);
  for (; j0 + 8 <= e.c; j0 += 8)
    grad_sums_avx2<2>(io, e, sum_dy, sum_dy_xh, j0);
  for (; j0 + 4 <= e.c; j0 += 4)
    grad_sums_avx2<1>(io, e, sum_dy, sum_dy_xh, j0);
  return j0;
}
#endif

/// Sums (mean == nullptr) or squared deviations from mean[j], per channel.
void channel_sums(const float* xp, Extent e, const double* mean, double* out) {
  int64_t rest = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2)
    rest = mean != nullptr ? channel_sums_lanes<true>(xp, e, mean, out)
                           : channel_sums_lanes<false>(xp, e, mean, out);
#endif
  channel_sums_scalar(xp, e, mean, out, rest);
}

void grad_sums(const GradIo& io, Extent e, double* sum_dy, double* sum_dy_xh) {
  int64_t rest = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2) rest = grad_sums_lanes(io, e, sum_dy, sum_dy_xh);
#endif
  grad_sums_scalar(io, e, sum_dy, sum_dy_xh, rest);
}

template <bool kTrain, Tail kTail>
void normalize_rows(const NormIo& io, Extent e, const Affine* aff) {
  for (int64_t i = 0; i < e.n; ++i)
    for (int64_t j = 0; j < e.c; ++j) {
      const int64_t at = (i * e.c + j) * e.hw;
      const NormIo row{io.x + at,
                       kTail == Tail::kResRelu ? io.res + at : nullptr,
                       io.y + at, kTrain ? io.xh + at : nullptr,
                       kTail != Tail::kNone ? io.mask + at : nullptr};
#if COMDML_SIMD_X86
      if (simd::kAvx2) {
        normalize_avx2<kTrain, kTail>(row, aff[j], e.hw);
        continue;
      }
#endif
      normalize_scalar<kTrain, kTail>(row, aff[j], 0, e.hw);
    }
}

void normalize(const NormIo& io, Extent e, const Affine* aff, bool train) {
  using Rows = void (*)(const NormIo&, Extent, const Affine*);
  // [train][Tail]
  static constexpr Rows kRows[2][3] = {
      {normalize_rows<false, Tail::kNone>, normalize_rows<false, Tail::kRelu>,
       normalize_rows<false, Tail::kResRelu>},
      {normalize_rows<true, Tail::kNone>, normalize_rows<true, Tail::kRelu>,
       normalize_rows<true, Tail::kResRelu>}};
  COMDML_DCHECK(io.res == nullptr || io.mask != nullptr);
  const Tail tail = io.mask == nullptr  ? Tail::kNone
                    : io.res == nullptr ? Tail::kRelu
                                        : Tail::kResRelu;
  kRows[train][static_cast<int>(tail)](io, e, aff);
}

template <bool kMask>
void grad_dx_rows(const GradIo& io, Extent e, const float* a,
                  const float* mean_dy, const float* mean_dy_xh) {
  for (int64_t i = 0; i < e.n; ++i)
    for (int64_t j = 0; j < e.c; ++j) {
      const int64_t at = (i * e.c + j) * e.hw;
      const GradIo row{io.g + at, kMask ? io.mask + at : nullptr, io.xh + at,
                       nullptr, io.dx + at};
#if COMDML_SIMD_X86
      if (simd::kAvx2) {
        grad_dx_avx2<kMask>(row, a[j], mean_dy[j], mean_dy_xh[j], e.hw);
        continue;
      }
#endif
      grad_dx_scalar<kMask>(row, a[j], mean_dy[j], mean_dy_xh[j], 0, e.hw);
    }
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor({channels}, 1.0f)),
      beta_("bn.beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {
  COMDML_CHECK(channels > 0 && momentum > 0.0f && momentum <= 1.0f &&
               eps > 0.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  return forward_impl(x, train, nullptr, nullptr);
}

Tensor BatchNorm2d::forward_relu(const Tensor& x, bool train,
                                 const Tensor* residual, Tensor& relu_mask) {
  if (residual != nullptr)
    COMDML_REQUIRE(residual->shape() == x.shape(),
                   "batchnorm: residual " << tensor::shape_str(
                                                 residual->shape())
                                          << " does not match input "
                                          << tensor::shape_str(x.shape()));
  if (relu_mask.shape() != x.shape()) relu_mask.resize(x.shape());
  return forward_impl(x, train, residual, &relu_mask);
}

Tensor BatchNorm2d::forward_impl(const Tensor& x, bool train,
                                 const Tensor* residual, Tensor* relu_mask) {
  COMDML_REQUIRE(x.rank() == 4 && x.dim(1) == channels_,
                 "batchnorm: expected [N," << channels_ << ",H,W], got "
                                           << tensor::shape_str(x.shape()));
  const Extent e{x.dim(0), channels_, x.dim(2) * x.dim(3)};
  const auto per_channel = static_cast<double>(e.n * e.hw);
  Tensor y(x.shape());
  const float* xp = x.flat().data();
  const float* gp = gamma_.value.flat().data();
  const float* bp = beta_.value.flat().data();
  float* rm = running_mean_.flat().data();
  float* rv = running_var_.flat().data();
  NormIo io{xp, residual != nullptr ? residual->flat().data() : nullptr,
            y.flat().data(), nullptr,
            relu_mask != nullptr ? relu_mask->flat().data() : nullptr};
  core::Scratch<Affine> aff(e.c);

  if (train) {
    // Reuse the cached scratch storage across steps (steady-state shapes
    // are fixed); both tensors are fully rewritten below.
    cached_xhat_.resize(x.shape());
    cached_inv_std_.resize({e.c});
    io.xh = cached_xhat_.flat().data();
    float* is = cached_inv_std_.flat().data();
    core::Scratch<double> stats(2 * e.c);
    double* mean = stats.data();
    double* var = mean + e.c;
    channel_sums(xp, e, nullptr, mean);
    for (int64_t j = 0; j < e.c; ++j) mean[j] /= per_channel;
    channel_sums(xp, e, mean, var);
    for (int64_t j = 0; j < e.c; ++j) {
      var[j] /= per_channel;
      const float inv_std =
          1.0f / std::sqrt(static_cast<float>(var[j]) + eps_);
      is[j] = inv_std;
      rm[j] = (1.0f - momentum_) * rm[j] +
              momentum_ * static_cast<float>(mean[j]);
      rv[j] = (1.0f - momentum_) * rv[j] +
              momentum_ * static_cast<float>(var[j]);
      aff[j] = {static_cast<float>(mean[j]), inv_std, gp[j], bp[j]};
    }
  } else {
    for (int64_t j = 0; j < e.c; ++j)
      aff[j] = {rm[j], 1.0f / std::sqrt(rv[j] + eps_), gp[j], bp[j]};
  }
  normalize(io, e, aff.data(), train);
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, nullptr, nullptr);
}

Tensor BatchNorm2d::backward_masked(const Tensor& grad_out,
                                    const Tensor& relu_mask,
                                    Tensor* masked_grad) {
  COMDML_CHECK(relu_mask.shape() == grad_out.shape());
  if (masked_grad != nullptr && masked_grad->shape() != grad_out.shape())
    masked_grad->resize(grad_out.shape());
  return backward_impl(grad_out, &relu_mask, masked_grad);
}

Tensor BatchNorm2d::backward_impl(const Tensor& grad_out,
                                  const Tensor* relu_mask,
                                  Tensor* masked_grad) {
  COMDML_CHECK(!cached_xhat_.empty());
  const Shape& s = cached_xhat_.shape();
  COMDML_CHECK(grad_out.shape() == s);
  const Extent e{s[0], s[1], s[2] * s[3]};
  const auto m = static_cast<float>(e.n * e.hw);

  Tensor dx(s);
  const GradIo io{grad_out.flat().data(),
                  relu_mask != nullptr ? relu_mask->flat().data() : nullptr,
                  cached_xhat_.flat().data(),
                  masked_grad != nullptr ? masked_grad->flat().data() : nullptr,
                  dx.flat().data()};
  const float* is = cached_inv_std_.flat().data();
  const float* gam = gamma_.value.flat().data();
  float* dgam = gamma_.grad.flat().data();
  float* dbet = beta_.grad.flat().data();

  core::Scratch<double> sums(2 * e.c);
  double* sum_dy = sums.data();
  double* sum_dy_xh = sum_dy + e.c;
  grad_sums(io, e, sum_dy, sum_dy_xh);
  core::Scratch<float> coef(3 * e.c);
  float* a = coef.data();
  float* mean_dy = a + e.c;
  float* mean_dy_xh = mean_dy + e.c;
  for (int64_t j = 0; j < e.c; ++j) {
    dgam[j] += static_cast<float>(sum_dy_xh[j]);
    dbet[j] += static_cast<float>(sum_dy[j]);
    a[j] = gam[j] * is[j];
    mean_dy[j] = static_cast<float>(sum_dy[j]) / m;
    mean_dy_xh[j] = static_cast<float>(sum_dy_xh[j]) / m;
  }
  if (io.mask != nullptr)
    grad_dx_rows<true>(io, e, a, mean_dy, mean_dy_xh);
  else
    grad_dx_rows<false>(io, e, a, mean_dy, mean_dy_xh);
  return dx;
}

void BatchNorm2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_state(std::vector<Tensor*>& out) {
  out.push_back(&gamma_.value);
  out.push_back(&beta_.value);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

LayerCost BatchNorm2d::cost(const Shape& in_shape) const {
  COMDML_REQUIRE(in_shape.size() == 3 && in_shape[0] == channels_,
                 "batchnorm cost: expected [" << channels_ << ",H,W]");
  LayerCost c;
  const auto n = static_cast<double>(tensor::shape_size(in_shape));
  c.flops_forward = 4.0 * n;
  c.flops_backward = 8.0 * n;
  c.param_bytes = 2 * channels_ * static_cast<int64_t>(sizeof(float));
  c.out_bytes =
      tensor::shape_size(in_shape) * static_cast<int64_t>(sizeof(float));
  c.out_shape = in_shape;
  return c;
}

}  // namespace comdml::nn
