#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"

namespace comdml::tensor {

namespace {

using core::parallel_for;

/// Elementwise kernels only fan out to the pool for tensors at least this
/// large; below it the dispatch overhead dwarfs the loop.
constexpr int64_t kElementwiseGrain = 1 << 15;

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  COMDML_REQUIRE(a.shape() == b.shape(),
                 op << ": shape mismatch " << shape_str(a.shape()) << " vs "
                    << shape_str(b.shape()));
}

// Scalar loops over [lo, hi); the AVX2 kernels below run 8 lanes of the
// same operations in the same order and hand their tail to these.

void mul_scalar(const float* a, const float* b, float* o, int64_t lo,
                int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) o[i] = a[i] * b[i];
}

void axpy_scalar(float alpha, const float* x, float* y, int64_t lo,
                 int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
}

void add_scalar(const float* x, float* y, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) y[i] += x[i];
}

void sgd_scalar(float* w, float* v, const float* g, float lr, float momentum,
                float weight_decay, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float grad = g[i] + weight_decay * w[i];
    v[i] = momentum * v[i] - lr * grad;
    w[i] += v[i];
  }
}

#if COMDML_SIMD_X86
__attribute__((target("avx2"))) void mul_avx2(const float* a, const float* b,
                                              float* o, int64_t lo,
                                              int64_t hi) {
  for (; lo + 8 <= hi; lo += 8)
    _mm256_storeu_ps(o + lo, _mm256_mul_ps(_mm256_loadu_ps(a + lo),
                                           _mm256_loadu_ps(b + lo)));
  mul_scalar(a, b, o, lo, hi);
}

__attribute__((target("avx2"))) void axpy_avx2(float alpha, const float* x,
                                               float* y, int64_t lo,
                                               int64_t hi) {
  const __m256 va = _mm256_set1_ps(alpha);
  for (; lo + 8 <= hi; lo += 8)
    _mm256_storeu_ps(
        y + lo, _mm256_add_ps(_mm256_loadu_ps(y + lo),
                              _mm256_mul_ps(va, _mm256_loadu_ps(x + lo))));
  axpy_scalar(alpha, x, y, lo, hi);
}

__attribute__((target("avx2"))) void add_avx2(const float* x, float* y,
                                              int64_t lo, int64_t hi) {
  for (; lo + 8 <= hi; lo += 8)
    _mm256_storeu_ps(y + lo, _mm256_add_ps(_mm256_loadu_ps(y + lo),
                                           _mm256_loadu_ps(x + lo)));
  add_scalar(x, y, lo, hi);
}

__attribute__((target("avx2"))) void sgd_avx2(float* w, float* v,
                                              const float* g, float lr,
                                              float momentum,
                                              float weight_decay, int64_t lo,
                                              int64_t hi) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vmom = _mm256_set1_ps(momentum);
  const __m256 vwd = _mm256_set1_ps(weight_decay);
  for (; lo + 8 <= hi; lo += 8) {
    const __m256 wv = _mm256_loadu_ps(w + lo);
    const __m256 grad =
        _mm256_add_ps(_mm256_loadu_ps(g + lo), _mm256_mul_ps(vwd, wv));
    const __m256 vel = _mm256_sub_ps(
        _mm256_mul_ps(vmom, _mm256_loadu_ps(v + lo)), _mm256_mul_ps(vlr, grad));
    _mm256_storeu_ps(v + lo, vel);
    _mm256_storeu_ps(w + lo, _mm256_add_ps(wv, vel));
  }
  sgd_scalar(w, v, g, lr, momentum, weight_decay, lo, hi);
}
#endif  // COMDML_SIMD_X86

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add");
  Tensor out(a.shape());
  const float* ao = a.flat().data();
  const float* bo = b.flat().data();
  float* oo = out.flat().data();
  parallel_for(0, out.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) oo[i] = ao[i] + bo[i];
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const float* ao = a.flat().data();
  const float* bo = b.flat().data();
  float* oo = out.flat().data();
  parallel_for(0, out.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) oo[i] = ao[i] - bo[i];
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "mul");
  Tensor out(a.shape());
  const float* ao = a.flat().data();
  const float* bo = b.flat().data();
  float* oo = out.flat().data();
  parallel_for(0, out.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
#if COMDML_SIMD_X86
    if (simd::kAvx2) return mul_avx2(ao, bo, oo, lo, hi);
#endif
    mul_scalar(ao, bo, oo, lo, hi);
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* ao = a.flat().data();
  float* oo = out.flat().data();
  parallel_for(0, out.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) oo[i] = ao[i] * s;
  });
  return out;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  require_same_shape(x, y, "axpy");
  const float* xo = x.flat().data();
  float* yo = y.flat().data();
  parallel_for(0, y.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
#if COMDML_SIMD_X86
    if (simd::kAvx2) return axpy_avx2(alpha, xo, yo, lo, hi);
#endif
    axpy_scalar(alpha, xo, yo, lo, hi);
  });
}

void add_inplace(Tensor& y, const Tensor& x) {
  require_same_shape(x, y, "add_inplace");
  const float* xo = x.flat().data();
  float* yo = y.flat().data();
  parallel_for(0, y.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
#if COMDML_SIMD_X86
    if (simd::kAvx2) return add_avx2(xo, yo, lo, hi);
#endif
    add_scalar(xo, yo, lo, hi);
  });
}

void scale_inplace(Tensor& y, float s) {
  float* yo = y.flat().data();
  parallel_for(0, y.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) yo[i] *= s;
  });
}

void scale_add_inplace(Tensor& y, float alpha, float beta, const Tensor& x) {
  require_same_shape(x, y, "scale_add_inplace");
  const float* xo = x.flat().data();
  float* yo = y.flat().data();
  parallel_for(0, y.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) yo[i] = alpha * yo[i] + beta * xo[i];
  });
}

void sgd_momentum_update(Tensor& w, Tensor& v, const Tensor& g, float lr,
                         float momentum, float weight_decay) {
  require_same_shape(w, v, "sgd_momentum_update");
  require_same_shape(w, g, "sgd_momentum_update");
  float* wo = w.flat().data();
  float* vo = v.flat().data();
  const float* go = g.flat().data();
  parallel_for(0, w.size(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
#if COMDML_SIMD_X86
    if (simd::kAvx2)
      return sgd_avx2(wo, vo, go, lr, momentum, weight_decay, lo, hi);
#endif
    sgd_scalar(wo, vo, go, lr, momentum, weight_decay, lo, hi);
  });
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.flat()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  COMDML_CHECK(a.size() > 0);
  return sum(a) / static_cast<float>(a.size());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.flat()) m = std::max(m, std::fabs(v));
  return m;
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.flat()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

int64_t argmax(const Tensor& a) {
  COMDML_CHECK(a.size() > 0);
  auto flat = a.flat();
  int64_t best = 0;
  for (int64_t i = 1; i < a.size(); ++i) {
    if (flat[static_cast<size_t>(i)] > flat[static_cast<size_t>(best)])
      best = i;
  }
  return best;
}

std::vector<int64_t> argmax_rows(const Tensor& a) {
  COMDML_REQUIRE(a.rank() == 2, "argmax_rows expects rank-2, got "
                                    << shape_str(a.shape()));
  const int64_t n = a.dim(0), c = a.dim(1);
  std::vector<int64_t> out(static_cast<size_t>(n));
  auto flat = a.flat();
  for (int64_t i = 0; i < n; ++i) {
    int64_t best = 0;
    const float* row = flat.data() + i * c;
    for (int64_t j = 1; j < c; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

// The matmul family is a thin Tensor wrapper over the packed-panel GEMM
// core (tensor/gemm.{hpp,cpp}): A packed into MR-row panels, B into
// NR-column panels, register-tiled SIMD micro-kernel, row-parallel on the
// global pool with a partition-independent accumulation order.

Tensor matmul(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                 "matmul: incompatible " << shape_str(a.shape()) << " @ "
                                         << shape_str(b.shape()));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm_nn(a.flat().data(), b.flat().data(), out.flat().data(), m, k, n);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0),
                 "matmul_tn: incompatible " << shape_str(a.shape()) << " @ "
                                            << shape_str(b.shape()));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm_tn(a.flat().data(), b.flat().data(), out.flat().data(), m, k, n);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
                 "matmul_nt: incompatible " << shape_str(a.shape()) << " @ "
                                            << shape_str(b.shape()));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  gemm_nt(a.flat().data(), b.flat().data(), out.flat().data(), m, k, n);
  return out;
}

Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                 "matmul: incompatible " << shape_str(a.shape()) << " @ "
                                         << shape_str(b.shape()));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const float* ap = a.flat().data();
  const float* bp = b.flat().data();
  float* op = out.flat().data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = ap[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = bp + kk * n;
      float* orow = op + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor matmul_tn_reference(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0),
                 "matmul_tn: incompatible " << shape_str(a.shape()) << " @ "
                                            << shape_str(b.shape()));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const float* ap = a.flat().data();
  const float* bp = b.flat().data();
  float* op = out.flat().data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = ap + kk * m;
    const float* brow = bp + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = op + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor matmul_nt_reference(const Tensor& a, const Tensor& b) {
  COMDML_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
                 "matmul_nt: incompatible " << shape_str(a.shape()) << " @ "
                                            << shape_str(b.shape()));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  const float* ap = a.flat().data();
  const float* bp = b.flat().data();
  float* op = out.flat().data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = ap + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = bp + j * k;
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += double(arow[kk]) * brow[kk];
      op[i * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

Tensor transpose2d(const Tensor& a) {
  COMDML_REQUIRE(a.rank() == 2, "transpose2d expects rank-2, got "
                                    << shape_str(a.shape()));
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  auto ai = a.flat();
  auto oo = out.flat();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) oo[j * m + i] = ai[i * n + j];
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  auto ao = a.flat(), bo = b.flat();
  for (size_t i = 0; i < ao.size(); ++i)
    if (std::fabs(ao[i] - bo[i]) > atol) return false;
  return true;
}

}  // namespace comdml::tensor
