// Parallel-compute subsystem tests: thread-pool semantics, parity of the
// blocked/parallel matmul and direct conv kernels against the kept naive
// references (and of the conv against its im2col + GEMM formulation, bit
// for bit), and bit-exact determinism of fleet rounds across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace comdml {
namespace {

using core::parallel_for;
using core::set_num_threads;
using tensor::Rng;
using tensor::Tensor;

/// Thread counts every parity case is exercised under.
const int kThreadCounts[] = {1, 2, 8};

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_num_threads(0); }  // restore env default
};

// ---- parallel_for semantics ------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  parallel_for(7, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsInlineAsOneChunk) {
  ThreadCountGuard guard;
  set_num_threads(8);
  int calls = 0;
  parallel_for(0, 10, 64, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  set_num_threads(4);
  std::atomic<int64_t> total{0};
  parallel_for(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Nested region: must complete inline without deadlock.
      parallel_for(0, 100, 1, [&](int64_t l2, int64_t h2) {
        total.fetch_add(h2 - l2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadCountGuard guard;
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 1,
                   [](int64_t lo, int64_t) {
                     if (lo >= 0) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int64_t> n{0};
  parallel_for(0, 100, 1, [&](int64_t lo, int64_t hi) {
    n.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ParallelConfig, SetNumThreadsOverridesAndEnvRestores) {
  ThreadCountGuard guard;
  set_num_threads(3);
  EXPECT_EQ(core::num_threads(), 3);
  ::setenv("COMDML_NUM_THREADS", "2", 1);
  set_num_threads(0);  // re-read environment
  EXPECT_EQ(core::num_threads(), 2);
  ::unsetenv("COMDML_NUM_THREADS");
  set_num_threads(0);
  EXPECT_GE(core::num_threads(), 1);
}

// ---- matmul parity ---------------------------------------------------------

struct MatmulShape {
  int64_t m, k, n;
};

// Mix of tile-aligned and ragged shapes: M/N/K off the 6x16 register tile
// and the MC/KC/NC pack blocks, plus degenerate 1xKx1 / K=1 edges, so the
// packed-panel GEMM's zero-padded edge tiles are all exercised.
const MatmulShape kMatmulShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {17, 1, 9},    {1, 33, 1},
    {5, 64, 3},   {33, 65, 19},  {64, 64, 64},  {129, 31, 77},
    {6, 16, 16},  {7, 17, 33},   {1, 300, 1},   {2, 1, 5},
    {12, 32, 48}, {13, 259, 31}, {97, 63, 130}, {100, 80, 96},
};

TEST(KernelParity, MatmulMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  for (const auto& s : kMatmulShapes) {
    Rng rng(11);
    const Tensor a = rng.normal_tensor({s.m, s.k}, 0, 1);
    const Tensor b = rng.normal_tensor({s.k, s.n}, 0, 1);
    const Tensor ref = tensor::matmul_reference(a, b);
    for (const int t : kThreadCounts) {
      set_num_threads(t);
      EXPECT_TRUE(tensor::allclose(tensor::matmul(a, b), ref, 1e-4f))
          << "matmul " << s.m << "x" << s.k << "x" << s.n << " at " << t
          << " threads";
    }
  }
}

TEST(KernelParity, MatmulTnMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  for (const auto& s : kMatmulShapes) {
    Rng rng(12);
    const Tensor a = rng.normal_tensor({s.k, s.m}, 0, 1);  // stored [K,M]
    const Tensor b = rng.normal_tensor({s.k, s.n}, 0, 1);
    const Tensor ref = tensor::matmul_tn_reference(a, b);
    for (const int t : kThreadCounts) {
      set_num_threads(t);
      EXPECT_TRUE(tensor::allclose(tensor::matmul_tn(a, b), ref, 1e-4f))
          << "matmul_tn " << s.m << "x" << s.k << "x" << s.n << " at " << t
          << " threads";
    }
  }
}

TEST(KernelParity, MatmulNtMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  for (const auto& s : kMatmulShapes) {
    Rng rng(13);
    const Tensor a = rng.normal_tensor({s.m, s.k}, 0, 1);
    const Tensor b = rng.normal_tensor({s.n, s.k}, 0, 1);  // stored [N,K]
    const Tensor ref = tensor::matmul_nt_reference(a, b);
    for (const int t : kThreadCounts) {
      set_num_threads(t);
      EXPECT_TRUE(tensor::allclose(tensor::matmul_nt(a, b), ref, 1e-4f))
          << "matmul_nt " << s.m << "x" << s.k << "x" << s.n << " at " << t
          << " threads";
    }
  }
}

TEST(KernelParity, MatmulBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(14);
  const Tensor a = rng.normal_tensor({129, 65}, 0, 1);
  const Tensor b = rng.normal_tensor({65, 93}, 0, 1);
  set_num_threads(1);
  const Tensor c1 = tensor::matmul(a, b);
  set_num_threads(8);
  const Tensor c8 = tensor::matmul(a, b);
  EXPECT_EQ(c1, c8);  // exact float equality, not allclose
}

TEST(KernelParity, MatmulTnNtBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(15);
  const Tensor at = rng.normal_tensor({65, 129}, 0, 1);  // stored [K,M]
  const Tensor b = rng.normal_tensor({65, 93}, 0, 1);
  const Tensor a = rng.normal_tensor({129, 65}, 0, 1);
  const Tensor bt = rng.normal_tensor({93, 65}, 0, 1);  // stored [N,K]
  set_num_threads(1);
  const Tensor tn1 = tensor::matmul_tn(at, b);
  const Tensor nt1 = tensor::matmul_nt(a, bt);
  set_num_threads(8);
  EXPECT_EQ(tn1, tensor::matmul_tn(at, b));
  EXPECT_EQ(nt1, tensor::matmul_nt(a, bt));
}

// ---- conv parity -----------------------------------------------------------

struct ConvCase {
  int64_t n, cin, cout, h, w, k, stride, pad;
};

const ConvCase kConvCases[] = {
    {2, 3, 4, 8, 8, 3, 1, 1},   // ResNet-style same conv
    {3, 2, 5, 7, 5, 3, 2, 0},   // odd extents, stride 2, no pad
    {1, 4, 4, 9, 9, 1, 1, 0},   // 1x1 pointwise
    {2, 1, 3, 11, 7, 5, 2, 2},  // big kernel, stride + pad
    {4, 8, 8, 16, 16, 3, 1, 1},
    // Multi-sample batched-GEMM shapes: the whole batch runs through one
    // GEMM per layer (B-panel packed once), incl. odd extents + stride.
    {8, 4, 6, 10, 10, 3, 1, 1},
    {6, 2, 3, 9, 7, 3, 2, 1},
    {16, 3, 5, 6, 6, 3, 1, 0},
};

TEST(KernelParity, ConvForwardMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  for (const auto& c : kConvCases) {
    Rng rng(21);
    nn::Conv2d conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = rng.normal_tensor({c.n, c.cin, c.h, c.w}, 0, 1);
    Rng wrng(21);
    const Tensor w =
        wrng.he_normal({c.cout, c.cin, c.k, c.k}, c.cin * c.k * c.k);
    const Tensor ref = nn::conv2d_reference_forward(x, w, c.stride, c.pad);
    for (const int t : kThreadCounts) {
      set_num_threads(t);
      EXPECT_TRUE(tensor::allclose(conv.forward(x, true), ref, 1e-4f))
          << "conv fwd n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " at " << t << " threads";
    }
  }
}

TEST(KernelParity, ConvBackwardMatchesReferenceAcrossThreads) {
  ThreadCountGuard guard;
  for (const auto& c : kConvCases) {
    Rng rng(22);
    nn::Conv2d conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = rng.normal_tensor({c.n, c.cin, c.h, c.w}, 0, 1);
    Rng wrng(22);
    const Tensor w =
        wrng.he_normal({c.cout, c.cin, c.k, c.k}, c.cin * c.k * c.k);
    const int64_t ho = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    const int64_t wo = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    const Tensor g = rng.normal_tensor({c.n, c.cout, ho, wo}, 0, 1);
    Tensor dw_ref(w.shape());
    const Tensor dx_ref =
        nn::conv2d_reference_backward(x, w, g, c.stride, c.pad, dw_ref);
    for (const int t : kThreadCounts) {
      set_num_threads(t);
      std::vector<nn::Parameter*> params;
      conv.collect_parameters(params);
      ASSERT_EQ(params.size(), 1u);
      params[0]->grad.fill(0.0f);
      (void)conv.forward(x, true);
      const Tensor dx = conv.backward(g);
      EXPECT_TRUE(tensor::allclose(dx, dx_ref, 1e-4f))
          << "conv dx k=" << c.k << " s=" << c.stride << " p=" << c.pad
          << " at " << t << " threads";
      EXPECT_TRUE(tensor::allclose(params[0]->grad, dw_ref, 1e-4f))
          << "conv dw k=" << c.k << " s=" << c.stride << " p=" << c.pad
          << " at " << t << " threads";
    }
  }
}

TEST(KernelParity, ConvBatchedGemmBitIdenticalAcrossThreadCounts) {
  // The conv kernels fan out over disjoint outputs only and keep every
  // output element's accumulation order, so forward, dx and the
  // cross-sample dW reduction are bit-identical at every thread count.
  ThreadCountGuard guard;
  Rng rng(23);
  nn::Conv2d conv(4, 6, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({4, 4, 10, 10}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 6, 10, 10}, 0, 1);
  std::vector<nn::Parameter*> params;
  conv.collect_parameters(params);
  ASSERT_EQ(params.size(), 1u);

  set_num_threads(1);
  const Tensor y1 = conv.forward(x, true);
  params[0]->grad.fill(0.0f);
  const Tensor dx1 = conv.backward(g);
  const Tensor dw1 = params[0]->grad;

  set_num_threads(8);
  const Tensor y8 = conv.forward(x, true);
  params[0]->grad.fill(0.0f);
  const Tensor dx8 = conv.backward(g);

  EXPECT_EQ(y1, y8);
  EXPECT_EQ(dx1, dx8);
  EXPECT_EQ(dw1, params[0]->grad);
}

// ---- conv parity sweep: direct kernels vs im2col + GEMM, bit for bit ------

/// Unrolls one sample x_c [cin,h,w] into col [ho*wo, cin*k*k]: row
/// oy*wo + ox holds the receptive field of output (oy, ox), column
/// (ci*k + ky)*k + kx, padded taps as zeros.
void im2col(const float* xc, int64_t cin, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t pad, int64_t ho, int64_t wo, float* col) {
  for (int64_t oy = 0; oy < ho; ++oy)
    for (int64_t ox = 0; ox < wo; ++ox)
      for (int64_t ci = 0; ci < cin; ++ci)
        for (int64_t ky = 0; ky < k; ++ky)
          for (int64_t kx = 0; kx < k; ++kx) {
            const int64_t iy = oy * stride - pad + ky;
            const int64_t ix = ox * stride - pad + kx;
            *col++ = iy < 0 || iy >= h || ix < 0 || ix >= w
                         ? 0.0f
                         : xc[(ci * h + iy) * w + ix];
          }
}

/// Scatter-adds dcol [ho*wo, cin*k*k] into one sample's dx_c [cin,h,w] in
/// (row, column)-ascending order, skipping padded taps.
void col2im(const float* dcol, int64_t cin, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t pad, int64_t ho, int64_t wo, float* dxc) {
  for (int64_t oy = 0; oy < ho; ++oy)
    for (int64_t ox = 0; ox < wo; ++ox)
      for (int64_t ci = 0; ci < cin; ++ci)
        for (int64_t ky = 0; ky < k; ++ky)
          for (int64_t kx = 0; kx < k; ++kx, ++dcol) {
            const int64_t iy = oy * stride - pad + ky;
            const int64_t ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              dxc[(ci * h + iy) * w + ix] += *dcol;
          }
}

struct ConvResult {
  Tensor y, dx, dw;
};

/// The im2col + GEMM convolution: y_n = W col_n^T, dW = dw0 + gt^T col,
/// dcol = gt W with gt = grad_out gathered to [N*ho*wo, cout], then
/// dx_n = col2im(dcol_n).
ConvResult gemm_conv(const Tensor& x, const Tensor& w, const Tensor& g,
                     const Tensor& dw0, int64_t stride, int64_t pad) {
  const int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t ho = g.dim(2), wo = g.dim(3), how = ho * wo;
  const int64_t ckk = cin * k * k;
  std::vector<float> col(static_cast<size_t>(n * how * ckk));
  for (int64_t in = 0; in < n; ++in)
    im2col(x.flat().data() + in * cin * h * ww, cin, h, ww, k, stride, pad,
           ho, wo, col.data() + in * how * ckk);
  ConvResult r{Tensor({n, cout, ho, wo}), Tensor(x.shape()), dw0};
  for (int64_t in = 0; in < n; ++in)
    tensor::gemm_nt(w.flat().data(), col.data() + in * how * ckk,
                    r.y.flat().data() + in * cout * how, cout, ckk, how);
  std::vector<float> gt(static_cast<size_t>(n * how * cout));
  for (int64_t in = 0; in < n; ++in)
    for (int64_t p = 0; p < how; ++p)
      for (int64_t co = 0; co < cout; ++co)
        gt[(in * how + p) * cout + co] = g.flat()[(in * cout + co) * how + p];
  tensor::gemm_tn(gt.data(), col.data(), r.dw.flat().data(), cout, n * how,
                  ckk, /*accumulate=*/true);
  std::vector<float> dcol(col.size());
  tensor::gemm_nn(gt.data(), w.flat().data(), dcol.data(), n * how, cout,
                  ckk);
  for (int64_t in = 0; in < n; ++in)
    col2im(dcol.data() + in * how * ckk, cin, h, ww, k, stride, pad, ho, wo,
           r.dx.flat().data() + in * cin * h * ww);
  return r;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

/// (n, cin, cout, h, w, k, stride, pad)
using ConvShape = std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t,
                             int64_t, int64_t, int64_t>;

class ConvParity : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvParity, DirectKernelsMatchGemmBitwiseAtEveryThreadCount) {
  ThreadCountGuard guard;
  const auto [n, cin, cout, h, w, k, stride, pad] = GetParam();
  Rng rng(24);
  nn::Conv2d conv(cin, cout, k, stride, pad, rng);
  std::vector<nn::Parameter*> params;
  conv.collect_parameters(params);
  ASSERT_EQ(params.size(), 1u);
  const Tensor& wt = params[0]->value;
  const int64_t ho = conv.out_extent(h), wo = conv.out_extent(w);
  const Tensor x = rng.normal_tensor({n, cin, h, w}, 0, 1);
  const Tensor g = rng.normal_tensor({n, cout, ho, wo}, 0, 1);
  const Tensor dw0 = rng.normal_tensor(wt.shape(), 0, 1);

  const ConvResult gemm = gemm_conv(x, wt, g, dw0, stride, pad);
  const Tensor y_ref = nn::conv2d_reference_forward(x, wt, stride, pad);
  Tensor dw_ref = dw0;
  const Tensor dx_ref =
      nn::conv2d_reference_backward(x, wt, g, stride, pad, dw_ref);

  for (const int t : {1, 2, 4, 8}) {
    set_num_threads(t);
    params[0]->grad = dw0;
    const Tensor y = conv.forward(x, true);
    const Tensor dx = conv.backward(g);
    const Tensor& dw = params[0]->grad;
    EXPECT_TRUE(bitwise_equal(y, gemm.y)) << "y at " << t << " threads";
    EXPECT_TRUE(bitwise_equal(dx, gemm.dx)) << "dx at " << t << " threads";
    EXPECT_TRUE(bitwise_equal(dw, gemm.dw)) << "dW at " << t << " threads";
    EXPECT_TRUE(tensor::allclose(y, y_ref, 1e-4f)) << t << " threads";
    EXPECT_TRUE(tensor::allclose(dx, dx_ref, 1e-4f)) << t << " threads";
    EXPECT_TRUE(tensor::allclose(dw, dw_ref, 1e-4f)) << t << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParity,
    ::testing::Values(
        // ResNet-20 / ResNet-56 (base 16, 32x32): stem, stage convs,
        // stride-2 entries and 1x1 projection shortcuts.
        ConvShape{2, 3, 16, 32, 32, 3, 1, 1},
        ConvShape{2, 16, 16, 32, 32, 3, 1, 1},
        ConvShape{2, 16, 32, 32, 32, 3, 2, 1},
        ConvShape{2, 16, 32, 32, 32, 1, 2, 0},
        ConvShape{2, 32, 32, 16, 16, 3, 1, 1},
        ConvShape{2, 32, 64, 16, 16, 3, 2, 1},
        ConvShape{2, 32, 64, 16, 16, 1, 2, 0},
        ConvShape{2, 64, 64, 8, 8, 3, 1, 1},
        // The same network at base 8 on 16x16 images (stage 3 is 4x4).
        ConvShape{4, 3, 8, 16, 16, 3, 1, 1},
        ConvShape{4, 8, 8, 16, 16, 3, 1, 1},
        ConvShape{4, 8, 16, 16, 16, 3, 2, 1},
        ConvShape{4, 8, 16, 16, 16, 1, 2, 0},
        ConvShape{4, 16, 16, 8, 8, 3, 1, 1},
        ConvShape{4, 16, 32, 8, 8, 3, 2, 1},
        ConvShape{4, 16, 32, 8, 8, 1, 2, 0},
        ConvShape{4, 32, 32, 4, 4, 3, 1, 1},
        // Widths that are not multiples of 8, down to 1 output.
        ConvShape{2, 4, 8, 5, 4, 3, 1, 1},
        ConvShape{2, 3, 8, 7, 7, 3, 1, 1},
        ConvShape{3, 5, 6, 9, 9, 3, 1, 1},
        ConvShape{2, 5, 6, 9, 9, 3, 2, 1},
        ConvShape{2, 2, 3, 5, 2, 3, 1, 1},
        ConvShape{2, 3, 4, 3, 3, 3, 1, 0},
        // cout of 3, 5 and 12.
        ConvShape{2, 4, 3, 8, 8, 3, 1, 1},
        ConvShape{2, 4, 5, 6, 9, 3, 1, 1},
        ConvShape{3, 6, 12, 10, 10, 3, 2, 1},
        // 3x3 stride 1 with samples of grad_out smaller than a row plus
        // 8 floats (8 < 16: padded-plane dx) and of exactly that size
        // (16: per-element dx, whose reads around the middle sample then
        // reach both ends of grad_out).
        ConvShape{3, 4, 1, 1, 8, 3, 1, 1},
        ConvShape{3, 2, 2, 1, 8, 3, 1, 1},
        // k = 5, and stride 2 without padding.
        ConvShape{2, 3, 8, 11, 11, 5, 1, 2},
        ConvShape{2, 2, 5, 12, 9, 5, 2, 2},
        ConvShape{3, 2, 5, 7, 5, 3, 2, 0},
        ConvShape{2, 8, 8, 10, 10, 3, 2, 0}));

// ---- fused elementwise -----------------------------------------------------

TEST(FusedOps, AddInplaceAndScaleAdd) {
  Rng rng(31);
  const Tensor x = rng.normal_tensor({513}, 0, 1);
  Tensor y = rng.normal_tensor({513}, 0, 1);
  Tensor y2 = y;
  tensor::add_inplace(y, x);
  EXPECT_TRUE(tensor::allclose(y, tensor::add(y2, x)));

  Tensor z = y2;
  tensor::scale_add_inplace(z, 0.5f, 2.0f, x);
  for (int64_t i = 0; i < z.size(); ++i)
    EXPECT_NEAR(z[i], 0.5f * y2[i] + 2.0f * x[i], 1e-6f);
}

TEST(FusedOps, SgdMomentumUpdateMatchesUnfused) {
  Rng rng(32);
  Tensor w = rng.normal_tensor({257}, 0, 1);
  Tensor v = rng.normal_tensor({257}, 0, 0.1f);
  const Tensor g = rng.normal_tensor({257}, 0, 1);
  Tensor w2 = w, v2 = v;
  const float lr = 0.05f, mom = 0.9f, wd = 1e-4f;
  tensor::sgd_momentum_update(w, v, g, lr, mom, wd);
  for (int64_t i = 0; i < w2.size(); ++i) {
    const float grad = g[i] + wd * w2[i];
    v2[i] = mom * v2[i] - lr * grad;
    w2[i] += v2[i];
  }
  EXPECT_TRUE(tensor::allclose(w, w2));
  EXPECT_TRUE(tensor::allclose(v, v2));
}

// ---- fleet determinism across thread counts --------------------------------

core::ModelFactory small_mlp_factory() {
  return [](Rng& rng) { return nn::mlp({6, 16, 12, 3}, rng); };
}

std::vector<data::Dataset> make_shards(int64_t agents, uint64_t seed) {
  Rng rng(seed);
  const auto ds = data::make_blobs(agents * 30, 3, 6, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), agents, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  return shards;
}

sim::Topology hetero_mesh(int64_t agents) {
  std::vector<sim::ResourceProfile> profiles;
  const std::vector<double> cpus{4.0, 0.2, 2.0, 0.5};
  for (int64_t i = 0; i < agents; ++i)
    profiles.push_back({cpus[static_cast<size_t>(i) % cpus.size()], 100.0});
  return sim::Topology::full_mesh(profiles);
}

/// Runs `rounds` RealFleet rounds at the given thread count and returns
/// the concatenated model state of every agent.
std::vector<Tensor> fleet_state_at(int threads, int rounds) {
  set_num_threads(threads);
  core::RealFleet::Options opt;
  opt.seed = 99;
  core::RealFleet fleet(small_mlp_factory(), 3, make_shards(4, 55),
                        hetero_mesh(4), opt);
  for (int r = 0; r < rounds; ++r) (void)fleet.step();
  std::vector<Tensor> all;
  for (int64_t a = 0; a < fleet.agents(); ++a) {
    auto s = nn::state_of(fleet.model(a));
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

TEST(Determinism, RealFleetRoundIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto s1 = fleet_state_at(/*threads=*/1, /*rounds=*/2);
  const auto s8 = fleet_state_at(/*threads=*/8, /*rounds=*/2);
  ASSERT_EQ(s1.size(), s8.size());
  for (size_t i = 0; i < s1.size(); ++i)
    EXPECT_EQ(s1[i], s8[i]) << "state tensor " << i
                            << " differs between 1 and 8 threads";
}

}  // namespace
}  // namespace comdml
