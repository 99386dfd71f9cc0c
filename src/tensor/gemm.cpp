#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "core/parallel.hpp"
#include "core/workspace.hpp"
// The AVX2+FMA micro-kernel is selected once at startup via CPU detection.
#include "tensor/simd.hpp"

namespace comdml::tensor {

namespace {

// Register tile of the micro-kernel: MR x NR outputs held in registers
// (6 x 16 floats = 12 AVX2 accumulators + 2 B vectors + 1 broadcast).
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 16;

// Cache blocking: the packed A block (MC x KC floats, ~96 KiB) targets L2,
// the packed B block (KC x NC, ~512 KiB) L2/L3, and one B panel touched by
// the micro-kernel (KC x NR, 16 KiB) stays L1-resident across the ir loop.
constexpr int64_t kMC = 96;   // multiple of kMR
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 512;  // multiple of kNR

/// Minimum per-task FLOP count before a GEMM fans out to the pool.
constexpr double kGemmGrainFlops = 1 << 22;

/// Every row chunk repacks the full B it touches (k*n elements, however
/// few rows it owns), so chunks need enough rows that the micro-kernel
/// work dwarfs the duplicated packing. 4*MR rows give 8*MR flops per
/// packed B element — packing stays a few percent. Below that (tiny-m,
/// huge-k reduction GEMMs like a batched conv dW) fanning out actively
/// loses: every extra chunk is a full extra B pack.
constexpr int64_t kGemmMinChunkRows = 4 * kMR;

int64_t row_grain(int64_t k, int64_t n) {
  const double row_flops = 2.0 * static_cast<double>(k) * n;
  const auto rows = static_cast<int64_t>(kGemmGrainFlops /
                                         std::max(row_flops, 1.0));
  // Round up to a panel multiple so grain-sized task boundaries fall on
  // full MR tiles. (The pool may still pick a larger, unaligned chunk for
  // load balance; a seam mid-tile only costs the padded-copy edge path at
  // that boundary, never correctness.)
  return std::max<int64_t>(kGemmMinChunkRows,
                           (rows + kMR - 1) / kMR * kMR);
}

/// kc x NR panel product into a full MR x NR tile at `c` (leading dim ldc).
/// ap: packed MR-row panel, ap[kk*MR + r]; bp: packed NR-col panel,
/// bp[kk*NR + j]. zero_init starts the accumulators at 0 instead of C.
/// Accumulation is ascending-k for every element.
using MicroKernel = void (*)(int64_t kc, const float* ap, const float* bp,
                             float* c, int64_t ldc, bool zero_init);

void kernel_6x16_scalar(int64_t kc, const float* ap, const float* bp,
                        float* c, int64_t ldc, bool zero_init) {
  float acc[kMR][kNR];
  if (zero_init) {
    for (auto& row : acc)
      for (float& v : row) v = 0.0f;
  } else {
    for (int64_t r = 0; r < kMR; ++r)
      for (int64_t j = 0; j < kNR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float av = ap[kk * kMR + r];
      for (int64_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < kMR; ++r)
    for (int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
}

#if COMDML_SIMD_X86
__attribute__((target("avx2,fma"))) void kernel_6x16_avx2(
    int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
    bool zero_init) {
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  if (zero_init) {
    c00 = c01 = c10 = c11 = c20 = c21 = _mm256_setzero_ps();
    c30 = c31 = c40 = c41 = c50 = c51 = _mm256_setzero_ps();
  } else {
    c00 = _mm256_loadu_ps(c + 0 * ldc);
    c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    c10 = _mm256_loadu_ps(c + 1 * ldc);
    c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    c40 = _mm256_loadu_ps(c + 4 * ldc);
    c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
    c50 = _mm256_loadu_ps(c + 5 * ldc);
    c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNR + 8);
    const float* arow = ap + kk * kMR;
    __m256 a;
    a = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10);
  _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  _mm256_storeu_ps(c + 4 * ldc, c40);
  _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  _mm256_storeu_ps(c + 5 * ldc, c50);
  _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}
#endif  // COMDML_SIMD_X86

MicroKernel resolve_kernel() {
#if COMDML_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return kernel_6x16_avx2;
#endif
  return kernel_6x16_scalar;
}

const MicroKernel g_kernel = resolve_kernel();

/// Runs the micro-kernel on a possibly partial mr x nr tile. Partial tiles
/// compute the full padded tile into a local buffer (padded A rows / B
/// columns are zero, so valid elements see exactly the same arithmetic as
/// interior tiles) and write back only the valid region.
void run_tile(int64_t kc, const float* ap, const float* bp, float* c,
              int64_t ldc, int64_t mr, int64_t nr, bool zero_init) {
  if (mr == kMR && nr == kNR) {
    g_kernel(kc, ap, bp, c, ldc, zero_init);
    return;
  }
  alignas(64) float cbuf[kMR * kNR] = {};
  if (!zero_init) {
    for (int64_t r = 0; r < mr; ++r)
      std::memcpy(cbuf + r * kNR, c + r * ldc,
                  static_cast<size_t>(nr) * sizeof(float));
  }
  g_kernel(kc, ap, bp, cbuf, kNR, zero_init);
  for (int64_t r = 0; r < mr; ++r)
    std::memcpy(c + r * ldc, cbuf + r * kNR,
                static_cast<size_t>(nr) * sizeof(float));
}

/// Packs A[i0:i0+mc, p0:p0+kc] (logical indices, strides rs/cs) into
/// MR-row panels: dst panel p holds rows i0+p*MR.., layout dst[kk*MR + r],
/// zero-padded to a full MR rows at the edge.
void pack_a(const float* a, int64_t rs, int64_t cs, int64_t i0, int64_t p0,
            int64_t mc, int64_t kc, float* dst) {
  for (int64_t pr = 0; pr < mc; pr += kMR) {
    const int64_t rows = std::min(kMR, mc - pr);
    const float* base = a + (i0 + pr) * rs + p0 * cs;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = base + kk * cs;
      int64_t r = 0;
      for (; r < rows; ++r) dst[kk * kMR + r] = src[r * rs];
      for (; r < kMR; ++r) dst[kk * kMR + r] = 0.0f;
    }
    dst += kc * kMR;
  }
}

/// Packs B[p0:p0+kc, j0:j0+nc] (strides rs/cs) into NR-column panels:
/// dst panel q holds columns j0+q*NR.., layout dst[kk*NR + j], zero-padded
/// to a full NR columns at the edge.
void pack_b(const float* b, int64_t rs, int64_t cs, int64_t p0, int64_t j0,
            int64_t kc, int64_t nc, float* dst) {
  for (int64_t qc = 0; qc < nc; qc += kNR) {
    const int64_t cols = std::min(kNR, nc - qc);
    const float* base = b + p0 * rs + (j0 + qc) * cs;
    if (cs == 1) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst + kk * kNR, base + kk * rs,
                    static_cast<size_t>(cols) * sizeof(float));
        for (int64_t j = cols; j < kNR; ++j) dst[kk * kNR + j] = 0.0f;
      }
    } else {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = base + kk * rs;
        int64_t j = 0;
        for (; j < cols; ++j) dst[kk * kNR + j] = src[j * cs];
        for (; j < kNR; ++j) dst[kk * kNR + j] = 0.0f;
      }
    }
    dst += kc * kNR;
  }
}

/// Packed GEMM over the row range [lo, hi) of C. The k blocks ascend from
/// absolute k = 0 whatever the row partition, so each element's
/// accumulation order is partition-independent.
void gemm_rows(const float* a, int64_t rs_a, int64_t cs_a,  //
               const float* b, int64_t rs_b, int64_t cs_b,  //
               float* c, int64_t lo, int64_t hi, int64_t n, int64_t k,
               bool accumulate) {
  core::Scratch<float> bpack(kKC * kNC);
  core::Scratch<float> apack(kMC * kKC);
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const bool zero_init = pc == 0 && !accumulate;
      pack_b(b, rs_b, cs_b, pc, jc, kc, nc, bpack.data());
      for (int64_t ic = lo; ic < hi; ic += kMC) {
        const int64_t mc = std::min(kMC, hi - ic);
        pack_a(a, rs_a, cs_a, ic, pc, mc, kc, apack.data());
        for (int64_t jr = 0; jr < nc; jr += kNR) {
          const int64_t nr = std::min(kNR, nc - jr);
          const float* bpanel = bpack.data() + (jr / kNR) * kc * kNR;
          for (int64_t ir = 0; ir < mc; ir += kMR) {
            const int64_t mr = std::min(kMR, mc - ir);
            const float* apanel = apack.data() + (ir / kMR) * kc * kMR;
            run_tile(kc, apanel, bpanel, c + (ic + ir) * n + jc + jr, n, mr,
                     nr, zero_init);
          }
        }
      }
    }
  }
}

}  // namespace

void gemm_strided(const float* a, int64_t rs_a, int64_t cs_a,  //
                  const float* b, int64_t rs_b, int64_t cs_b,  //
                  float* c, int64_t m, int64_t n, int64_t k, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate)
      std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    return;
  }
  core::parallel_for(0, m, row_grain(k, n), [=](int64_t lo, int64_t hi) {
    gemm_rows(a, rs_a, cs_a, b, rs_b, cs_b, c, lo, hi, n, k, accumulate);
  });
}

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  gemm_strided(a, k, 1, b, n, 1, c, m, n, k, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  gemm_strided(a, 1, m, b, n, 1, c, m, n, k, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  gemm_strided(a, k, 1, b, 1, k, c, m, n, k, accumulate);
}

const char* gemm_kernel_name() {
#if COMDML_SIMD_X86
  if (g_kernel == kernel_6x16_avx2) return "avx2+fma";
#endif
  return "scalar";
}

}  // namespace comdml::tensor
