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

/// Every row chunk packs the B panels it cannot read in place (all of a
/// transposed B, the zero-padded edge panel of a row-major one; k*n
/// elements at worst, however few rows it owns), so chunks need enough
/// rows that the micro-kernel work dwarfs the duplicated packing. 4*MR
/// rows give 8*MR flops per packed B element — packing stays a few
/// percent. Below that (tiny-m, huge-k reduction GEMMs) fanning out a
/// transposed B actively loses: every extra chunk is a full extra B pack.
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
/// ap: packed MR-row panel, ap[kk*MR + r]; bp: NR-col panel with row
/// stride ldb, bp[kk*ldb + j] (a packed panel has ldb = NR; a row-major B
/// is read in place with ldb = its row stride). zero_init starts the
/// accumulators at 0 instead of C. Accumulation is ascending-k for every
/// element.
using MicroKernel = void (*)(int64_t kc, const float* ap, const float* bp,
                             int64_t ldb, float* c, int64_t ldc,
                             bool zero_init);

void kernel_6x16_scalar(int64_t kc, const float* ap, const float* bp,
                        int64_t ldb, float* c, int64_t ldc, bool zero_init) {
  float acc[kMR][kNR];
  if (zero_init) {
    for (auto& row : acc)
      for (float& v : row) v = 0.0f;
  } else {
    for (int64_t r = 0; r < kMR; ++r)
      for (int64_t j = 0; j < kNR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = bp + kk * ldb;
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
    int64_t kc, const float* ap, const float* bp, int64_t ldb, float* c,
    int64_t ldc, bool zero_init) {
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
    const __m256 b0 = _mm256_loadu_ps(bp + kk * ldb);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * ldb + 8);
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
void run_tile(int64_t kc, const float* ap, const float* bp, int64_t ldb,
              float* c, int64_t ldc, int64_t mr, int64_t nr, bool zero_init) {
  if (mr == kMR && nr == kNR) {
    g_kernel(kc, ap, bp, ldb, c, ldc, zero_init);
    return;
  }
  alignas(64) float cbuf[kMR * kNR] = {};
  if (!zero_init) {
    for (int64_t r = 0; r < mr; ++r)
      std::memcpy(cbuf + r * kNR, c + r * ldc,
                  static_cast<size_t>(nr) * sizeof(float));
  }
  g_kernel(kc, ap, bp, ldb, cbuf, kNR, zero_init);
  for (int64_t r = 0; r < mr; ++r)
    std::memcpy(c + r * ldc, cbuf + r * kNR,
                static_cast<size_t>(nr) * sizeof(float));
}

#if COMDML_SIMD_X86
/// 8x8 transpose of the rows r0..r7 in place (r_i[j] becomes r_j[i]).
__attribute__((target("avx2"), always_inline)) inline void transpose8(
    __m256& r0, __m256& r1, __m256& r2, __m256& r3, __m256& r4, __m256& r5,
    __m256& r6, __m256& r7) {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
  r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
  r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
  r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
  r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
  r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
  r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
  r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// One MR-row panel of a row-major A (cs = 1: row r is the contiguous run
/// base + r*rs), 8 k columns at a time through an 8x8 transpose whose rows
/// past `rows` are zero. Each k row of the panel is MR = 6 floats, so the
/// 8-float store of row kk also writes 2 floats of row kk+1, which the
/// next store overwrites; the last one reaches up to 2 floats past the
/// panel (the caller's buffer has that slack). The k tail is scalar.
__attribute__((target("avx2"))) void pack_a_panel_avx2(const float* base,
                                                       int64_t rs,
                                                       int64_t rows,
                                                       int64_t kc,
                                                       float* dst) {
  int64_t kk = 0;
  const __m256 zero = _mm256_setzero_ps();
  for (; kk + 8 <= kc; kk += 8) {
    const float* p = base + kk;
    __m256 r0 = _mm256_loadu_ps(p);
    __m256 r1 = rows > 1 ? _mm256_loadu_ps(p + 1 * rs) : zero;
    __m256 r2 = rows > 2 ? _mm256_loadu_ps(p + 2 * rs) : zero;
    __m256 r3 = rows > 3 ? _mm256_loadu_ps(p + 3 * rs) : zero;
    __m256 r4 = rows > 4 ? _mm256_loadu_ps(p + 4 * rs) : zero;
    __m256 r5 = rows > 5 ? _mm256_loadu_ps(p + 5 * rs) : zero;
    __m256 r6 = zero, r7 = zero;
    transpose8(r0, r1, r2, r3, r4, r5, r6, r7);
    float* out = dst + kk * kMR;
    _mm256_storeu_ps(out + 0 * kMR, r0);
    _mm256_storeu_ps(out + 1 * kMR, r1);
    _mm256_storeu_ps(out + 2 * kMR, r2);
    _mm256_storeu_ps(out + 3 * kMR, r3);
    _mm256_storeu_ps(out + 4 * kMR, r4);
    _mm256_storeu_ps(out + 5 * kMR, r5);
    _mm256_storeu_ps(out + 6 * kMR, r6);
    _mm256_storeu_ps(out + 7 * kMR, r7);
  }
  for (; kk < kc; ++kk) {
    int64_t i = 0;
    for (; i < rows; ++i) dst[kk * kMR + i] = base[i * rs + kk];
    for (; i < kMR; ++i) dst[kk * kMR + i] = 0.0f;
  }
}
#endif  // COMDML_SIMD_X86

/// Floats past the packed A block that pack_a_panel_avx2 may overwrite.
constexpr int64_t kPackASlack = 8;

/// Packs A[i0:i0+mc, p0:p0+kc] (logical indices, strides rs/cs) into
/// MR-row panels: dst panel p holds rows i0+p*MR.., layout dst[kk*MR + r],
/// zero-padded to a full MR rows at the edge. `dst` holds kPackASlack
/// floats more than the block.
void pack_a(const float* a, int64_t rs, int64_t cs, int64_t i0, int64_t p0,
            int64_t mc, int64_t kc, float* dst) {
  for (int64_t pr = 0; pr < mc; pr += kMR) {
    const int64_t rows = std::min(kMR, mc - pr);
    const float* base = a + (i0 + pr) * rs + p0 * cs;
#if COMDML_SIMD_X86
    if (cs == 1 && simd::kAvx2) {
      pack_a_panel_avx2(base, rs, rows, kc, dst);
      dst += kc * kMR;
      continue;
    }
#endif
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = base + kk * cs;
      int64_t r = 0;
      for (; r < rows; ++r) dst[kk * kMR + r] = src[r * rs];
      for (; r < kMR; ++r) dst[kk * kMR + r] = 0.0f;
    }
    dst += kc * kMR;
  }
}

/// Scalar gather of one B panel: dst[kk*NR + j] = base[kk*rs + j*cs] for
/// the columns [j0, cols), zeros for [cols, NR).
void gather_b_panel(const float* base, int64_t rs, int64_t cs, int64_t kc,
                    int64_t j0, int64_t cols, float* dst) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* src = base + kk * rs;
    int64_t j = j0;
    for (; j < cols; ++j) dst[kk * kNR + j] = src[j * cs];
    for (; j < kNR; ++j) dst[kk * kNR + j] = 0.0f;
  }
}

#if COMDML_SIMD_X86
/// One panel of a transposed B (rs = 1: logical column j is the contiguous
/// row base + j*cs): each group of 8 columns moves as 8x8 register
/// transposes, 8 k rows at a time; the k tail and the columns past the
/// last group of 8 take the scalar gather.
__attribute__((target("avx2"))) void pack_b_panel_t_avx2(const float* base,
                                                         int64_t cs,
                                                         int64_t kc,
                                                         int64_t cols,
                                                         float* dst) {
  int64_t j8 = 0;
  for (; j8 + 8 <= cols; j8 += 8) {
    const float* src = base + j8 * cs;
    int64_t kk = 0;
    for (; kk + 8 <= kc; kk += 8) {
      __m256 r0 = _mm256_loadu_ps(src + 0 * cs + kk);
      __m256 r1 = _mm256_loadu_ps(src + 1 * cs + kk);
      __m256 r2 = _mm256_loadu_ps(src + 2 * cs + kk);
      __m256 r3 = _mm256_loadu_ps(src + 3 * cs + kk);
      __m256 r4 = _mm256_loadu_ps(src + 4 * cs + kk);
      __m256 r5 = _mm256_loadu_ps(src + 5 * cs + kk);
      __m256 r6 = _mm256_loadu_ps(src + 6 * cs + kk);
      __m256 r7 = _mm256_loadu_ps(src + 7 * cs + kk);
      transpose8(r0, r1, r2, r3, r4, r5, r6, r7);
      float* out = dst + kk * kNR + j8;
      _mm256_storeu_ps(out + 0 * kNR, r0);
      _mm256_storeu_ps(out + 1 * kNR, r1);
      _mm256_storeu_ps(out + 2 * kNR, r2);
      _mm256_storeu_ps(out + 3 * kNR, r3);
      _mm256_storeu_ps(out + 4 * kNR, r4);
      _mm256_storeu_ps(out + 5 * kNR, r5);
      _mm256_storeu_ps(out + 6 * kNR, r6);
      _mm256_storeu_ps(out + 7 * kNR, r7);
    }
    for (; kk < kc; ++kk)
      for (int64_t j = 0; j < 8; ++j)
        dst[kk * kNR + j8 + j] = src[j * cs + kk];
  }
  gather_b_panel(base, 1, cs, kc, j8, cols, dst);
}
#endif  // COMDML_SIMD_X86

/// Packs the panel B[p0:p0+kc, j0:j0+cols] (strides rs/cs, cols <= NR)
/// as dst[kk*NR + j], zero-padded to a full NR columns.
void pack_b_panel(const float* b, int64_t rs, int64_t cs, int64_t p0,
                  int64_t j0, int64_t kc, int64_t cols, float* dst) {
  const float* base = b + p0 * rs + j0 * cs;
#if COMDML_SIMD_X86
  if (rs == 1 && simd::kAvx2)
    return pack_b_panel_t_avx2(base, cs, kc, cols, dst);
#endif
  gather_b_panel(base, rs, cs, kc, 0, cols, dst);
}

/// Packed GEMM over the row range [lo, hi) of C. The k blocks ascend from
/// absolute k = 0 whatever the row partition, so each element's
/// accumulation order is partition-independent. A B with unit column
/// stride is read in place, one full NR-column panel at a time (ldb =
/// rs_b); only its ragged edge panel is packed, zero-padded. Any other B
/// is packed whole, panel by panel. The micro-kernel sees the same values
/// in the same order either way, so the results are bit-identical.
void gemm_rows(const float* a, int64_t rs_a, int64_t cs_a,  //
               const float* b, int64_t rs_b, int64_t cs_b,  //
               float* c, int64_t lo, int64_t hi, int64_t n, int64_t k,
               bool accumulate) {
  const bool b_in_place = cs_b == 1;
  core::Scratch<float> bpack(kKC * (b_in_place ? kNR : kNC));
  core::Scratch<float> apack(kMC * kKC + kPackASlack);
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    // Columns [jc, jc + full) are read in place; the rest are packed.
    const int64_t full = b_in_place ? nc / kNR * kNR : 0;
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const bool zero_init = pc == 0 && !accumulate;
      for (int64_t ic = lo; ic < hi; ic += kMC) {
        const int64_t mc = std::min(kMC, hi - ic);
        pack_a(a, rs_a, cs_a, ic, pc, mc, kc, apack.data());
        for (int64_t jr = 0; jr < nc; jr += kNR) {
          const int64_t nr = std::min(kNR, nc - jr);
          const float* bpanel = b + pc * rs_b + jc + jr;
          int64_t ldb = rs_b;
          if (jr >= full) {
            float* packed = bpack.data() + (jr - full) / kNR * kc * kNR;
            // Each panel is packed just before the first row block uses
            // it, so the micro-kernel reads it back from L1.
            if (ic == lo)
              pack_b_panel(b, rs_b, cs_b, pc, jc + jr, kc, nr, packed);
            bpanel = packed;
            ldb = kNR;
          }
          for (int64_t ir = 0; ir < mc; ir += kMR) {
            const int64_t mr = std::min(kMR, mc - ir);
            const float* apanel = apack.data() + (ir / kMR) * kc * kMR;
            run_tile(kc, apanel, bpanel, ldb, c + (ic + ir) * n + jc + jr, n,
                     mr, nr, zero_init);
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
