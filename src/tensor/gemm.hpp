// Packed-panel GEMM core: raw-pointer single-precision matrix multiply
// used by the Tensor matmul family and directly by the nn layers (so hot
// paths can write into caller-owned buffers without Tensor temporaries).
//
// Implementation (gemm.cpp) is a BLIS-style packed GEMM: A is packed into
// MR-row panels of an MC x KC block (thread-local workspace-arena
// scratch), and a register-tiled 6x16 micro-kernel runs over NR-column B
// panels with a row stride. A B with unit column stride is read in place
// wherever its NR-column panels are full; its ragged edge panel, and every
// panel of any other B (8x8 AVX2 transposes for a transposed one), is
// packed into scratch, zero-padded. The micro-kernel is
// explicitly vectorized (AVX2+FMA, selected at runtime via CPU detection)
// behind the COMDML_SIMD compile gate, with a scalar fallback compiled
// unconditionally.
//
// Determinism: every output element accumulates its k-terms in ascending
// order — KC blocks ascend from absolute k = 0 and the micro-kernel walks
// each block in order — independent of the row partition, so results are
// bit-identical for every thread count. The kernel choice depends only on
// the host CPU, never on the thread count.
#pragma once

#include <cstdint>

namespace comdml::tensor {

/// General strided GEMM: C[m,n] (row-major, leading dimension n)
///   accumulate ? C += A @ B : C = A @ B
/// where logical A[i,p] = a[i*rs_a + p*cs_a] and logical
/// B[p,j] = b[p*rs_b + j*cs_b]. When `accumulate` is false, C is fully
/// overwritten (it may be uninitialized scratch). Parallelizes over rows
/// of C on the global thread pool; safe to call from inside a pool worker
/// (runs inline there).
void gemm_strided(const float* a, int64_t rs_a, int64_t cs_a,  //
                  const float* b, int64_t rs_b, int64_t cs_b,  //
                  float* c, int64_t m, int64_t n, int64_t k, bool accumulate);

/// C[m,n] {+}= A[m,k] @ B[k,n], all row-major and dense.
void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// C[m,n] {+}= A^T @ B where A is stored row-major [k,m].
void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// C[m,n] {+}= A @ B^T where B is stored row-major [n,k].
void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// Human-readable name of the micro-kernel selected for this process
/// ("avx2+fma" or "scalar") — for benchmark provenance.
const char* gemm_kernel_name();

}  // namespace comdml::tensor
