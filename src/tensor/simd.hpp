// Private build switch for the runtime-dispatched SIMD kernels (GEMM
// micro-kernel, direct convolution, BatchNorm, the elementwise passes and
// the int8 wire codec). Include it only from .cpp files: it pulls in
// <immintrin.h> on x86-64.
//
// COMDML_SIMD (default ON) compiles the AVX2 kernels alongside the scalar
// ones; each call site selects the faster kernel at run time via CPU
// detection (__builtin_cpu_supports), so one binary still runs on CPUs
// without AVX2. Defining COMDML_SIMD=0 (CMake option) forces every scalar
// path. The scalar kernels are the reference the AVX2 ones are tested
// against.
//
// Kernels that must match a scalar loop bit for bit use a separate
// multiply and add, never an FMA. C++ lets GCC contract the two into one
// FMA wherever FMA is enabled (inside target("fma") functions, or
// everywhere under -march=native on an FMA host), so the library is built
// with -ffp-contract=off, and these kernels ask for target("avx2") alone.
#pragma once

#include <bit>
#include <cstdint>

#ifndef COMDML_SIMD
#define COMDML_SIMD 1
#endif
#if COMDML_SIMD && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COMDML_SIMD_X86 1
#include <immintrin.h>
#else
#define COMDML_SIMD_X86 0
#endif

namespace comdml::simd {

/// ReLU of one value and its 1/0 mask, branch-free: `v > 0` picks an
/// all-ones or all-zeros word that masks both outputs. -0 and NaN fail the
/// compare, so both map to +0 with mask 0.
inline float relu(float v, float& mask) {
  constexpr auto kOne = std::bit_cast<uint32_t>(1.0f);
  const uint32_t keep = 0u - static_cast<uint32_t>(v > 0.0f);
  mask = std::bit_cast<float>(kOne & keep);
  return std::bit_cast<float>(std::bit_cast<uint32_t>(v) & keep);
}

#if COMDML_SIMD_X86
/// The host runs AVX2 (the bitwise-exact kernels need nothing more).
inline const bool kAvx2 = __builtin_cpu_supports("avx2");

/// relu() on 8 lanes: _CMP_GT_OQ is false for NaN, like `v > 0`.
__attribute__((target("avx2"), always_inline)) inline __m256 relu8(
    __m256 v, __m256& mask) {
  const __m256 keep = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
  mask = _mm256_and_ps(_mm256_set1_ps(1.0f), keep);
  return _mm256_and_ps(v, keep);
}
#endif

}  // namespace comdml::simd
