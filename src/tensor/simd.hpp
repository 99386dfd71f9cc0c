// Private build switch for the runtime-dispatched SIMD kernels (GEMM
// micro-kernel, int8 wire codec). Include it only from .cpp files: it
// pulls in <immintrin.h> on x86-64.
//
// COMDML_SIMD (default ON) compiles the AVX2 kernels alongside the scalar
// ones; each call site selects the faster kernel at run time via CPU
// detection (__builtin_cpu_supports), so one binary still runs on CPUs
// without AVX2. Defining COMDML_SIMD=0 (CMake option) forces every scalar
// path. The scalar kernels are the reference the AVX2 ones are tested
// against.
#pragma once

#ifndef COMDML_SIMD
#define COMDML_SIMD 1
#endif
#if COMDML_SIMD && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COMDML_SIMD_X86 1
#include <immintrin.h>
#else
#define COMDML_SIMD_X86 0
#endif
