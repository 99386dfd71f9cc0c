#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/parallel.hpp"
#include "core/workspace.hpp"
// The AVX2+FMA kernels are selected once at startup via CPU detection.
#include "tensor/simd.hpp"

namespace comdml::nn {

namespace {

/// One conv call's shape and the layout of its zero-padded planes.
///
/// A padded (sample, channel) plane is `hp` rows of `rp` floats. Each row
/// is split into `s` phase planes of `wq` floats: phase r holds padded
/// columns r, r+s, r+2s, ..., so tap (ky, kx) of output (oy, ox) sits at
/// row oy*s + ky, phase kx % s, column ox + kx / s, and consecutive
/// outputs of a row read consecutive floats at every stride. `wq` keeps
/// zero slack past the last real column, so a run of outputs never reads
/// outside its row.
struct Geom {
  int64_t n, cin, cout, h, w, k, s, pad, ho, wo;
  int64_t how, kk, ckk;
  int64_t hp, wq, rp, plane;
  int64_t runs;   ///< 4-wide output runs per row
  int64_t slots;  ///< 8-lane vectors (pairs of runs) per output plane
};

Geom make_geom(const Shape& in, int64_t cout, int64_t k, int64_t s,
               int64_t pad) {
  Geom g{};
  g.n = in[0];
  g.cin = in[1];
  g.h = in[2];
  g.w = in[3];
  g.cout = cout;
  g.k = k;
  g.s = s;
  g.pad = pad;
  g.ho = (g.h + 2 * pad - k) / s + 1;
  g.wo = (g.w + 2 * pad - k) / s + 1;
  g.how = g.ho * g.wo;
  g.kk = k * k;
  g.ckk = g.cin * g.kk;
  g.runs = (g.wo + 3) / 4;
  g.hp = g.h + 2 * pad;
  // Vector reads of a row's last run reach (k-1)/s floats past it.
  g.wq = std::max((g.w + 2 * pad + s - 1) / s, 4 * g.runs + (k - 1) / s);
  g.rp = s * g.wq;
  g.plane = g.hp * g.rp;
  g.slots = (g.ho * g.runs + 1) / 2;
  return g;
}

/// A run of up to 4 consecutive outputs of one row. A vector holds a slot
/// of two runs: rows of 8 or more outputs fill it from one row, narrower
/// rows (stage 3 of a CIFAR ResNet is 4x4) pair two rows so no lane idles.
struct Run {
  int64_t in;   ///< first output's offset in a padded plane
  int64_t out;  ///< first output's offset in an output plane
  int lanes;    ///< valid outputs, 0..4
};

/// Offset tables of one call, built on the calling thread and read by
/// every work item.
class Offsets {
 public:
  explicit Offsets(const Geom& g)
      : ints_(g.ckk + g.how), runs_(2 * g.slots) {
    // The element output (oy, ox) reads through the flattened weight
    // column c = (ci*k + ky)*k + kx is at tap[c] + pos[oy*wo + ox] of the
    // sample's padded planes. tap[t < kk] is tap (ky, kx) within a plane.
    int64_t* t = ints_.data();
    for (int64_t ci = 0; ci < g.cin; ++ci)
      for (int64_t ky = 0; ky < g.k; ++ky)
        for (int64_t kx = 0; kx < g.k; ++kx)
          *t++ = ci * g.plane + ky * g.rp + kx % g.s * g.wq + kx / g.s;
    for (int64_t oy = 0; oy < g.ho; ++oy)
      for (int64_t ox = 0; ox < g.wo; ++ox) *t++ = oy * g.s * g.rp + ox;
    // Runs in row-major order; the odd one out at the end repeats the
    // last run with no valid lane, so its addresses stay in bounds.
    Run* r = runs_.data();
    for (int64_t oy = 0; oy < g.ho; ++oy)
      for (int64_t ox = 0; ox < g.wo; ox += 4)
        *r++ = {oy * g.s * g.rp + ox, oy * g.wo + ox,
                static_cast<int>(std::min<int64_t>(4, g.wo - ox))};
    if (g.ho * g.runs % 2 != 0) *r = {r[-1].in, r[-1].out, 0};
    tap = ints_.data();
    pos = tap + g.ckk;
    run = runs_.data();
  }

  const int64_t* tap;
  const int64_t* pos;
  const Run* run;

 private:
  core::Scratch<int64_t> ints_;
  core::Scratch<Run> runs_;
};

/// Calls f(at, ix, cols) for every (row, phase) run of a padded plane's
/// interior that some tap reaches: padded floats [at, at + cols) hold
/// plain-plane floats ix, ix + s, ..., ix + (cols-1)*s. Padded column
/// c = ix + pad sits in phase c % s at column c / s. When k < s, phases
/// >= k and rows r with r % s >= k are never read (nor receive dx).
template <typename F>
void for_each_interior_run(const Geom& g, const F& f) {
  for (int64_t phase = 0; phase < std::min(g.k, g.s); ++phase) {
    const int64_t ix0 = ((phase - g.pad) % g.s + g.s) % g.s;
    const int64_t cols = ix0 < g.w ? (g.w - ix0 + g.s - 1) / g.s : 0;
    const int64_t at0 = g.pad * g.rp + phase * g.wq + (ix0 + g.pad) / g.s;
    for (int64_t iy = 0; iy < g.h; ++iy)
      if (g.k >= g.s || (iy + g.pad) % g.s < g.k)
        f(at0 + iy * g.rp, iy * g.w + ix0, cols);
  }
}

/// Zero-padded, phase-split copy of one h x w plane.
void pad_plane(const Geom& g, const float* src, float* dst) {
  std::memset(dst, 0, static_cast<size_t>(g.plane) * sizeof(float));
  for_each_interior_run(g, [&](int64_t at, int64_t ix, int64_t cols) {
    if (g.s == 1)
      std::copy_n(src + ix, cols, dst + at);
    else
      for (int64_t j = 0; j < cols; ++j) dst[at + j] = src[ix + j * g.s];
  });
}

/// The interior of a padded plane back to h x w.
void unpad_plane(const Geom& g, const float* src, float* dst) {
  for_each_interior_run(g, [&](int64_t at, int64_t ix, int64_t cols) {
    if (g.s == 1)
      std::copy_n(src + at, cols, dst + ix);
    else
      for (int64_t j = 0; j < cols; ++j) dst[ix + j * g.s] = src[at + j];
  });
}

constexpr int64_t kSpill = 8;    ///< dx: floats of slack after a plane
constexpr int64_t kCoBlock = 4;  ///< forward: output channels per item

/// A dW work item: `cos` output channels (whole vectors of 8) by `taps`
/// consecutive weight columns, with its whole (n, oy, ox) chain.
struct DwTile {
  int64_t cos, taps;
};
constexpr int64_t kMaxDwCos = 16, kMaxDwTaps = 9;

/// dW[co0 + l, c0 + i] <-> tile[i * t.cos + l], zeros outside the weight.
void load_dw_tile(const Geom& g, DwTile t, const float* dw, int64_t co0,
                  int64_t c0, float* tile) {
  for (int64_t i = 0; i < t.taps; ++i)
    for (int64_t l = 0; l < t.cos; ++l)
      tile[i * t.cos + l] = c0 + i < g.ckk && co0 + l < g.cout
                                ? dw[(co0 + l) * g.ckk + c0 + i]
                                : 0.0f;
}

void store_dw_tile(const Geom& g, DwTile t, const float* tile, int64_t co0,
                   int64_t c0, float* dw) {
  for (int64_t i = 0; i < std::min(t.taps, g.ckk - c0); ++i)
    for (int64_t l = 0; l < std::min(t.cos, g.cout - co0); ++l)
      dw[(co0 + l) * g.ckk + c0 + i] = tile[i * t.cos + l];
}

// ---- scalar kernels (unfused mul-then-add, like kernel_6x16_scalar) --------

/// y[co] of one sample for co in [co0, co0 + kCoBlock): per output a chain
/// over c ascending from +0.
void forward_scalar(const Geom& g, const Offsets& o, const float* xs,
                    const float* w, float* ys, int64_t co0) {
  for (int64_t co = co0; co < std::min(co0 + kCoBlock, g.cout); ++co) {
    float* yc = ys + co * g.how;
    std::fill(yc, yc + g.how, 0.0f);
    for (int64_t c = 0; c < g.ckk; ++c) {
      const float wv = w[co * g.ckk + c];
      for (int64_t oy = 0; oy < g.ho; ++oy) {
        const float* xr = xs + o.tap[c] + o.pos[oy * g.wo];
        float* yr = yc + oy * g.wo;
        for (int64_t ox = 0; ox < g.wo; ++ox) yr[ox] += wv * xr[ox];
      }
    }
  }
}

/// dW[co0 + l, c0 + i] += chain over (n, oy, ox) ascending of
/// g[n, co, oy, ox] * x_tap. gt is grad_out channel-last, [n][how][cp].
void dw_scalar(const Geom& g, const Offsets& o, DwTile t, const float* xpad,
               const float* gt, int64_t cp, float* dw, int64_t co0,
               int64_t c0) {
  const int64_t nc = std::min(t.taps, g.ckk - c0);
  float acc[kMaxDwTaps * kMaxDwCos];
  load_dw_tile(g, t, dw, co0, c0, acc);
  for (int64_t in = 0; in < g.n; ++in) {
    const float* xn = xpad + in * g.cin * g.plane;
    for (int64_t p = 0; p < g.how; ++p) {
      const float* gv = gt + (in * g.how + p) * cp + co0;
      for (int64_t i = 0; i < nc; ++i) {
        const float xv = xn[o.tap[c0 + i] + o.pos[p]];
        float* a = acc + i * t.cos;
        for (int64_t l = 0; l < t.cos; ++l) a[l] += gv[l] * xv;
      }
    }
  }
  store_dw_tile(g, t, acc, co0, c0, dw);
}

/// One sample's grad_out [cout][how] channel-last into dst [how][cp],
/// channels cout..cp-1 zero, for positions [p0, how).
void gather_scalar(const Geom& g, const float* src, int64_t cp, float* dst,
                   int64_t p0) {
  for (int64_t p = p0; p < g.how; ++p)
    for (int64_t co = 0; co < cp; ++co)
      dst[p * cp + co] = co < g.cout ? src[co * g.how + p] : 0.0f;
}

/// Input channel ci of one sample's dx into the zeroed padded plane dxp:
/// each dcol value (a chain over co ascending from +0) adds in output
/// order (oy, ox) ascending. wt is this channel's weights as [cout][kk];
/// dcol is kk*wo floats of scratch. kFused chains with a fused
/// multiply-add, the arithmetic of the AVX2 GEMM.
template <bool kFused>
inline void dx_rows(const Geom& g, const Offsets& o, const float* gs,
                    const float* wt, float* dxp, float* dcol) {
  for (int64_t oy = 0; oy < g.ho; ++oy) {
    std::fill(dcol, dcol + g.kk * g.wo, 0.0f);
    for (int64_t co = 0; co < g.cout; ++co) {
      const float* gr = gs + co * g.how + oy * g.wo;
      for (int64_t t = 0; t < g.kk; ++t) {
        const float wv = wt[co * g.kk + t];
        float* d = dcol + t * g.wo;
        for (int64_t ox = 0; ox < g.wo; ++ox)
          d[ox] = kFused ? std::fma(gr[ox], wv, d[ox]) : d[ox] + gr[ox] * wv;
      }
    }
    // Taps descending = (ky, kx) descending: an input element receives
    // its contributions in (oy, ox) ascending order.
    for (int64_t t = g.kk - 1; t >= 0; --t) {
      float* dst = dxp + o.tap[t] + o.pos[oy * g.wo];
      const float* d = dcol + t * g.wo;
      for (int64_t ox = 0; ox < g.wo; ++ox) dst[ox] += d[ox];
    }
  }
}

// ---- AVX2+FMA kernels: the same chains, 8 outputs per vector --------------

#if COMDML_SIMD_X86
alignas(16) constexpr int32_t kRunMask[5][4] = {
    {0, 0, 0, 0}, {-1, 0, 0, 0}, {-1, -1, 0, 0}, {-1, -1, -1, 0},
    {-1, -1, -1, -1}};

__attribute__((target("avx2,fma"))) inline __m128i run_mask(int lanes) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kRunMask[lanes]));
}

__attribute__((target("avx2,fma"))) inline __m256 load_pair(const float* lo,
                                                            const float* hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(lo)),
                              _mm_loadu_ps(hi), 1);
}

__attribute__((target("avx2,fma"))) inline void store_run(float* p, __m128 v,
                                                          int lanes) {
  if (lanes == 4)
    _mm_storeu_ps(p, v);
  else if (lanes > 0)
    _mm_maskstore_ps(p, run_mask(lanes), v);
}

/// kPaired: rows narrower than 8 outputs, so a slot's two runs may sit in
/// different rows; otherwise every slot is 8 consecutive outputs.
template <bool kPaired>
__attribute__((target("avx2,fma"))) void forward_avx2(
    const Geom& g, const Offsets& o, const float* xs, const float* w,
    float* ys, int64_t co0) {
  constexpr int64_t kSlots = 2;  // register block: kCoBlock x kSlots
  const float* wr[kCoBlock];
#pragma GCC unroll 16
  for (int64_t b = 0; b < kCoBlock; ++b)
    wr[b] = w + std::min(co0 + b, g.cout - 1) * g.ckk;
  for (int64_t s0 = 0; s0 < g.slots; s0 += kSlots) {
    const Run* r[kSlots];
    __m256 acc[kCoBlock][kSlots];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kSlots; ++v) {
      r[v] = o.run + 2 * std::min(s0 + v, g.slots - 1);
#pragma GCC unroll 16
      for (int64_t b = 0; b < kCoBlock; ++b) acc[b][v] = _mm256_setzero_ps();
    }
    for (int64_t c = 0; c < g.ckk; ++c) {
      const float* xc = xs + o.tap[c];
      __m256 xv[kSlots];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kSlots; ++v)
        xv[v] = kPaired ? load_pair(xc + r[v][0].in, xc + r[v][1].in)
                        : _mm256_loadu_ps(xc + r[v][0].in);
#pragma GCC unroll 16
      for (int64_t b = 0; b < kCoBlock; ++b) {
        const __m256 wb = _mm256_broadcast_ss(wr[b] + c);
#pragma GCC unroll 16
        for (int64_t v = 0; v < kSlots; ++v)
          acc[b][v] = _mm256_fmadd_ps(wb, xv[v], acc[b][v]);
      }
    }
#pragma GCC unroll 16
    for (int64_t b = 0; b < kCoBlock; ++b) {
      if (co0 + b >= g.cout) continue;
      float* yc = ys + (co0 + b) * g.how;
#pragma GCC unroll 16
      for (int64_t v = 0; v < kSlots; ++v) {
        if (s0 + v >= g.slots) continue;
        if (!kPaired) {
          _mm256_storeu_ps(yc + r[v][0].out, acc[b][v]);
          continue;
        }
        store_run(yc + r[v][0].out, _mm256_castps256_ps128(acc[b][v]),
                  r[v][0].lanes);
        store_run(yc + r[v][1].out, _mm256_extractf128_ps(acc[b][v], 1),
                  r[v][1].lanes);
      }
    }
  }
}

/// kVecs vectors of 8 output channels by kTaps weight columns.
template <int64_t kVecs, int64_t kTaps>
__attribute__((target("avx2,fma"))) void dw_avx2(
    const Geom& g, const Offsets& o, const float* xpad, const float* gt,
    int64_t cp, float* dw, int64_t co0, int64_t c0) {
  constexpr DwTile t{8 * kVecs, kTaps};
  const int64_t nc = std::min(kTaps, g.ckk - c0);
  alignas(32) float tile[kTaps * 8 * kVecs];
  load_dw_tile(g, t, dw, co0, c0, tile);
  int64_t off[kTaps];
  __m256 acc[kTaps][kVecs];
#pragma GCC unroll 16
  for (int64_t i = 0; i < kTaps; ++i) {
    off[i] = o.tap[c0 + std::min(i, nc - 1)];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v)
      acc[i][v] = _mm256_load_ps(tile + (i * kVecs + v) * 8);
  }
  for (int64_t in = 0; in < g.n; ++in)
    for (int64_t oy = 0; oy < g.ho; ++oy) {
      const float* gr = gt + (in * g.how + oy * g.wo) * cp + co0;
      const float* xr = xpad + in * g.cin * g.plane + o.pos[oy * g.wo];
      const float* xt[kTaps];
#pragma GCC unroll 16
      for (int64_t i = 0; i < kTaps; ++i) xt[i] = xr + off[i];
      for (int64_t ox = 0; ox < g.wo; ++ox) {
        __m256 gv[kVecs];
#pragma GCC unroll 16
        for (int64_t v = 0; v < kVecs; ++v)
          gv[v] = _mm256_loadu_ps(gr + ox * cp + 8 * v);
#pragma GCC unroll 16
        for (int64_t i = 0; i < kTaps; ++i) {
          const __m256 xv = _mm256_broadcast_ss(xt[i] + ox);
#pragma GCC unroll 16
          for (int64_t v = 0; v < kVecs; ++v)
            acc[i][v] = _mm256_fmadd_ps(gv[v], xv, acc[i][v]);
        }
      }
    }
#pragma GCC unroll 16
  for (int64_t i = 0; i < kTaps; ++i)
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v)
      _mm256_store_ps(tile + (i * kVecs + v) * 8, acc[i][v]);
  // store_dw_tile is plain SSE code: GCC calls it with the upper YMM
  // halves dirty unless they are cleared here, and every SSE instruction
  // after that runs several times slower.
  _mm256_zeroupper();
  store_dw_tile(g, t, tile, co0, c0, dw);
}

/// gather_scalar by 8x8 transposes: 8 channels by 8 positions per block
/// (cp is a multiple of 8), the position tail left to the scalar loop.
__attribute__((target("avx2"))) void gather_avx2(const Geom& g,
                                                 const float* src, int64_t cp,
                                                 float* dst) {
  const int64_t p8 = g.how / 8 * 8;
  for (int64_t co0 = 0; co0 < cp; co0 += 8)
    for (int64_t p = 0; p < p8; p += 8) {
      __m256 r[8];
#pragma GCC unroll 8
      for (int64_t l = 0; l < 8; ++l)
        r[l] = co0 + l < g.cout ? _mm256_loadu_ps(src + (co0 + l) * g.how + p)
                                : _mm256_setzero_ps();
      // 8x8 transpose: pairs, then quads, then 128-bit halves.
      __m256 t[8], u[8];
#pragma GCC unroll 4
      for (int64_t l = 0; l < 8; l += 2) {
        t[l] = _mm256_unpacklo_ps(r[l], r[l + 1]);
        t[l + 1] = _mm256_unpackhi_ps(r[l], r[l + 1]);
      }
#pragma GCC unroll 2
      for (int64_t l = 0; l < 8; l += 4) {
        u[l] = _mm256_shuffle_ps(t[l], t[l + 2], 0x44);
        u[l + 1] = _mm256_shuffle_ps(t[l], t[l + 2], 0xEE);
        u[l + 2] = _mm256_shuffle_ps(t[l + 1], t[l + 3], 0x44);
        u[l + 3] = _mm256_shuffle_ps(t[l + 1], t[l + 3], 0xEE);
      }
#pragma GCC unroll 4
      for (int64_t q = 0; q < 4; ++q) {
        _mm256_storeu_ps(dst + (p + q) * cp + co0,
                         _mm256_permute2f128_ps(u[q], u[q + 4], 0x20));
        _mm256_storeu_ps(dst + (p + q + 4) * cp + co0,
                         _mm256_permute2f128_ps(u[q], u[q + 4], 0x31));
      }
    }
  gather_scalar(g, src, cp, dst, p8);
}

// Shifted adds. dx row chunks receive a tap's dcol vector d shifted m
// lanes right: lanes l >= m of [p, p+L) get d[l-m], lanes l < m of
// [p+L, p+2L) get d[l-m+L]. Both chunks are loaded once per (row, phase)
// and stored once after every tap has been added in order, so no load
// ever partially overlaps an earlier store. Lanes a tap does not reach
// add +0, which leaves a dx sum (never -0) unchanged; past a row's end
// the second chunk adds only such zeros, to the next row or to the
// kSpill floats after the plane.
alignas(32) constexpr int32_t kRot8[16] = {0, 1, 2, 3, 4, 5, 6, 7,
                                           0, 1, 2, 3, 4, 5, 6, 7};
alignas(32) constexpr int32_t kHigh8[16] = {0,  0,  0,  0,  0,  0,  0,  0,
                                            -1, -1, -1, -1, -1, -1, -1, -1};
alignas(16) constexpr int32_t kRot4[8] = {0, 1, 2, 3, 0, 1, 2, 3};
alignas(16) constexpr int32_t kHigh4[8] = {0, 0, 0, 0, -1, -1, -1, -1};

/// Adds taps kx = K-1..0 of one ky row with kx % s == phase (8 lanes).
template <int64_t K>
__attribute__((target("avx2,fma"), always_inline)) inline void add_taps8(
    float* p, const __m256* d, int64_t s, int64_t phase) {
  const bool spill = phase + s < K;  // some tap here has m >= 1
  __m256 a = _mm256_loadu_ps(p);
  __m256 b = spill ? _mm256_loadu_ps(p + 8) : _mm256_setzero_ps();
#pragma GCC unroll 16
  for (int64_t kx = K - 1; kx >= 0; --kx) {
    if (kx % s != phase) continue;
    const int64_t m = kx / s;
    if (m == 0) {
      a = _mm256_add_ps(a, d[kx]);
      continue;
    }
    const __m256 rot = _mm256_permutevar8x32_ps(
        d[kx], _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(kRot8 + 8 - m)));
    const __m256 high = _mm256_castsi256_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kHigh8 + 8 - m)));
    a = _mm256_add_ps(a, _mm256_and_ps(rot, high));
    b = _mm256_add_ps(b, _mm256_andnot_ps(high, rot));
  }
  _mm256_storeu_ps(p, a);
  if (spill) _mm256_storeu_ps(p + 8, b);
}

/// add_taps8 for one 4-lane run (the low or high half of each d).
template <int64_t K, bool kHigh>
__attribute__((target("avx2,fma"), always_inline)) inline void add_taps4(
    float* p, const __m256* d, int64_t s, int64_t phase) {
  const bool spill = phase + s < K;
  __m128 a = _mm_loadu_ps(p);
  __m128 b = spill ? _mm_loadu_ps(p + 4) : _mm_setzero_ps();
#pragma GCC unroll 16
  for (int64_t kx = K - 1; kx >= 0; --kx) {
    if (kx % s != phase) continue;
    const int64_t m = kx / s;
    const __m128 v = kHigh ? _mm256_extractf128_ps(d[kx], 1)
                           : _mm256_castps256_ps128(d[kx]);
    if (m == 0) {
      a = _mm_add_ps(a, v);
      continue;
    }
    const __m128 rot = _mm_permutevar_ps(
        v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRot4 + 4 - m)));
    const __m128 high = _mm_castsi128_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kHigh4 + 4 - m)));
    a = _mm_add_ps(a, _mm_and_ps(rot, high));
    b = _mm_add_ps(b, _mm_andnot_ps(high, rot));
  }
  _mm_storeu_ps(p, a);
  if (spill) _mm_storeu_ps(p + 4, b);
}

/// k x k convolution's dx for k = K <= 3, kSlots slots at a time: all
/// K*K dcol vectors of a slot stay in registers, then add tap by tap in
/// (ky, kx) descending order, which is (oy, ox) ascending for every input
/// element; slots add in order. wt is this channel's weights as
/// [cout][kk].
template <bool kPaired, int64_t K, int64_t kSlots>
__attribute__((target("avx2,fma"))) void dx_avx2(const Geom& g,
                                                 const Offsets& o,
                                                 const float* gs,
                                                 const float* wt, float* dxp) {
  constexpr int64_t kKK = K * K;
  for (int64_t s0 = 0; s0 < g.slots; s0 += kSlots) {
    Run r[kSlots][2];
    __m128i m[kSlots][2];
    __m256 acc[kSlots][kKK];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kSlots; ++v) {
      const int64_t si = std::min(s0 + v, g.slots - 1);
      r[v][0] = o.run[2 * si];
      r[v][1] = o.run[2 * si + 1];
      m[v][0] = run_mask(r[v][0].lanes);
      m[v][1] = run_mask(r[v][1].lanes);
#pragma GCC unroll 16
      for (int64_t t = 0; t < kKK; ++t) acc[v][t] = _mm256_setzero_ps();
    }
    const float* gc = gs;
    const float* wc = wt;
    for (int64_t co = 0; co < g.cout; ++co, gc += g.how, wc += kKK) {
      __m256 gv[kSlots];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kSlots; ++v)
        gv[v] = kPaired ? _mm256_set_m128(
                              _mm_maskload_ps(gc + r[v][1].out, m[v][1]),
                              _mm_maskload_ps(gc + r[v][0].out, m[v][0]))
                        : _mm256_loadu_ps(gc + r[v][0].out);
#pragma GCC unroll 16
      for (int64_t t = 0; t < kKK; ++t) {
        const __m256 wv = _mm256_broadcast_ss(wc + t);
#pragma GCC unroll 16
        for (int64_t v = 0; v < kSlots; ++v)
          acc[v][t] = _mm256_fmadd_ps(gv[v], wv, acc[v][t]);
      }
    }
#pragma GCC unroll 16
    for (int64_t v = 0; v < kSlots; ++v) {
      if (s0 + v >= g.slots) continue;
      if (kPaired) {
        // Idle lanes carry +0, whatever the weights hold.
        const __m256 keep =
            _mm256_castsi256_ps(_mm256_set_m128i(m[v][1], m[v][0]));
#pragma GCC unroll 16
        for (int64_t t = 0; t < kKK; ++t)
          acc[v][t] = _mm256_and_ps(acc[v][t], keep);
      }
#pragma GCC unroll 16
      for (int64_t ky = K - 1; ky >= 0; --ky)
        for (int64_t phase = 0; phase < g.s; ++phase) {
          float* row = dxp + ky * g.rp + phase * g.wq;
          if (!kPaired) {
            add_taps8<K>(row + r[v][0].in, acc[v] + ky * K, g.s, phase);
            continue;
          }
          add_taps4<K, false>(row + r[v][0].in, acc[v] + ky * K, g.s, phase);
          add_taps4<K, true>(row + r[v][1].in, acc[v] + ky * K, g.s, phase);
        }
    }
  }
}

/// 3x3 stride-1 convolutions that keep the plane size (pad 1): input
/// element q = iy*w + ix takes tap (ky, kx) from output q + (1-ky)*w +
/// (1-kx) of the same plane, so 8 consecutive input elements (across
/// rows) read each tap's dcol chain at one constant offset and sum the 9
/// chains in registers, tap descending = (oy, ox) ascending, straight into
/// dx: no padded plane and no shifted adds. A lane whose tap has no output
/// is masked to +0 after its chain, whatever the weights hold.
constexpr int64_t kSameTaps = 10;  ///< 9 tap masks + the in-plane mask

bool same3(const Geom& g) {
  return g.k == 3 && g.s == 1 && g.pad == 1;
}

/// Lane masks per 8-element chunk of a plane: mask[(b*10 + t)*8 + l] is -1
/// when element 8b + l is in the plane and has an output at tap t < 9;
/// t = 9 marks the elements in the plane.
void same3_masks(const Geom& g, int32_t* mask) {
  const int64_t chunks = (g.how + 7) / 8;
  for (int64_t b = 0, iy = 0, ix = 0; b < chunks; ++b)
    for (int64_t l = 0; l < 8; ++l) {
      const bool in = 8 * b + l < g.how;
      int32_t* m = mask + b * kSameTaps * 8 + l;
      for (int64_t t = 0; t < 9; ++t) {
        const int64_t oy = iy + 1 - t / 3, ox = ix + 1 - t % 3;
        m[t * 8] = in && oy >= 0 && oy < g.ho && ox >= 0 && ox < g.wo ? -1 : 0;
      }
      m[9 * 8] = in ? -1 : 0;
      if (++ix == g.w) ix = 0, ++iy;
    }
}

/// dx of kCi consecutive channels of one sample for same3 geometries,
/// kChunks chunks at a time, in passes over ky descending: each grad load
/// feeds kCi FMAs and each weight broadcast kChunks. gs is the sample's
/// grad_out with readable slack around it, wt the first channel's weights
/// as [cout][9] (the next channel's follow), dxs the first channel's dx
/// plane (the next channel's follow).
template <int64_t kChunks, int64_t kCi>
__attribute__((target("avx2,fma"))) void dx_same3_avx2(
    const Geom& g, const int32_t* mask, const float* gs, const float* wt,
    float* dxs) {
  const int64_t chunks = (g.how + 7) / 8;
  const int64_t wstride = g.cout * 9;
  for (int64_t b0 = 0; b0 < chunks; b0 += kChunks) {
    int64_t at[kChunks];
    __m256 x[kChunks][kCi];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kChunks; ++v) {
      at[v] = 8 * std::min(b0 + v, chunks - 1);
#pragma GCC unroll 16
      for (int64_t c = 0; c < kCi; ++c) x[v][c] = _mm256_setzero_ps();
    }
    for (int64_t ky = 2; ky >= 0; --ky) {
      __m256 acc[kChunks][kCi][3];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kChunks; ++v)
#pragma GCC unroll 16
        for (int64_t c = 0; c < kCi; ++c)
#pragma GCC unroll 16
          for (int64_t kx = 0; kx < 3; ++kx)
            acc[v][c][kx] = _mm256_setzero_ps();
      const float* gc = gs + (1 - ky) * g.w + 1;
      const float* wc = wt + ky * 3;
      for (int64_t co = 0; co < g.cout; ++co, gc += g.how, wc += 9) {
#pragma GCC unroll 16
        for (int64_t kx = 0; kx < 3; ++kx) {
          __m256 wv[kCi];
#pragma GCC unroll 16
          for (int64_t c = 0; c < kCi; ++c)
            wv[c] = _mm256_broadcast_ss(wc + c * wstride + kx);
#pragma GCC unroll 16
          for (int64_t v = 0; v < kChunks; ++v) {
            __m256 gv = _mm256_loadu_ps(gc + at[v] - kx);
            // Load once into a register for all kCi FMAs: GCC would
            // otherwise fold the load into each FMA and double the loads.
            asm("" : "+x"(gv));
#pragma GCC unroll 16
            for (int64_t c = 0; c < kCi; ++c)
              acc[v][c][kx] = _mm256_fmadd_ps(gv, wv[c], acc[v][c][kx]);
          }
        }
      }
#pragma GCC unroll 16
      for (int64_t v = 0; v < kChunks; ++v) {
        const int32_t* m = mask + (at[v] / 8 * kSameTaps + ky * 3) * 8;
#pragma GCC unroll 16
        for (int64_t c = 0; c < kCi; ++c)
#pragma GCC unroll 16
          for (int64_t kx = 2; kx >= 0; --kx)
            x[v][c] = _mm256_add_ps(
                x[v][c],
                _mm256_and_ps(acc[v][c][kx],
                              _mm256_loadu_ps(reinterpret_cast<const float*>(
                                  m + kx * 8))));
      }
    }
#pragma GCC unroll 16
    for (int64_t v = 0; v < kChunks; ++v) {
      if (b0 + v >= chunks) continue;
      const __m256i in = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          mask + (at[v] / 8 * kSameTaps + 9) * 8));
#pragma GCC unroll 16
      for (int64_t c = 0; c < kCi; ++c) {
        float* d = dxs + c * g.how + at[v];
        if (at[v] + 8 <= g.how)
          _mm256_storeu_ps(d, x[v][c]);
        else
          _mm256_maskstore_ps(d, in, x[v][c]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void dx_rows_fma(
    const Geom& g, const Offsets& o, const float* gs, const float* wt,
    float* dxp, float* dcol) {
  dx_rows<true>(g, o, gs, wt, dxp, dcol);
}

const bool g_avx2 =
    __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif  // COMDML_SIMD_X86

// ---- dispatch: the kernel depends on the host CPU only ---------------------

void forward_block(const Geom& g, const Offsets& o, const float* xs,
                   const float* w, float* ys, int64_t co0) {
#if COMDML_SIMD_X86
  if (g_avx2) {
    if (g.wo % 8 == 0)
      forward_avx2<false>(g, o, xs, w, ys, co0);
    else
      forward_avx2<true>(g, o, xs, w, ys, co0);
    return;
  }
#endif
  forward_scalar(g, o, xs, w, ys, co0);
}

/// dW item shape: two vectors of output channels by 6 columns when there
/// are more than 8 channels (2 loads + 6 broadcasts feed 12 FMAs), else
/// one vector by 9 columns.
DwTile dw_tile(const Geom& g) {
  return g.cout > 8 ? DwTile{16, 6} : DwTile{8, 9};
}

void dw_block(const Geom& g, const Offsets& o, DwTile t, const float* xpad,
              const float* gt, int64_t cp, float* dw, int64_t co0,
              int64_t c0) {
#if COMDML_SIMD_X86
  if (g_avx2) {
    if (t.cos == 16)
      dw_avx2<2, 6>(g, o, xpad, gt, cp, dw, co0, c0);
    else
      dw_avx2<1, 9>(g, o, xpad, gt, cp, dw, co0, c0);
    return;
  }
#endif
  dw_scalar(g, o, t, xpad, gt, cp, dw, co0, c0);
}

void gather_channel_last(const Geom& g, const float* src, int64_t cp,
                         float* dst) {
#if COMDML_SIMD_X86
  if (g_avx2) return gather_avx2(g, src, cp, dst);
#endif
  gather_scalar(g, src, cp, dst, 0);
}

void dx_plane(const Geom& g, const Offsets& o, const float* gs,
              const float* wt, float* dxp, float* dcol) {
#if COMDML_SIMD_X86
  if (g_avx2) {
    const bool paired = g.wo % 8 != 0;
    // 1x1: several slots at a time keep several dcol chains in flight.
    if (g.k == 1 && g.slots >= 6)
      paired ? dx_avx2<true, 1, 6>(g, o, gs, wt, dxp)
             : dx_avx2<false, 1, 6>(g, o, gs, wt, dxp);
    else if (g.k == 1)
      paired ? dx_avx2<true, 1, 2>(g, o, gs, wt, dxp)
             : dx_avx2<false, 1, 2>(g, o, gs, wt, dxp);
    else if (g.k == 3)
      paired ? dx_avx2<true, 3, 1>(g, o, gs, wt, dxp)
             : dx_avx2<false, 3, 1>(g, o, gs, wt, dxp);
    else
      dx_rows_fma(g, o, gs, wt, dxp, dcol);
    return;
  }
#endif
  dx_rows<false>(g, o, gs, wt, dxp, dcol);
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_("conv.weight",
              rng.he_normal({out_channels, in_channels, kernel, kernel},
                            in_channels * kernel * kernel)) {
  COMDML_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
               stride > 0 && padding >= 0);
}

std::string Conv2d::kind() const {
  std::ostringstream os;
  os << "conv" << k_ << "x" << k_;
  return os.str();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  COMDML_REQUIRE(x.rank() == 4 && x.dim(1) == cin_,
                 "conv: expected [N," << cin_ << ",H,W], got "
                                      << tensor::shape_str(x.shape()));
  const int64_t h = x.dim(2), w = x.dim(3);
  COMDML_REQUIRE(out_extent(h) > 0 && out_extent(w) > 0,
                 "conv: input " << h << "x" << w << " too small for kernel");
  const Geom g = make_geom(x.shape(), cout_, k_, stride_, pad_);
  // Training keeps the padded copy for backward's dW in a member reused
  // across steps, like BatchNorm2d's caches; inference pads into scratch
  // and leaves nothing for backward.
  core::Scratch<float> scratch(train ? 0 : g.n * g.cin * g.plane);
  float* pp = scratch.data();
  if (train) {
    in_shape_ = x.shape();
    padded_input_.resize(static_cast<size_t>(g.n * g.cin * g.plane));
    pp = padded_input_.data();
  } else {
    in_shape_.clear();
  }
  const float* xp = x.flat().data();
  core::parallel_for(0, g.n * g.cin, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      pad_plane(g, xp + i * g.h * g.w, pp + i * g.plane);
  });

  const Offsets o(g);
  Tensor y({g.n, cout_, g.ho, g.wo});
  const float* wp = weight_.value.flat().data();
  float* yp = y.flat().data();
  const int64_t blocks = (cout_ + kCoBlock - 1) / kCoBlock;
  core::parallel_for(0, g.n * blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t in = i / blocks;
      forward_block(g, o, pp + in * g.cin * g.plane, wp,
                    yp + in * cout_ * g.how, i % blocks * kCoBlock);
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  COMDML_REQUIRE(!in_shape_.empty(),
                 "conv backward: no training-mode forward to differentiate");
  const Geom g = make_geom(in_shape_, cout_, k_, stride_, pad_);
  COMDML_REQUIRE(grad_out.rank() == 4 && grad_out.dim(0) == g.n &&
                     grad_out.dim(1) == cout_ && grad_out.dim(2) == g.ho &&
                     grad_out.dim(3) == g.wo,
                 "conv backward: bad grad shape "
                     << tensor::shape_str(grad_out.shape()));
  const float* wp = weight_.value.flat().data();
  const float* pp = padded_input_.data();
  const float* gp = grad_out.flat().data();
  const Offsets o(g);

  // dW over (co-block, c-tile) items, each running its whole (n, oy, ox)
  // chain; grad_out is gathered channel-last (zero-padded to cp channels)
  // so a vector holds 8 output channels.
  const DwTile tile = dw_tile(g);
  const int64_t cp = (cout_ + tile.cos - 1) / tile.cos * tile.cos;
  core::Scratch<float> gt(g.n * g.how * cp);
  float* gtp = gt.data();
  core::parallel_for(0, g.n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t in = lo; in < hi; ++in)
      gather_channel_last(g, gp + in * cout_ * g.how, cp,
                          gtp + in * g.how * cp);
  });
  const int64_t tiles = (g.ckk + tile.taps - 1) / tile.taps;
  float* dwp = weight_.grad.flat().data();
  core::parallel_for(0, cp / tile.cos * tiles, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      dw_block(g, o, tile, pp, gtp, cp, dwp, i / tiles * tile.cos,
               i % tiles * tile.taps);
  });

  // dx over (n, ci) items with the weights regrouped as [cin][cout][kk]
  // so an item reads them in order: 3x3 stride-1 convolutions straight
  // into dx, two channels per item, the others through a padded plane.
  core::Scratch<float> wt(g.cin * cout_ * g.kk);
  for (int64_t co = 0; co < cout_; ++co)
    for (int64_t ci = 0; ci < g.cin; ++ci)
      std::copy_n(wp + (co * g.cin + ci) * g.kk, g.kk,
                  wt.data() + (ci * cout_ + co) * g.kk);
  Tensor dx(in_shape_);
  float* dxp = dx.flat().data();
#if COMDML_SIMD_X86
  // Chunk reads reach w + 1 floats before a sample's grad and w + 8 past
  // it. When a sample holds at least w + 8 floats that stays inside
  // grad_out except for the first and the last sample, which read from
  // copies with slack on both ends; smaller samples take dx_plane.
  const int64_t sample = cout_ * g.how;
  if (g_avx2 && same3(g) && sample >= g.w + 8) {
    const int64_t slack = g.w + 16;
    core::Scratch<float> edge(2 * (sample + 2 * slack));
    const float* edge_grad[2];
    for (int64_t e = 0; e < 2; ++e) {
      float* b = edge.data() + e * (sample + 2 * slack);
      std::fill_n(b, sample + 2 * slack, 0.0f);
      std::copy_n(gp + (e == 0 ? 0 : g.n - 1) * sample, sample, b + slack);
      edge_grad[e] = b + slack;
    }
    core::Scratch<int32_t> masks((g.how + 7) / 8 * kSameTaps * 8);
    same3_masks(g, masks.data());
    // Items of two input channels (one for an odd last channel).
    const int64_t pairs = (g.cin + 1) / 2;
    core::parallel_for(0, g.n * pairs, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t in = i / pairs, ci = i % pairs * 2;
        const float* gs = in == 0       ? edge_grad[0]
                          : in == g.n - 1 ? edge_grad[1]
                                          : gp + in * sample;
        const float* wc = wt.data() + ci * cout_ * g.kk;
        float* d = dxp + (in * g.cin + ci) * g.how;
        if (ci + 1 < g.cin)
          dx_same3_avx2<2, 2>(g, masks.data(), gs, wc, d);
        else
          dx_same3_avx2<2, 1>(g, masks.data(), gs, wc, d);
      }
    });
    return dx;
  }
#endif
  core::parallel_for(0, g.n * g.cin, 1, [&](int64_t lo, int64_t hi) {
    // The padded plane, its spill slack, then dx_rows' dcol rows.
    const int64_t plane_floats = g.plane + kSpill;
    core::Scratch<float> plane(plane_floats + g.kk * g.wo);
    for (int64_t i = lo; i < hi; ++i) {
      std::memset(plane.data(), 0,
                  static_cast<size_t>(plane_floats) * sizeof(float));
      dx_plane(g, o, gp + i / g.cin * cout_ * g.how,
               wt.data() + i % g.cin * cout_ * g.kk, plane.data(),
               plane.data() + plane_floats);
      unpad_plane(g, plane.data(), dxp + i * g.h * g.w);
    }
  });
  return dx;
}

Tensor conv2d_reference_forward(const Tensor& x, const Tensor& w,
                                int64_t stride, int64_t padding) {
  COMDML_REQUIRE(x.rank() == 4 && w.rank() == 4 && x.dim(1) == w.dim(1),
                 "conv reference: bad shapes "
                     << tensor::shape_str(x.shape()) << " * "
                     << tensor::shape_str(w.shape()));
  const int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t ho = (h + 2 * padding - k) / stride + 1;
  const int64_t wo = (ww + 2 * padding - k) / stride + 1;
  COMDML_REQUIRE(ho > 0 && wo > 0, "conv reference: input too small");
  Tensor y({n, cout, ho, wo});
  const float* xp = x.flat().data();
  const float* wp = w.flat().data();
  float* yp = y.flat().data();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          double acc = 0.0;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xc = xp + ((in * cin + ci) * h) * ww;
            const float* wc = wp + ((co * cin + ci) * k) * k;
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= ww) continue;
                acc += double(xc[iy * ww + ix]) * wc[ky * k + kx];
              }
            }
          }
          yp[((in * cout + co) * ho + oy) * wo + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

Tensor conv2d_reference_backward(const Tensor& x, const Tensor& w,
                                 const Tensor& grad_out, int64_t stride,
                                 int64_t padding, Tensor& dw) {
  COMDML_REQUIRE(x.rank() == 4 && w.rank() == 4 && grad_out.rank() == 4 &&
                     dw.shape() == w.shape(),
                 "conv reference backward: bad shapes");
  const int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  Tensor dx(x.shape());
  const float* xp = x.flat().data();
  const float* wp = w.flat().data();
  const float* gp = grad_out.flat().data();
  float* dxp = dx.flat().data();
  float* dwp = dw.flat().data();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* gc = gp + ((in * cout + co) * ho) * wo;
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          const float g = gc[oy * wo + ox];
          if (g == 0.0f) continue;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xc = xp + ((in * cin + ci) * h) * ww;
            float* dxc = dxp + ((in * cin + ci) * h) * ww;
            const float* wc = wp + ((co * cin + ci) * k) * k;
            float* dwc = dwp + ((co * cin + ci) * k) * k;
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= ww) continue;
                dwc[ky * k + kx] += g * xc[iy * ww + ix];
                dxc[iy * ww + ix] += g * wc[ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
}

LayerCost Conv2d::cost(const Shape& in_shape) const {
  COMDML_REQUIRE(in_shape.size() == 3 && in_shape[0] == cin_,
                 "conv cost: expected [" << cin_ << ",H,W]");
  const int64_t ho = out_extent(in_shape[1]), wo = out_extent(in_shape[2]);
  LayerCost c;
  c.flops_forward = 2.0 * double(k_ * k_) * double(cin_) * double(cout_) *
                    double(ho) * double(wo);
  c.flops_backward = 2.0 * c.flops_forward;  // dX pass + dW pass
  c.param_bytes =
      cout_ * cin_ * k_ * k_ * static_cast<int64_t>(sizeof(float));
  c.out_bytes = cout_ * ho * wo * static_cast<int64_t>(sizeof(float));
  c.out_shape = {cout_, ho, wo};
  return c;
}

}  // namespace comdml::nn
