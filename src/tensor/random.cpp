#include "tensor/random.hpp"

#include <cmath>
#include <cstring>

#include "tensor/simd.hpp"

namespace comdml::tensor {

namespace {
constexpr size_t kWords = Mt19937_64::kWords;
constexpr size_t kShift = 156;  // MT19937-64's middle word offset m
constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpper = ~uint64_t{0} << 31;
constexpr uint64_t kLower = ~kUpper;

/// One twisted word. The matrix is selected by a mask of y's low bit: a
/// branch on it would be mispredicted half the time.
inline uint64_t mix(uint64_t hi, uint64_t lo, uint64_t far) {
  const uint64_t y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
}

/// One coordinate of a Marsaglia polar candidate from one engine output:
/// 2u - 1 with the subtraction in double, narrowed to float, as
/// std::normal_distribution<float> forms it.
inline float polar_coord(uint64_t z) {
  return static_cast<float>(static_cast<double>(2.0f * detail::canonical(z)) -
                            1.0);
}

/// The Marsaglia polar method rejects a candidate pair outside the unit
/// disc or at its centre.
inline bool rejected(float r2) { return r2 > 1.0f || r2 == 0.0f; }

// A block fill runs in three stages over a stretch of state words, each a
// scalar loop with an AVX2 twin that computes the same values:
//   polar_coords  tempers each word and forms its polar coordinate;
//   accept_pairs  keeps the y and r2 of each accepted (x, y) pair;
//   finish        scales y by sqrt(-2 log(r2) / r2) (logs taken between).

/// Slots for the kept pairs of a stretch, plus one 8-lane store of slack.
constexpr size_t kPairSlots = kWords / 2 + 1 + 8;

// Word k of a twist reads old words k and k + 1 and, from k = kShift on,
// the new word k - kShift; the scalar loops below update in that order. A
// 4-word block [k, k + 4) reads new words only below k + 4 - kShift <= k, so
// the AVX2 twist updates 4 words per step and gives the same words.

void twist_scalar(uint64_t* w, size_t k) {
  for (; k < kWords - kShift; ++k) w[k] = mix(w[k], w[k + 1], w[k + kShift]);
  for (; k < kWords - 1; ++k) w[k] = mix(w[k], w[k + 1], w[k - kShift]);
  w[kWords - 1] = mix(w[kWords - 1], w[0], w[kShift - 1]);
}

void polar_coords_scalar(const uint64_t* w, float* c, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i)
    c[i] = polar_coord(Mt19937_64::temper(w[i]));
}

/// Appends the y and r2 of pairs [p, pairs) of c to ys/r2s, accepted or
/// not, but advances `kept` past the accepted ones only; stops once `need`
/// are kept. Returns the pairs consumed.
size_t accept_pairs_scalar(const float* c, size_t p, size_t pairs,
                           size_t need, float* ys, float* r2s, size_t& kept) {
  for (; p < pairs; ++p) {
    const float x = c[2 * p], y = c[2 * p + 1];
    const float r2 = x * x + y * y;
    ys[kept] = y;
    r2s[kept] = r2;
    kept += rejected(r2) ? 0 : 1;
    if (kept == need) return p + 1;
  }
  return pairs;
}

/// The tail of a polar draw with its log already taken; normal() and the
/// scalar block fill share it, so both round the same ops.
inline float polar_tail(float y, float r2, float log_r2, float mean,
                        float stddev) {
  return y * std::sqrt(-2.0f * log_r2 / r2) * stddev + mean;
}

void finish_scalar(const float* y, const float* r2, const float* log_r2,
                   float mean, float stddev, float* out, size_t lo,
                   size_t hi) {
  for (size_t i = lo; i < hi; ++i)
    out[i] = polar_tail(y[i], r2[i], log_r2[i], mean, stddev);
}

#if COMDML_SIMD_X86
/// For each 8-bit lane mask, the positions of its set lanes in order (one
/// byte each) and their count: the permutation that packs kept lanes.
struct Compaction {
  std::array<uint64_t, 256> lanes{};
  std::array<uint8_t, 256> count{};
};

constexpr Compaction make_compaction() {
  Compaction t;
  for (unsigned m = 0; m < 256; ++m)
    for (unsigned lane = 0; lane < 8; ++lane)
      if ((m >> lane) & 1u)
        t.lanes[m] |= uint64_t{lane} << (8 * t.count[m]++);
  return t;
}

constexpr Compaction kCompaction = make_compaction();

__attribute__((target("avx2"), always_inline)) inline __m256i load4(
    const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i_u*>(p));
}

__attribute__((target("avx2"), always_inline)) inline void store4(
    uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i_u*>(p), v);
}

__attribute__((target("avx2"), always_inline)) inline __m256i mix4(
    __m256i hi, __m256i lo, __m256i far) {
  const __m256i y =
      _mm256_or_si256(_mm256_and_si256(hi, _mm256_set1_epi64x(kUpper)),
                      _mm256_and_si256(lo, _mm256_set1_epi64x(kLower)));
  const __m256i odd = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(
      _mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
      _mm256_and_si256(odd, _mm256_set1_epi64x(static_cast<int64_t>(kMatrix))));
}

/// Twists the 4-word blocks and returns where twist_scalar takes over.
__attribute__((target("avx2"))) size_t twist_avx2(uint64_t* w) {
  size_t k = 0;
  for (; k < kWords - kShift; k += 4)
    store4(w + k, mix4(load4(w + k), load4(w + k + 1), load4(w + k + kShift)));
  for (; k + 4 < kWords; k += 4)
    store4(w + k, mix4(load4(w + k), load4(w + k + 1), load4(w + k - kShift)));
  return k;
}

__attribute__((target("avx2"), always_inline)) inline __m256i temper4(
    __m256i z) {
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29),
                          _mm256_set1_epi64x(0x5555555555555555)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17),
                          _mm256_set1_epi64x(0x71D67FFFEDA60000)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                          _mm256_set1_epi64x(static_cast<int64_t>(
                              0xFFF7EEE000000000ULL))));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

/// polar_coord of 4 outputs. AVX2 has no u64 -> float conversion,
/// so each word goes through a double it fits exactly: a word of 2^53 or
/// more keeps its bits from 29 up and folds bits 0..28 into a sticky bit
/// 28. Such a float's ulp is at least 2^30, so bits below 29 only decide
/// whether the rest is exactly a tie, and the sticky bit keeps that. The
/// double -> float conversion then rounds as u64 -> float does.
__attribute__((target("avx2"), always_inline)) inline __m128 polar_coord4(
    __m256i z) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low = _mm256_set1_epi64x((int64_t{1} << 29) - 1);
  const __m256i low_is_zero = _mm256_cmpeq_epi64(_mm256_and_si256(z, low), zero);
  const __m256i folded = _mm256_or_si256(
      _mm256_andnot_si256(low, z),
      _mm256_andnot_si256(low_is_zero, _mm256_set1_epi64x(int64_t{1} << 28)));
  const __m256i small = _mm256_cmpeq_epi64(_mm256_srli_epi64(z, 53), zero);
  const __m256i w = _mm256_blendv_epi8(folded, z, small);
  // w = hi * 2^32 + lo fits a double, so (2^84 + hi * 2^32) - (2^84 + 2^52)
  // + (2^52 + lo) is exact at every step and gives w.
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(w, 32), _mm256_set1_epi64x(0x4530000000000000)));
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_blend_epi32(w, _mm256_set1_epi64x(0x4330000000000000), 0xAA));
  const __m256d d = _mm256_add_pd(
      _mm256_sub_pd(hi, _mm256_set1_pd(0x1.00000001p84)), lo);
  const __m128 u =
      _mm_min_ps(_mm_mul_ps(_mm256_cvtpd_ps(d), _mm_set1_ps(0x1p-64f)),
                 _mm_set1_ps(0x1.fffffep-1f));
  return _mm256_cvtpd_ps(_mm256_sub_pd(
      _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(2.0f), u)), _mm256_set1_pd(1.0)));
}

__attribute__((target("avx2"))) size_t polar_coords_avx2(const uint64_t* w,
                                                         float* c, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(c + i, polar_coord4(temper4(load4(w + i))));
  return i;
}

/// accept_pairs_scalar 8 pairs at a time: the accepted lanes are packed
/// with one permutation. Returns the first pair left to the scalar loop:
/// the block that would reach `need`, where that loop finds the stop.
__attribute__((target("avx2"))) size_t accept_pairs_avx2(const float* c,
                                                         size_t pairs,
                                                         size_t need,
                                                         float* ys, float* r2s,
                                                         size_t& kept) {
  size_t p = 0;
  for (; p + 8 <= pairs; p += 8) {
    const __m256 a = _mm256_loadu_ps(c + 2 * p);      // pairs p..p+3
    const __m256 b = _mm256_loadu_ps(c + 2 * p + 8);  // pairs p+4..p+7
    // hadd gives the pairs' x*x + y*y in the lane order 0 1 4 5 2 3 6 7,
    // and the odd-lane shuffle their y in the same order; 0xD8 sorts both.
    const __m256 r2 = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_hadd_ps(_mm256_mul_ps(a, a),
                                        _mm256_mul_ps(b, b))),
        0xD8));
    const __m256 y = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0xDD)), 0xD8));
    const __m256 keep = _mm256_and_ps(
        _mm256_cmp_ps(r2, _mm256_set1_ps(1.0f), _CMP_NGT_UQ),
        _mm256_cmp_ps(r2, _mm256_setzero_ps(), _CMP_NEQ_UQ));
    const auto m = static_cast<unsigned>(_mm256_movemask_ps(keep));
    if (kept + kCompaction.count[m] >= need) break;
    const __m256i order = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<int64_t>(kCompaction.lanes[m])));
    _mm256_storeu_ps(ys + kept, _mm256_permutevar8x32_ps(y, order));
    _mm256_storeu_ps(r2s + kept, _mm256_permutevar8x32_ps(r2, order));
    kept += kCompaction.count[m];
  }
  return p;
}

__attribute__((target("avx2"))) size_t finish_avx2(const float* y,
                                                 const float* r2,
                                                 const float* log_r2,
                                                 float mean, float stddev,
                                                 float* out, size_t n) {
  const __m256 minus_two = _mm256_set1_ps(-2.0f);
  const __m256 vs = _mm256_set1_ps(stddev);
  const __m256 vm = _mm256_set1_ps(mean);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 q = _mm256_div_ps(
        _mm256_mul_ps(minus_two, _mm256_loadu_ps(log_r2 + i)),
        _mm256_loadu_ps(r2 + i));
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_sqrt_ps(q));
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(v, vs), vm));
  }
  return i;
}
#endif

// The AVX2 kernels return where their scalar twins take over. They never
// call scalar code themselves: GCC 12 compiled such a tail call here with
// no vzeroupper before the jump, and with the upper YMM halves left dirty
// every later SSE instruction, libm's included, ran several times slower.

void polar_coords(const uint64_t* w, float* c, size_t n) {
  size_t i = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2) i = polar_coords_avx2(w, c, n);
#endif
  polar_coords_scalar(w, c, i, n);
}

size_t accept_pairs(const float* c, size_t pairs, size_t need, float* ys,
                    float* r2s, size_t& kept) {
  size_t p = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2) p = accept_pairs_avx2(c, pairs, need, ys, r2s, kept);
#endif
  return accept_pairs_scalar(c, p, pairs, need, ys, r2s, kept);
}

void finish(const float* y, const float* r2, const float* log_r2, float mean,
            float stddev, float* out, size_t n) {
  size_t i = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2) i = finish_avx2(y, r2, log_r2, mean, stddev, out, n);
#endif
  finish_scalar(y, r2, log_r2, mean, stddev, out, i, n);
}
}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  words[0] = seed;
  for (size_t i = 1; i < kWords; ++i)
    words[i] = 6364136223846793005ULL * (words[i - 1] ^ (words[i - 1] >> 62)) +
               i;
}

void Mt19937_64::twist() noexcept {
  size_t k = 0;
#if COMDML_SIMD_X86
  if (simd::kAvx2) k = twist_avx2(words.data());
#endif
  twist_scalar(words.data(), k);
  index = 0;
}

float Rng::uniform(float lo, float hi) {
  COMDML_CHECK(lo < hi);
  return detail::canonical(engine_()) * (hi - lo) + lo;
}

float Rng::normal(float mean, float stddev) {
  // std::normal_distribution<float>'s polar draw, built fresh per call: the
  // second value of the accepted pair is discarded.
  float y = 0.0f, r2 = 0.0f;
  do {
    const float x = polar_coord(engine_());
    y = polar_coord(engine_());
    r2 = x * x + y * y;
  } while (rejected(r2));
  return polar_tail(y, r2, std::log(r2), mean, stddev);
}

void Rng::fill_normal(std::span<float> out, float mean, float stddev) {
  // Each stretch of a state block gives its accepted pairs in order. An odd
  // coordinate left at the end of a stretch opens the next one's first
  // pair, so pairs fall on the same words as in normal(), and the engine
  // stops after the last accepted pair's words, where normal() leaves it.
  alignas(32) float coord[kWords + 1];
  alignas(32) float ys[kPairSlots], r2s[kPairSlots], logs[kPairSlots];
  size_t done = 0, carried = 0;
  while (done < out.size()) {
    if (engine_.index >= kWords) engine_.twist();
    const size_t need = out.size() - done;
    // About 2.55 words per draw; another stretch follows if that falls short.
    const size_t take = std::min<size_t>(kWords - engine_.index, 3 * need + 8);
    polar_coords(engine_.words.data() + engine_.index, coord + carried, take);
    engine_.index += take;
    const size_t len = carried + take;
    size_t kept = 0;
    const size_t used = 2 * accept_pairs(coord, len / 2, need, ys, r2s, kept);
    for (size_t i = 0; i < kept; ++i) logs[i] = std::log(r2s[i]);
    finish(ys, r2s, logs, mean, stddev, out.data() + done, kept);
    done += kept;
    if (done == out.size()) {
      engine_.index -= len - used;  // give back the words past the last pair
      return;
    }
    carried = len - used;  // 1 when an odd coordinate waits for its pair
    coord[0] = coord[len - 1];
  }
}

int64_t Rng::below(int64_t n) {
  COMDML_CHECK(n > 0);
  std::uniform_int_distribution<int64_t> d(0, n - 1);
  return d(engine_);
}

float Rng::laplace(float scale) {
  COMDML_CHECK(scale > 0.0f);
  // Inverse-CDF sampling: u in (-1/2, 1/2), x = -scale*sgn(u)*ln(1-2|u|).
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  const double u = d(engine_);
  const double sgn = u < 0 ? -1.0 : 1.0;
  return static_cast<float>(-scale * sgn *
                            std::log(1.0 - 2.0 * std::fabs(u)));
}

std::vector<double> Rng::dirichlet(double alpha, size_t k) {
  COMDML_CHECK(alpha > 0.0 && k > 0);
  std::gamma_distribution<double> g(alpha, 1.0);
  std::vector<double> out(k);
  double total = 0.0;
  for (double& v : out) {
    v = g(engine_);
    total += v;
  }
  if (total <= 0.0) {  // pathological all-zero draw; fall back to uniform
    for (double& v : out) v = 1.0 / static_cast<double>(k);
    return out;
  }
  for (double& v : out) v /= total;
  return out;
}

void Rng::shuffle(std::vector<int64_t>& v) {
  for (size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(below(static_cast<int64_t>(i)));
    std::swap(v[i - 1], v[j]);
  }
}

Tensor Rng::normal_tensor(Shape shape, float mean, float stddev) {
  Tensor out(std::move(shape));
  fill_normal(out.flat(), mean, stddev);
  return out;
}

Tensor Rng::uniform_tensor(Shape shape, float lo, float hi) {
  Tensor out(std::move(shape));
  for (float& v : out.flat()) v = uniform(lo, hi);
  return out;
}

Tensor Rng::he_normal(Shape shape, int64_t fan_in) {
  COMDML_CHECK(fan_in > 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return normal_tensor(std::move(shape), 0.0f, stddev);
}

Rng Rng::fork() {
  return Rng(engine_());
}

std::string Rng::state() const {
  std::string s(kStateBytes, '\0');
  std::memcpy(s.data(), engine_.words.data(), Mt19937_64::kWords * 8);
  std::memcpy(s.data() + Mt19937_64::kWords * 8, &engine_.index, 8);
  return s;
}

void Rng::set_state(std::string_view s) {
  if (s.size() != kStateBytes)
    throw RngStateError("rng state is " + std::to_string(s.size()) +
                        " bytes, expected " + std::to_string(kStateBytes));
  uint64_t index = 0;
  std::memcpy(&index, s.data() + Mt19937_64::kWords * 8, 8);
  if (index > Mt19937_64::kWords)
    throw RngStateError("rng state position " + std::to_string(index) +
                        " is past the " +
                        std::to_string(Mt19937_64::kWords) + "-word state");
  std::memcpy(engine_.words.data(), s.data(), Mt19937_64::kWords * 8);
  engine_.index = index;
}

}  // namespace comdml::tensor
