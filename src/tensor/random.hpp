// Deterministic random number generation for the whole library.
//
// Every stochastic component takes an explicit Rng (or seed); nothing reads
// global entropy, so all tests, examples and benches are reproducible.
//
// The engine and the float transforms behind uniform(), normal() and
// fill_normal() are in-tree. They draw exactly what libstdc++ 12's
// std::mt19937_64, std::uniform_real_distribution<float> and
// std::normal_distribution<float> (one fresh distribution per draw) drew,
// value for value, so every digest built on them no longer depends on the
// standard library's distribution code. below(), shuffle(), laplace() and
// dirichlet() still run the standard distributions on the in-tree engine.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>  // callers reach the standard distributions through here
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "tensor/tensor.hpp"

namespace comdml::tensor {

/// The 64-bit Mersenne Twister (MT19937-64). It draws exactly what
/// std::mt19937_64 draws for the same seed, so the standard distributions
/// built on it produce the same values; unlike the standard engine its
/// 312-word state is open, so it saves and restores as a byte copy.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kWords = 312;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index >= kWords) twist();
    return temper(words[index++]);
  }

  /// The output of one state word.
  static uint64_t temper(uint64_t z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Replaces all kWords state words by the next block and rewinds index
  /// to 0. Branch-free; 4 words per step on AVX2 hosts.
  void twist() noexcept;

  /// The next outputs temper words[index..], then the next twist's words;
  /// index lies in [0, kWords].
  std::array<uint64_t, kWords> words{};
  uint64_t index = kWords;
};

namespace detail {

/// static_cast<float>(z) without the sign-bit branch GCC emits for an
/// unsigned source: a word with the top bit set is halved with its lowest
/// bit kept as a sticky bit, converted as signed and doubled, which rounds
/// exactly as the direct conversion does.
inline float u64_to_float(uint64_t z) noexcept {
  const uint64_t s = z >> 63;
  const auto f = static_cast<float>(static_cast<int64_t>((z >> s) | (z & s)));
  return f * static_cast<float>(static_cast<int32_t>(s) + 1);
}

/// std::generate_canonical<float, 24> of one engine output, as libstdc++ 12
/// computes it: z / 2^64, with the rare round up to 1 clamped to the float
/// just below 1.
inline float canonical(uint64_t z) noexcept {
  return std::min(u64_to_float(z) * 0x1p-64f, 0x1.fffffep-1f);
}

}  // namespace detail

/// Rng::set_state got bytes that are not a saved engine state.
class RngStateError : public std::invalid_argument {
 public:
  explicit RngStateError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Seedable generator with tensor-filling helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform in [lo, hi).
  [[nodiscard]] float uniform(float lo = 0.0f, float hi = 1.0f);

  /// Standard normal times `stddev`, shifted by `mean`.
  [[nodiscard]] float normal(float mean = 0.0f, float stddev = 1.0f);

  /// out[i] = normal(mean, stddev) for i in order, drawn a state block at a
  /// time: the values and the engine state afterwards are exactly those of
  /// out.size() normal() calls.
  void fill_normal(std::span<float> out, float mean, float stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] int64_t below(int64_t n);

  /// Laplace(0, scale) sample (used by the DP mechanism).
  [[nodiscard]] float laplace(float scale);

  /// Sample from a Dirichlet distribution with symmetric concentration
  /// `alpha` over `k` categories.
  [[nodiscard]] std::vector<double> dirichlet(double alpha, size_t k);

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<int64_t>& v);

  [[nodiscard]] Tensor normal_tensor(Shape shape, float mean, float stddev);
  [[nodiscard]] Tensor uniform_tensor(Shape shape, float lo, float hi);

  /// Kaiming/He normal initialisation: stddev = sqrt(2 / fan_in).
  [[nodiscard]] Tensor he_normal(Shape shape, int64_t fan_in);

  /// Derive an independent child generator (stable split for per-agent RNGs).
  [[nodiscard]] Rng fork();

  /// Full engine state as kStateBytes bytes: the 312 state words, then the
  /// position of the next word to temper (0..312), each a native-endian
  /// u64 (same-machine format, like the checkpoint blobs that carry it).
  /// Resuming from it continues the exact draw sequence. No draw keeps
  /// anything between calls, so the engine is the only state worth saving.
  static constexpr size_t kStateBytes = (Mt19937_64::kWords + 1) * 8;
  [[nodiscard]] std::string state() const;
  /// Throws RngStateError for a wrong length or a position above 312.
  void set_state(std::string_view s);

 private:
  Mt19937_64 engine_;
};

}  // namespace comdml::tensor
