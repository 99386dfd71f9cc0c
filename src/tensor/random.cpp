#include "tensor/random.hpp"

#include <cmath>
#include <cstring>

namespace comdml::tensor {

namespace {
constexpr size_t kShift = 156;  // MT19937-64's middle word offset m
constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpper = ~uint64_t{0} << 31;
constexpr uint64_t kLower = ~kUpper;

inline uint64_t mix(uint64_t hi, uint64_t lo, uint64_t far) {
  const uint64_t y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrix : 0);
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
  for (; k < kWords - kShift; ++k)
    words[k] = mix(words[k], words[k + 1], words[k + kShift]);
  for (; k < kWords - 1; ++k)
    words[k] = mix(words[k], words[k + 1], words[k + kShift - kWords]);
  words[kWords - 1] = mix(words[kWords - 1], words[0], words[kShift - 1]);
  index = 0;
}

float Rng::uniform(float lo, float hi) {
  COMDML_CHECK(lo < hi);
  std::uniform_real_distribution<float> d(lo, hi);
  return d(engine_);
}

float Rng::normal(float mean, float stddev) {
  std::normal_distribution<float> d(mean, stddev);
  return d(engine_);
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
  for (float& v : out.flat()) v = normal(mean, stddev);
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
