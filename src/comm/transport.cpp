#include "comm/transport.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace comdml::comm {

namespace {

// Distinct streams per fault kind, mixed into the decision hash.
constexpr uint64_t kSaltDrop = 0xd6e8feb86659fd93ull;
constexpr uint64_t kSaltDelay = 0xa0761d6478bd642full;
constexpr uint64_t kSaltDelayDraw = 0xe7037ed1a0b428dbull;
constexpr uint64_t kSaltDuplicate = 0x8ebc6af09c88c6e3ull;
constexpr uint64_t kSaltCorrupt = 0x589965cc75374cc3ull;
constexpr uint64_t kSaltReorder = 0x1d8e4e27c47d124full;

/// splitmix64 finalizer: the avalanche stage that turns structured
/// (seed, step, edge, seq) tuples into uniform bits.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t message_hash(uint64_t seed, int64_t step, int64_t src, int64_t dst,
                      int64_t seq, uint64_t salt) {
  uint64_t h = mix64(seed ^ salt);
  h = mix64(h ^ static_cast<uint64_t>(step));
  h = mix64(h ^ (static_cast<uint64_t>(src) << 32) ^
            static_cast<uint64_t>(dst));
  return mix64(h ^ static_cast<uint64_t>(seq));
}

/// Top 53 bits as a uniform double in [0, 1).
double hash_uniform(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Word-wise FNV-1a over a payload's 64-bit words: four independent lanes
/// (word i feeds lane i % 4) so the multiplies pipeline instead of forming
/// one 8-per-word dependency chain as byte-wise FNV-1a does, folded into
/// one hash with the word count at the end. Each lane step (h ^ w) * prime
/// is a bijection of h for a fixed w and of w for a fixed h (the prime is
/// odd), and so is each fold step, so changing any single word always
/// changes the result.
uint64_t payload_checksum(const double* data, size_t words) {
  constexpr uint64_t kBasis = 1469598103934665603ull;  // FNV offset basis
  constexpr uint64_t kPrime = 1099511628211ull;        // FNV prime
  uint64_t w[4] = {};
  uint64_t h0 = kBasis, h1 = kBasis ^ 1, h2 = kBasis ^ 2, h3 = kBasis ^ 3;
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    std::memcpy(w, data + i, sizeof(w));
    h0 = (h0 ^ w[0]) * kPrime;
    h1 = (h1 ^ w[1]) * kPrime;
    h2 = (h2 ^ w[2]) * kPrime;
    h3 = (h3 ^ w[3]) * kPrime;
  }
  const size_t tail = words - i;  // 0..3 words, lanes 0..tail-1
  if (tail > 0) std::memcpy(w, data + i, tail * sizeof(double));
  if (tail > 0) h0 = (h0 ^ w[0]) * kPrime;
  if (tail > 1) h1 = (h1 ^ w[1]) * kPrime;
  if (tail > 2) h2 = (h2 ^ w[2]) * kPrime;
  uint64_t h = kBasis ^ static_cast<uint64_t>(words);
  for (const uint64_t lane : {h0, h1, h2, h3}) h = (h ^ lane) * kPrime;
  return h;
}

}  // namespace

// ---- LinkGrid ---------------------------------------------------------------

LinkGrid::LinkGrid(int64_t n, LinkModel fill)
    : n_(n), links_(static_cast<size_t>(n * n), fill) {
  COMDML_CHECK(n > 0);
  for (int64_t i = 0; i < n_; ++i)
    link(i, i) = LinkModel{0.0, fill.latency_sec};  // no self-links
}

LinkGrid LinkGrid::uniform(int64_t endpoints, double mbps,
                           double latency_sec) {
  COMDML_REQUIRE(mbps > 0.0, "unusable uniform link: " << mbps << " Mbps");
  COMDML_CHECK(latency_sec >= 0.0);
  return LinkGrid(endpoints, LinkModel{mbps, latency_sec});
}

LinkGrid LinkGrid::from_topology(const sim::Topology& topology,
                                 double latency_sec) {
  COMDML_CHECK(latency_sec >= 0.0);
  LinkGrid grid(topology.agents(), LinkModel{0.0, latency_sec});
  for (int64_t i = 0; i < topology.agents(); ++i)
    for (int64_t j = 0; j < topology.agents(); ++j)
      if (i != j)
        grid.link(i, j) =
            LinkModel{topology.bandwidth_mbps(i, j), latency_sec};
  return grid;
}

LinkGrid LinkGrid::star(const std::vector<double>& agent_mbps,
                        double latency_sec) {
  COMDML_CHECK(!agent_mbps.empty());
  COMDML_CHECK(latency_sec >= 0.0);
  const auto k = static_cast<int64_t>(agent_mbps.size());
  LinkGrid grid(k + 1, LinkModel{0.0, latency_sec});
  for (int64_t i = 0; i < k; ++i) {
    const LinkModel l{agent_mbps[static_cast<size_t>(i)], latency_sec};
    grid.link(i, k) = l;
    grid.link(k, i) = l;
  }
  return grid;
}

const LinkModel& LinkGrid::link(int64_t src, int64_t dst) const {
  COMDML_CHECK(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  return links_[static_cast<size_t>(src * n_ + dst)];
}

LinkModel& LinkGrid::link(int64_t src, int64_t dst) {
  COMDML_CHECK(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  return links_[static_cast<size_t>(src * n_ + dst)];
}

// ---- codecs -----------------------------------------------------------------

namespace {

// The int8 round trip's two passes, scalar (the reference) and AVX2, and
// their error-feedback twins (fold_max folds the residual in before taking
// the abs-max; round_trip_residual also writes the fresh residual). The
// AVX2 passes reproduce the scalar ones bit for bit, NaN, Inf and signed
// zeros included: abs-max is max_pd(|x|, acc), which keeps acc on a NaN
// exactly as std::max(acc, |x|) does; round_pd to nearest is nearbyint
// under the default rounding mode; and min_pd(127, max_pd(-127, q)) puts
// each constant first so a NaN q passes through as it does std::clamp.
// The round trip reads `src` and writes `dst`, which may be the same
// buffer (each element is read before it is written).

double max_abs_scalar(const double* data, int64_t elems) {
  double max_abs = 0.0;
  for (int64_t i = 0; i < elems; ++i)
    max_abs = std::max(max_abs, std::fabs(data[i]));
  return max_abs;
}

void round_trip_scalar(const double* src, double* dst, int64_t elems,
                       double scale, double inv_scale) {
  for (int64_t i = 0; i < elems; ++i) {
    const double q = std::nearbyint(src[i] * inv_scale);
    dst[i] = scale * std::clamp(q, -127.0, 127.0);
  }
}

double fold_max_scalar(double* data, const double* residual,
                       int64_t elems) {
  double max_abs = 0.0;
  for (int64_t i = 0; i < elems; ++i) {
    data[i] += residual[i];
    max_abs = std::max(max_abs, std::fabs(data[i]));
  }
  return max_abs;
}

void round_trip_residual_scalar(double* data, double* residual,
                                int64_t elems, double scale,
                                double inv_scale) {
  for (int64_t i = 0; i < elems; ++i) {
    const double x = data[i];
    const double q = std::nearbyint(x * inv_scale);
    data[i] = scale * std::clamp(q, -127.0, 127.0);
    residual[i] = x - data[i];
  }
}

#if COMDML_SIMD_X86
/// The max over every lane of two abs-max accumulators.
__attribute__((target("avx2"))) double reduce_max_abs(__m256d acc0,
                                                      __m256d acc1) {
  // The accumulators never hold a NaN, so the lane order is immaterial.
  alignas(32) double lanes[4] = {};
  _mm256_store_pd(lanes, _mm256_max_pd(acc0, acc1));
  double max_abs = 0.0;
  for (const double v : lanes) max_abs = std::max(max_abs, v);
  return max_abs;
}

__attribute__((target("avx2"))) double max_abs_avx2(const double* data,
                                                    int64_t elems) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= elems; i += 8) {
    acc0 = _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_loadu_pd(data + i)),
                         acc0);
    acc1 = _mm256_max_pd(
        _mm256_andnot_pd(sign, _mm256_loadu_pd(data + i + 4)), acc1);
  }
  return std::max(reduce_max_abs(acc0, acc1),
                  max_abs_scalar(data + i, elems - i));
}

__attribute__((target("avx2"))) double fold_max_avx2(double* data,
                                                     const double* residual,
                                                     int64_t elems) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= elems; i += 8) {
    const __m256d x0 = _mm256_add_pd(_mm256_loadu_pd(data + i),
                                     _mm256_loadu_pd(residual + i));
    const __m256d x1 = _mm256_add_pd(_mm256_loadu_pd(data + i + 4),
                                     _mm256_loadu_pd(residual + i + 4));
    _mm256_storeu_pd(data + i, x0);
    _mm256_storeu_pd(data + i + 4, x1);
    acc0 = _mm256_max_pd(_mm256_andnot_pd(sign, x0), acc0);
    acc1 = _mm256_max_pd(_mm256_andnot_pd(sign, x1), acc1);
  }
  return std::max(reduce_max_abs(acc0, acc1),
                  fold_max_scalar(data + i, residual + i, elems - i));
}

__attribute__((target("avx2"))) void round_trip_avx2(const double* src,
                                                     double* dst,
                                                     int64_t elems,
                                                     double scale,
                                                     double inv_scale) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  const __m256d lo = _mm256_set1_pd(-127.0);
  const __m256d hi = _mm256_set1_pd(127.0);
  int64_t i = 0;
  for (; i + 4 <= elems; i += 4) {
    const __m256d q =
        _mm256_round_pd(_mm256_mul_pd(_mm256_loadu_pd(src + i), vinv),
                        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d c = _mm256_min_pd(hi, _mm256_max_pd(lo, q));
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(vscale, c));
  }
  round_trip_scalar(src + i, dst + i, elems - i, scale, inv_scale);
}

__attribute__((target("avx2"))) void round_trip_residual_avx2(
    double* data, double* residual, int64_t elems, double scale,
    double inv_scale) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  const __m256d lo = _mm256_set1_pd(-127.0);
  const __m256d hi = _mm256_set1_pd(127.0);
  int64_t i = 0;
  for (; i + 4 <= elems; i += 4) {
    const __m256d x = _mm256_loadu_pd(data + i);
    const __m256d q = _mm256_round_pd(
        _mm256_mul_pd(x, vinv), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d v =
        _mm256_mul_pd(vscale, _mm256_min_pd(hi, _mm256_max_pd(lo, q)));
    _mm256_storeu_pd(data + i, v);
    _mm256_storeu_pd(residual + i, _mm256_sub_pd(x, v));
  }
  round_trip_residual_scalar(data + i, residual + i, elems - i, scale,
                             inv_scale);
}
#endif  // COMDML_SIMD_X86

struct QuantizeKernels {
  double (*max_abs)(const double*, int64_t);
  void (*round_trip)(const double*, double*, int64_t, double, double);
  double (*fold_max)(double*, const double*, int64_t);
  void (*round_trip_residual)(double*, double*, int64_t, double, double);
};

QuantizeKernels resolve_quantize_kernels() {
#if COMDML_SIMD_X86
  if (__builtin_cpu_supports("avx2"))
    return {max_abs_avx2, round_trip_avx2, fold_max_avx2,
            round_trip_residual_avx2};
#endif
  return {max_abs_scalar, round_trip_scalar, fold_max_scalar,
          round_trip_residual_scalar};
}

const QuantizeKernels& quantize_kernels() {
  static const QuantizeKernels kernels = resolve_quantize_kernels();
  return kernels;
}

/// The wire-precision (fp32 header) scale max_abs / 127 of a payload, or 0
/// when the payload ships unquantized. An all-zero payload is exact.
/// Degenerate dynamic ranges cannot ride the fp32 scale header: an Inf/NaN
/// element would turn every finite element into NaN (inv_scale = 0,
/// inf * 0), and a sub-fp32-normal range would map zeros through 0 * inf.
/// Such payloads ship unquantized (the wire charge is data-independent
/// either way) instead of poisoning the bucket — and, under error
/// feedback, the residual — with NaNs.
float wire_scale(double max_abs) {
  const float scale = static_cast<float>(max_abs / 127.0);
  if (max_abs == 0.0 || !std::isfinite(scale) ||
      scale < std::numeric_limits<float>::min())
    return 0.0f;
  return scale;
}

/// Symmetric int8 round trip of `src` into `dst` (may alias): scale =
/// max|v|/127, q = round(v/scale) clamped to [-127, 127], v' = scale * q.
/// The scale travels as fp32 (the 4-byte header), so dequantization uses
/// the wire-precision scale.
void quantize_into(const double* src, double* dst, int64_t elems) {
  if (elems == 0) return;
  const QuantizeKernels& kernels = quantize_kernels();
  const float scale = wire_scale(kernels.max_abs(src, elems));
  if (scale == 0.0f) {
    if (dst != src)
      std::memcpy(dst, src, static_cast<size_t>(elems) * sizeof(double));
    return;
  }
  kernels.round_trip(src, dst, elems, static_cast<double>(scale),
                     1.0 / static_cast<double>(scale));
}

class IdentityCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp32"; }
  [[nodiscard]] int64_t wire_bytes(int64_t elems,
                                   const double* /*data*/) const override {
    return fp32_wire_bytes(elems);
  }
};

}  // namespace

int64_t Codec::encode_copy(const double* src, double* dst,
                           int64_t elems) const {
  std::copy(src, src + elems, dst);
  return encode(dst, elems);
}

void Codec::error_feedback(double* data, double* residual,
                           int64_t elems) const {
  for (int64_t i = 0; i < elems; ++i) {
    data[i] += residual[i];
    residual[i] = data[i];
  }
  transform(data, elems);
  for (int64_t i = 0; i < elems; ++i) residual[i] -= data[i];
}

const Codec& identity_codec() {
  static const IdentityCodec codec;
  return codec;
}

int64_t QuantizingCodec::quantized_wire_bytes(int64_t elems) {
  COMDML_CHECK(elems >= 0);
  if (elems == 0) return 0;
  return static_cast<int64_t>(sizeof(float)) + elems;  // scale + 1 B/elem
}

int64_t QuantizingCodec::wire_bytes(int64_t elems,
                                    const double* /*data*/) const {
  // The wire format is dense, so the byte count never depends on the
  // payload — a timing-only estimate and an executed message charge the
  // same bytes by construction.
  return quantized_wire_bytes(elems);
}

void QuantizingCodec::transform(double* data, int64_t elems) const {
  quantize_into(data, data, elems);
}

int64_t QuantizingCodec::encode_copy(const double* src, double* dst,
                                     int64_t elems) const {
  quantize_into(src, dst, elems);
  return quantized_wire_bytes(elems);
}

void QuantizingCodec::error_feedback(double* data, double* residual,
                                     int64_t elems) const {
  if (elems == 0) return;
  const QuantizeKernels& kernels = quantize_kernels();
  const float scale = wire_scale(kernels.fold_max(data, residual, elems));
  if (scale == 0.0f) {
    // Shipped unquantized: the fresh error is x - x.
    for (int64_t i = 0; i < elems; ++i) residual[i] = data[i] - data[i];
    return;
  }
  kernels.round_trip_residual(data, residual, elems,
                              static_cast<double>(scale),
                              1.0 / static_cast<double>(scale));
}

const Codec& quantized_codec() {
  static const QuantizingCodec codec;
  return codec;
}

// ---- TransportStats ---------------------------------------------------------

int64_t TransportStats::max_bytes_sent() const {
  int64_t best = 0;
  for (const int64_t b : bytes_sent) best = std::max(best, b);
  return best;
}

double TransportStats::mean_bytes_sent() const {
  if (bytes_sent.empty()) return 0.0;
  double total = 0.0;
  for (const int64_t b : bytes_sent) total += static_cast<double>(b);
  return total / static_cast<double>(bytes_sent.size());
}

int64_t TransportStats::dropped_on(int64_t src, int64_t dst) const {
  const auto n = static_cast<int64_t>(bytes_sent.size());
  COMDML_CHECK(src >= 0 && src < n && dst >= 0 && dst < n);
  return dropped_per_edge[static_cast<size_t>(src * n + dst)];
}

TransportStats merge_transport_stats(const std::vector<TransportStats>& parts) {
  COMDML_CHECK(!parts.empty());
  const size_t n = parts.front().bytes_sent.size();
  TransportStats merged;
  merged.bytes_sent.assign(n, 0);
  merged.bytes_received.assign(n, 0);
  merged.send_seconds.assign(n, 0.0);
  merged.recv_seconds.assign(n, 0.0);
  merged.dropped_per_edge.assign(n * n, 0);
  size_t rows = 0;
  for (const auto& p : parts) {
    COMDML_REQUIRE(p.bytes_sent.size() == n,
                   "merge_transport_stats over mismatched endpoint counts: "
                       << p.bytes_sent.size() << " vs " << n);
    merged.messages += p.messages;
    merged.dropped_messages += p.dropped_messages;
    merged.total_wire_bytes += p.total_wire_bytes;
    merged.retransmit_messages += p.retransmit_messages;
    merged.retransmit_wire_bytes += p.retransmit_wire_bytes;
    merged.duplicated_messages += p.duplicated_messages;
    merged.duplicated_wire_bytes += p.duplicated_wire_bytes;
    merged.corrupt_messages += p.corrupt_messages;
    merged.delayed_messages += p.delayed_messages;
    merged.reordered_messages += p.reordered_messages;
    merged.backoff_seconds += p.backoff_seconds;
    for (size_t i = 0; i < n; ++i) {
      merged.bytes_sent[i] += p.bytes_sent[i];
      merged.bytes_received[i] += p.bytes_received[i];
      merged.send_seconds[i] += p.send_seconds[i];
      merged.recv_seconds[i] += p.recv_seconds[i];
    }
    for (size_t i = 0; i < n * n; ++i)
      merged.dropped_per_edge[i] += p.dropped_per_edge[i];
    rows = std::max(rows, p.step_spans.size());
  }
  // Positional step merge: each process drove the same lockstep schedule,
  // so row i of every history is global step i. Within a step, messages
  // run concurrently — the merged span is the max — while the counts add.
  merged.step_spans.assign(rows, 0.0);
  merged.step_message_counts.assign(rows, 0);
  for (const auto& p : parts)
    for (size_t i = 0; i < p.step_spans.size(); ++i) {
      merged.step_spans[i] = std::max(merged.step_spans[i], p.step_spans[i]);
      merged.step_message_counts[i] += p.step_message_counts[i];
    }
  merged.seconds = merged.backoff_seconds;
  for (size_t i = 0; i < rows; ++i) {
    if (merged.step_message_counts[i] == 0) continue;
    ++merged.steps;
    merged.seconds += merged.step_spans[i];
  }
  return merged;
}

// ---- Message ----------------------------------------------------------------

bool Message::intact() const {
  if (corrupted) return false;
  if (!has_payload()) return true;
  return checksum == payload_checksum(payload.data(), payload.size());
}

// ---- Transport --------------------------------------------------------------

Transport::Transport(LinkGrid grid, const Codec* codec, FaultPlan faults)
    : grid_(std::move(grid)),
      codec_(codec != nullptr ? codec : &identity_codec()),
      faults_(std::move(faults)),
      fault_rng_(faults_.seed),
      mailboxes_(static_cast<size_t>(grid_.endpoints())) {
  COMDML_CHECK(faults_.drop_prob >= 0.0 && faults_.drop_prob <= 1.0);
  const auto n = static_cast<size_t>(grid_.endpoints());
  for (const auto& f : faults_.endpoint_failures) {
    COMDML_REQUIRE(f.endpoint >= 0 && f.endpoint < grid_.endpoints(),
                   "endpoint failure targets endpoint " << f.endpoint
                                                        << " of " << n);
    COMDML_CHECK(f.after_steps >= 0);
  }
  for (const auto& mf : faults_.message_faults) {
    COMDML_CHECK(mf.src >= -1 && mf.src < grid_.endpoints());
    COMDML_CHECK(mf.dst >= -1 && mf.dst < grid_.endpoints());
    COMDML_CHECK(mf.first_step >= 0);
    COMDML_CHECK(mf.last_step >= -1);
    COMDML_CHECK(mf.delay_steps_max >= 1);
    for (const double p : {mf.drop_prob, mf.delay_prob, mf.duplicate_prob,
                           mf.corrupt_prob, mf.reorder_prob})
      COMDML_CHECK(p >= 0.0 && p <= 1.0);
  }
  manual_dead_.assign(n, 0);
  next_seq_.assign(n * n, 0);
  free_payloads_.reserve(payload_pool_bound());
  stats_.bytes_sent.assign(n, 0);
  stats_.bytes_received.assign(n, 0);
  stats_.send_seconds.assign(n, 0.0);
  stats_.recv_seconds.assign(n, 0.0);
  stats_.dropped_per_edge.assign(n * n, 0);
}

bool Transport::dead_locked(int64_t endpoint) const {
  if (manual_dead_[static_cast<size_t>(endpoint)] != 0) return true;
  for (const auto& f : faults_.endpoint_failures)
    if (f.endpoint == endpoint && stats_.steps >= f.after_steps) return true;
  return false;
}

const FaultPlan::MessageFault* Transport::message_fault_locked(
    int64_t src, int64_t dst) const {
  for (const auto& mf : faults_.message_faults) {
    if (mf.src != -1 && mf.src != src) continue;
    if (mf.dst != -1 && mf.dst != dst) continue;
    if (stats_.steps < mf.first_step) continue;
    if (mf.last_step != -1 && stats_.steps > mf.last_step) continue;
    return &mf;
  }
  return nullptr;
}

bool Transport::fault_fires_locked(double prob, int64_t src, int64_t dst,
                                   int64_t seq, uint64_t salt) const {
  if (prob <= 0.0) return false;
  const uint64_t h =
      message_hash(faults_.seed, stats_.steps, src, dst, seq, salt);
  return hash_uniform(h) < prob;
}

void Transport::fail_endpoint(int64_t endpoint) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  manual_dead_[static_cast<size_t>(endpoint)] = 1;
}

void Transport::revive_endpoint(int64_t endpoint) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  manual_dead_[static_cast<size_t>(endpoint)] = 0;
  auto& fs = faults_.endpoint_failures;
  fs.erase(std::remove_if(fs.begin(), fs.end(),
                          [endpoint](const FaultPlan::EndpointFailure& f) {
                            return f.endpoint == endpoint;
                          }),
           fs.end());
}

void Transport::schedule_endpoint_failure(int64_t endpoint,
                                          int64_t after_steps) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  COMDML_CHECK(after_steps >= 0);
  std::lock_guard<std::mutex> guard(mutex_);
  faults_.endpoint_failures.push_back({endpoint, after_steps});
}

void Transport::clear_endpoint_failures() {
  std::lock_guard<std::mutex> guard(mutex_);
  std::fill(manual_dead_.begin(), manual_dead_.end(), 0);
  faults_.endpoint_failures.clear();
}

bool Transport::endpoint_alive(int64_t endpoint) const {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  return !dead_locked(endpoint);
}

std::vector<int64_t> Transport::live_endpoints() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<int64_t> out;
  for (int64_t e = 0; e < endpoints(); ++e)
    if (!dead_locked(e)) out.push_back(e);
  return out;
}

bool Transport::has_endpoint_faults() const {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!faults_.endpoint_failures.empty()) return true;
  for (const char d : manual_dead_)
    if (d != 0) return true;
  return false;
}

bool Transport::has_message_faults() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return faults_.drop_prob > 0.0 || !faults_.message_faults.empty();
}

void Transport::clear_pending() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& box : mailboxes_) box.clear();
}

std::vector<int64_t> Transport::neighbors(int64_t i) const {
  COMDML_CHECK(i >= 0 && i < endpoints());
  std::vector<int64_t> out;
  for (int64_t j = 0; j < endpoints(); ++j)
    if (j != i && linked(i, j)) out.push_back(j);
  return out;
}

int64_t Transport::send(int64_t src, int64_t dst, int64_t elems,
                        const double* data) {
  return send(src, dst, elems, data, SendOptions{});
}

int64_t Transport::send(int64_t src, int64_t dst, int64_t elems,
                        const double* data, const SendOptions& opts) {
  COMDML_CHECK(elems >= 0);
  COMDML_CHECK(src != dst);
  const LinkModel& link = grid_.link(src, dst);
  COMDML_REQUIRE(link.usable(),
                 "send over unusable link " << src << " -> " << dst);
  // Payload-moving sends encode into a recycled buffer (copy, measure and
  // lossy round trip in one codec pass) and checksum it, both before the
  // lock is taken; timing-only sends just measure.
  std::vector<double> payload;
  int64_t wire = 0;
  uint64_t checksum = 0;
  if (delivers_payload() && data != nullptr && elems > 0) {
    payload = draw_payload(elems);
    wire = codec_->encode_copy(data, payload.data(), elems);
    checksum = payload_checksum(payload.data(), payload.size());
  } else {
    wire = codec_->wire_bytes(elems, data);
  }
  const double span = transfer_seconds(wire, link.mbps, link.latency_sec);
  const bool local = local_endpoint(dst);

  // Remote frames are shipped after the lock is released: wire writes must
  // not serialize local accounting, and forward_remote may block.
  std::vector<RemoteFrame> outbound;
  int64_t seq = -1;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    // Dead endpoints fail fast *before* accounting: a dead sender cannot
    // occupy its link, and a send to a dead receiver is detected by the
    // (modeled) connection teardown. Both transport flavors see the same
    // step counter, so they raise at the same schedule point.
    if (dead_locked(src))
      throw EndpointDownError(src, "send from dead endpoint " +
                                       std::to_string(src));
    if (dead_locked(dst))
      throw EndpointDownError(dst, "send to dead endpoint " +
                                       std::to_string(dst));
    const size_t edge = static_cast<size_t>(src * endpoints() + dst);
    seq = opts.seq >= 0 ? opts.seq : next_seq_[edge]++;
    ++stats_.messages;
    ++step_messages_;
    stats_.total_wire_bytes += wire;
    stats_.bytes_sent[static_cast<size_t>(src)] += wire;
    stats_.send_seconds[static_cast<size_t>(src)] += span;
    step_span_ = std::max(step_span_, span);
    if (opts.retransmit) {
      ++stats_.retransmit_messages;
      stats_.retransmit_wire_bytes += wire;
    }

    // Fault decisions. The global drop stream is drawn first (keeps the
    // legacy per-transport RNG sequence stable); everything else is a pure
    // hash of (seed, step, edge, seq), identical across transport flavors.
    const bool rng_dropped =
        faults_.drop_prob > 0.0 &&
        static_cast<double>(fault_rng_.uniform()) < faults_.drop_prob;
    const FaultPlan::MessageFault* mf = message_fault_locked(src, dst);
    const bool dropped =
        rng_dropped ||
        (mf != nullptr &&
         fault_fires_locked(mf->drop_prob, src, dst, seq, kSaltDrop));
    // Does a later NACK need the pre-codec payload? (unlocked read of the
    // fault config — it's immutable after construction for message faults)
    const bool parkable =
        !local && data != nullptr && elems > 0 &&
        (faults_.drop_prob > 0.0 || !faults_.message_faults.empty());
    if (dropped) {
      ++stats_.dropped_messages;
      ++stats_.dropped_per_edge[edge];
      if (local || !parkable)
        return seq;  // the sender's link was busy, but nothing arrives
      // Remote drop: forward a parked-only frame so the backend can serve
      // a retransmission NACK from the original payload.
    } else if (local) {
      stats_.bytes_received[static_cast<size_t>(dst)] += wire;
      stats_.recv_seconds[static_cast<size_t>(dst)] += span;
    }

    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.elems = elems;
    msg.wire_bytes = wire;
    msg.seq = seq;
    msg.retransmit = opts.retransmit;
    msg.checksum = checksum;
    msg.payload = std::move(payload);

    bool duplicate = false;
    bool reorder = false;
    if (!dropped && mf != nullptr) {
      if (elems > 0 &&
          fault_fires_locked(mf->corrupt_prob, src, dst, seq, kSaltCorrupt)) {
        // Flip one payload bit so the checksum catches it; timing-only
        // messages carry the flag alone, keeping Sim/InProc decisions equal.
        msg.corrupted = true;
        if (msg.has_payload()) {
          uint64_t bits;
          std::memcpy(&bits, msg.payload.data(), sizeof(bits));
          bits ^= 1ull;
          std::memcpy(msg.payload.data(), &bits, sizeof(bits));
        }
        ++stats_.corrupt_messages;
      }
      if (fault_fires_locked(mf->delay_prob, src, dst, seq, kSaltDelay)) {
        // Normal delivery is visible once this step closes (steps + 1); a
        // delay adds 1..delay_steps_max more closed steps on top.
        const uint64_t draw = message_hash(faults_.seed, stats_.steps, src,
                                           dst, seq, kSaltDelayDraw);
        const int64_t extra =
            1 + static_cast<int64_t>(
                    draw % static_cast<uint64_t>(mf->delay_steps_max));
        msg.deliver_after_step = stats_.steps + 1 + extra;
        ++stats_.delayed_messages;
      }
      duplicate = fault_fires_locked(mf->duplicate_prob, src, dst, seq,
                                     kSaltDuplicate);
      reorder =
          fault_fires_locked(mf->reorder_prob, src, dst, seq, kSaltReorder);
    }

    if (!dropped && duplicate) {
      // The copy really crossed the wire: charge its bytes everywhere, but
      // tagged as duplicated so goodput accounting can subtract them.
      // Remote destinations charge bytes_received on arrival instead.
      ++stats_.duplicated_messages;
      stats_.duplicated_wire_bytes += wire;
      stats_.total_wire_bytes += wire;
      stats_.bytes_sent[static_cast<size_t>(src)] += wire;
      if (local) stats_.bytes_received[static_cast<size_t>(dst)] += wire;
    }
    if (local) {
      auto& box = mailboxes_[static_cast<size_t>(dst)];
      Message copy;
      if (duplicate) copy = msg;
      if (reorder) {
        ++stats_.reordered_messages;
        box.push_front(std::move(msg));
      } else {
        box.push_back(std::move(msg));
      }
      if (duplicate) box.push_back(std::move(copy));
      return seq;
    }
    if (reorder) ++stats_.reordered_messages;

    RemoteFrame frame;
    frame.span = span;
    frame.reorder = reorder;
    frame.dropped = dropped;
    if (parkable) frame.original.assign(data, data + elems);
    if (duplicate) {
      RemoteFrame copy;
      copy.msg = msg;
      copy.span = span;
      copy.dup_copy = true;
      frame.msg = std::move(msg);
      outbound.push_back(std::move(frame));
      outbound.push_back(std::move(copy));
    } else {
      frame.msg = std::move(msg);
      outbound.push_back(std::move(frame));
    }
  }
  for (auto& frame : outbound) forward_remote(std::move(frame));
  return seq;
}

void Transport::forward_remote(RemoteFrame&& frame) {
  COMDML_REQUIRE(false, "in-process transport asked to forward "
                            << frame.msg.src << " -> " << frame.msg.dst
                            << " to a remote process (local_endpoint "
                               "override without forward_remote)");
}

void Transport::inject_remote(RemoteFrame&& frame) {
  const int64_t dst = frame.msg.dst;
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  // The receiving half of the accounting send() skipped for a remote
  // destination. A duplicate copy's bytes crossed the wire but its span
  // does not advance the clock (same split as the in-process path).
  stats_.bytes_received[static_cast<size_t>(dst)] += frame.msg.wire_bytes;
  if (!frame.dup_copy)
    stats_.recv_seconds[static_cast<size_t>(dst)] += frame.span;
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  if (frame.reorder) {
    box.push_front(std::move(frame.msg));
  } else {
    box.push_back(std::move(frame.msg));
  }
}

bool Transport::nack(int64_t /*src*/, int64_t /*dst*/,
                     int64_t /*last_delivered_seq*/) {
  return false;  // no remote senders in-process; the caller retransmits
}

std::vector<double> Transport::draw_payload(int64_t elems) {
  const auto n = static_cast<size_t>(elems);
  std::vector<double> buffer;
  {
    std::lock_guard<std::mutex> guard(free_mutex_);
    if (!free_payloads_.empty()) {
      auto pick = free_payloads_.end() - 1;
      for (auto it = free_payloads_.begin(); it != free_payloads_.end(); ++it)
        if (it->size() >= n) {
          pick = it;
          break;
        }
      buffer = std::move(*pick);
      if (pick != free_payloads_.end() - 1)
        *pick = std::move(free_payloads_.back());
      free_payloads_.pop_back();
    }
  }
  buffer.resize(n);
  return buffer;
}

void Transport::recycle(std::vector<double>&& buffer) {
  if (buffer.capacity() == 0) return;
  std::vector<double> spill;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> guard(free_mutex_);
    if (free_payloads_.size() < payload_pool_bound())
      free_payloads_.push_back(std::move(buffer));
    else
      spill = std::move(buffer);
  }
}

size_t Transport::pooled_payloads() const {
  std::lock_guard<std::mutex> guard(free_mutex_);
  return free_payloads_.size();
}

Message Transport::recv(int64_t dst, int64_t src) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  if (dead_locked(dst))
    throw EndpointDownError(dst, "recv at dead endpoint " +
                                     std::to_string(dst));
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (it->src != src || !mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  // Nothing delivered: a dead peer is a typed, recoverable condition (the
  // message will never arrive); anything else is the usual schedule bug /
  // message-loss failure.
  if (dead_locked(src))
    throw EndpointDownError(src, "recv from dead endpoint " +
                                     std::to_string(src));
  COMDML_REQUIRE(false, "no in-flight message " << src << " -> " << dst
                                                << " (schedule bug, or a "
                                                   "dropped/delayed message "
                                                   "under fault injection)");
  return {};
}

std::optional<Message> Transport::try_recv_from(int64_t dst, int64_t src) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  COMDML_CHECK(src >= 0 && src < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  if (dead_locked(dst))
    throw EndpointDownError(dst, "recv at dead endpoint " +
                                     std::to_string(dst));
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (it->src != src || !mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  if (dead_locked(src))
    throw EndpointDownError(src, "recv from dead endpoint " +
                                     std::to_string(src));
  return std::nullopt;
}

std::optional<Message> Transport::try_recv(int64_t dst, int64_t src) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if ((src >= 0 && it->src != src) || !mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  return std::nullopt;
}

void Transport::charge_backoff(double seconds) {
  COMDML_CHECK(seconds >= 0.0);
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.seconds += seconds;
  stats_.backoff_seconds += seconds;
}

void Transport::end_step() {
  std::lock_guard<std::mutex> guard(mutex_);
  // The positional history records every closed step — a process whose
  // endpoints only receive during a step still appends a 0/0 row, which is
  // what keeps index i meaning "global step i" across the processes of a
  // multi-process run (merge_transport_stats folds rows positionally).
  stats_.step_spans.push_back(step_span_);
  stats_.step_message_counts.push_back(step_messages_);
  if (step_messages_ == 0) {
    step_span_ = 0.0;
    return;
  }
  ++stats_.steps;
  stats_.seconds += step_span_;
  step_span_ = 0.0;
  step_messages_ = 0;
}

void Transport::reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto n = static_cast<size_t>(grid_.endpoints());
  stats_ = TransportStats{};
  stats_.bytes_sent.assign(n, 0);
  stats_.bytes_received.assign(n, 0);
  stats_.send_seconds.assign(n, 0.0);
  stats_.recv_seconds.assign(n, 0.0);
  stats_.dropped_per_edge.assign(n * n, 0);
  step_span_ = 0.0;
  step_messages_ = 0;
  std::fill(next_seq_.begin(), next_seq_.end(), 0);
  for (auto& box : mailboxes_) box.clear();
}

}  // namespace comdml::comm
