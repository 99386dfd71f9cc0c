// comm::Transport substrate tests: link grids, message accounting, the
// per-protocol parity guarantee (SimTransport predicted seconds/bytes ==
// InProcTransport executed traffic, one check per registered collective),
// degenerate topologies, codec hooks, fault injection, and thread safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/collective.hpp"
#include "comm/reliable.hpp"
#include "comm/transport.hpp"
#include "test_util.hpp"

namespace comdml::comm {
namespace {

using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using testing::codec_payloads;

std::vector<std::vector<double>> random_buffers(int64_t k, int64_t elems,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> bufs(static_cast<size_t>(k));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(elems));
    for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
  }
  return bufs;
}

std::vector<double*> pointers(std::vector<std::vector<double>>& bufs) {
  std::vector<double*> ptrs;
  ptrs.reserve(bufs.size());
  for (auto& b : bufs) ptrs.push_back(b.data());
  return ptrs;
}

std::vector<double> mean_of(const std::vector<std::vector<double>>& bufs) {
  std::vector<double> mean(bufs[0].size(), 0.0);
  for (const auto& b : bufs)
    for (size_t i = 0; i < b.size(); ++i) mean[i] += b[i];
  for (auto& v : mean) v /= static_cast<double>(bufs.size());
  return mean;
}

// ---- link grid -------------------------------------------------------------

TEST(LinkGrid, UniformHasNoSelfLinks) {
  const auto grid = LinkGrid::uniform(4, 100.0);
  EXPECT_EQ(grid.endpoints(), 4);
  EXPECT_FALSE(grid.link(2, 2).usable());
  EXPECT_TRUE(grid.link(0, 3).usable());
  EXPECT_DOUBLE_EQ(grid.link(0, 3).mbps, 100.0);
}

TEST(LinkGrid, FromTopologyRespectsAdjacency) {
  std::vector<ResourceProfile> profiles(4, {1.0, 50.0});
  const auto topo = Topology::ring(profiles);
  const auto grid = LinkGrid::from_topology(topo);
  EXPECT_TRUE(grid.link(0, 1).usable());
  EXPECT_FALSE(grid.link(0, 2).usable());  // not a ring edge
  EXPECT_DOUBLE_EQ(grid.link(0, 1).mbps, 50.0);
}

TEST(LinkGrid, StarLinksAgentsToServerOnly) {
  const auto grid = LinkGrid::star({10.0, 20.0});
  EXPECT_EQ(grid.endpoints(), 3);
  EXPECT_EQ(grid.server_rank(), 2);
  EXPECT_TRUE(grid.link(0, 2).usable());
  EXPECT_TRUE(grid.link(2, 1).usable());
  EXPECT_FALSE(grid.link(0, 1).usable());  // peers only talk via the server
}

// ---- transport accounting --------------------------------------------------

TEST(Transport, ZeroByteMessageStillPaysLatency) {
  SimTransport t(LinkGrid::uniform(2, 10.0, 0.005));
  t.send(0, 1, 0);
  t.end_step();
  EXPECT_EQ(t.stats().steps, 1);
  EXPECT_EQ(t.stats().total_wire_bytes, 0);
  EXPECT_DOUBLE_EQ(t.stats().seconds, 0.005);
}

TEST(Transport, StepSpanIsSlowestConcurrentMessage) {
  // 1 MB and 2 MB over 8 Mbps in one step: the span is the 2 MB transfer.
  SimTransport t(LinkGrid::uniform(3, 8.0, 0.0));
  t.send(0, 1, 250'000);  // 1 MB wire
  t.send(1, 2, 500'000);  // 2 MB wire
  t.end_step();
  EXPECT_DOUBLE_EQ(t.stats().seconds, 2.0);
  EXPECT_EQ(t.stats().bytes_sent[0], 1'000'000);
  EXPECT_EQ(t.stats().bytes_sent[1], 2'000'000);
  EXPECT_EQ(t.stats().bytes_received[2], 2'000'000);
}

TEST(Transport, SendOverUnusableLinkThrows) {
  std::vector<ResourceProfile> profiles(3, {1.0, 100.0});
  const auto topo = Topology::ring(profiles);
  InProcTransport t(LinkGrid::from_topology(topo));
  EXPECT_THROW(t.send(0, 0, 1), std::invalid_argument);
  // Ring of 3 is fully linked; build a 4-ring to get a missing chord.
  std::vector<ResourceProfile> p4(4, {1.0, 100.0});
  InProcTransport t4(LinkGrid::from_topology(Topology::ring(p4)));
  EXPECT_THROW(t4.send(0, 2, 1), std::invalid_argument);
}

TEST(Transport, MatchedRecvIsFifoPerSource) {
  InProcTransport t(LinkGrid::uniform(3, 100.0));
  const double a = 1.0, b = 2.0, c = 3.0;
  t.send(0, 2, 1, &a);
  t.send(1, 2, 1, &b);
  t.send(0, 2, 1, &c);
  EXPECT_DOUBLE_EQ(t.recv(2, 0).payload[0], 1.0);
  EXPECT_DOUBLE_EQ(t.recv(2, 1).payload[0], 2.0);
  EXPECT_DOUBLE_EQ(t.recv(2, 0).payload[0], 3.0);
  EXPECT_THROW((void)t.recv(2, 0), std::invalid_argument);
}

TEST(Transport, ChecksumCatchesAOneBitFlipInEveryWord) {
  // Lengths 1..9 cover every lane of the word-wise hash with and without a
  // partial final round; 1025 covers a long run ending in a one-word tail.
  // Each word is flipped in its low mantissa bit, mid-word, exponent and
  // sign bits, one flip at a time.
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  for (const size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 1025}) {
    std::vector<double> data(n);
    for (size_t i = 0; i < n; ++i)
      data[i] = static_cast<double>(i) * 0.25 - 3.0;
    t.send(0, 1, static_cast<int64_t>(n), data.data());
    Message msg = t.recv(1, 0);
    ASSERT_EQ(msg.payload.size(), n);
    EXPECT_TRUE(msg.intact()) << "n=" << n;
    for (size_t w = 0; w < n; ++w) {
      for (const int bit : {0, 31, 52, 63}) {
        uint64_t bits;
        std::memcpy(&bits, &msg.payload[w], sizeof(bits));
        bits ^= uint64_t{1} << bit;
        std::memcpy(&msg.payload[w], &bits, sizeof(bits));
        EXPECT_FALSE(msg.intact()) << "n=" << n << " word " << w << " bit "
                                   << bit;
        bits ^= uint64_t{1} << bit;
        std::memcpy(&msg.payload[w], &bits, sizeof(bits));
      }
    }
    EXPECT_TRUE(msg.intact()) << "n=" << n << " after restoring every flip";
  }
}

TEST(Transport, ResetClearsStatsAndMailboxes) {
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  const double v = 4.0;
  t.send(0, 1, 1, &v);
  t.end_step();
  t.reset();
  EXPECT_EQ(t.stats().messages, 0);
  EXPECT_EQ(t.stats().steps, 0);
  EXPECT_FALSE(t.try_recv(1).has_value());
}

// ---- per-protocol parity: predicted == executed ----------------------------

/// The acceptance invariant of the Transport API: for every registered
/// collective, a timing-only SimTransport run predicts exactly the
/// seconds/steps/bytes the InProcTransport execution produces, because
/// both are the same schedule.
void expect_stats_equal(const TransportStats& sim,
                        const TransportStats& real) {
  EXPECT_EQ(sim.steps, real.steps);
  EXPECT_EQ(sim.messages, real.messages);
  EXPECT_EQ(sim.total_wire_bytes, real.total_wire_bytes);
  EXPECT_DOUBLE_EQ(sim.seconds, real.seconds);
  ASSERT_EQ(sim.bytes_sent.size(), real.bytes_sent.size());
  for (size_t i = 0; i < sim.bytes_sent.size(); ++i) {
    EXPECT_EQ(sim.bytes_sent[i], real.bytes_sent[i]) << "agent " << i;
    EXPECT_EQ(sim.bytes_received[i], real.bytes_received[i]) << "agent "
                                                             << i;
  }
}

class AllReduceParityP
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(AllReduceParityP, SimPredictsExecutedTrafficExactly) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;  // deliberately not divisible by k

  SimTransport sim(LinkGrid::uniform(k, 100.0));
  CollectiveRequest predict;
  predict.elems = elems;
  (void)collective(protocol).run(sim, predict);

  auto bufs = random_buffers(k, elems, 1000 + static_cast<uint64_t>(k));
  const auto expected = mean_of(bufs);
  InProcTransport real(LinkGrid::uniform(k, 100.0));
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  (void)collective(protocol).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  for (int a = 0; a < k; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_NEAR(bufs[static_cast<size_t>(a)][i], expected[i], 1e-12)
          << "agent " << a << " elem " << i;
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AllReduceParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16),
        ::testing::Values(Protocol::kRingAllReduce,
                          Protocol::kHalvingDoublingAllReduce)));

TEST(GossipParity, SimPredictsExecutedTrafficExactly) {
  Rng topo_rng(7);
  std::vector<ResourceProfile> profiles(9, {1.0, 40.0});
  const auto topo = Topology::random_graph(profiles, 0.5, topo_rng);
  const int64_t elems = 17;

  Rng sim_rng(21), real_rng(21);  // identical partner draws
  SimTransport sim(LinkGrid::from_topology(topo));
  CollectiveRequest predict;
  predict.elems = elems;
  predict.rng = &sim_rng;
  const auto sim_rep = collective(Protocol::kGossip).run(sim, predict);

  auto bufs = random_buffers(9, elems, 77);
  InProcTransport real(LinkGrid::from_topology(topo));
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  execute.rng = &real_rng;
  const auto real_rep = collective(Protocol::kGossip).run(real, execute);

  ASSERT_EQ(sim_rep.partners.size(), real_rep.partners.size());
  for (size_t i = 0; i < sim_rep.partners.size(); ++i)
    EXPECT_EQ(sim_rep.partners[i], real_rep.partners[i]);
  expect_stats_equal(sim.stats(), real.stats());
}

TEST(ParamServerParity, SimPredictsExecutedTrafficExactly) {
  const auto grid = LinkGrid::star({10.0, 20.0, 50.0});
  const int64_t elems = 31;

  SimTransport sim(grid);
  CollectiveRequest predict;
  predict.elems = elems;
  predict.weights = {1.0, 2.0, 3.0};
  (void)collective(Protocol::kParamServer).run(sim, predict);

  auto bufs = random_buffers(3, elems, 5);
  std::vector<double> expected(static_cast<size_t>(elems), 0.0);
  for (size_t a = 0; a < 3; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      expected[i] += (a + 1) / 6.0 * bufs[a][i];
  InProcTransport real(grid);
  CollectiveRequest execute;
  execute.elems = elems;
  execute.weights = {1.0, 2.0, 3.0};
  execute.buffers = pointers(bufs);
  (void)collective(Protocol::kParamServer).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  for (size_t a = 0; a < 3; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_NEAR(bufs[a][i], expected[i], 1e-12);
  // Every agent uploads once and downloads once over its own link.
  EXPECT_EQ(real.stats().bytes_sent[0], elems * 4);
  EXPECT_EQ(real.stats().bytes_received[0], elems * 4);
  EXPECT_EQ(real.stats().bytes_sent[3], 3 * elems * 4);  // server drain
}

// ---- degenerate topologies -------------------------------------------------

TEST(Degenerate, SingleAgentCollectivesAreFree) {
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    InProcTransport t(LinkGrid::uniform(1, 100.0));
    auto bufs = random_buffers(1, 11, 3);
    const auto before = bufs[0];
    CollectiveRequest req;
    req.elems = 11;
    req.buffers = pointers(bufs);
    (void)collective(p).run(t, req);
    EXPECT_EQ(t.stats().messages, 0);
    EXPECT_EQ(t.stats().steps, 0);
    EXPECT_DOUBLE_EQ(t.stats().seconds, 0.0);
    EXPECT_EQ(bufs[0], before);
  }
}

TEST(Degenerate, GossipOnDisconnectedComponentsStaysLocal) {
  // Two 2-cliques with no cross link: averages must not leak across.
  std::vector<ResourceProfile> profiles(4, {1.0, 100.0});
  Rng rng(2);
  auto topo = Topology::random_graph(profiles, 0.0, rng);  // no links at all
  auto grid = LinkGrid::from_topology(topo);
  grid.link(0, 1) = grid.link(1, 0) = LinkModel{100.0};
  grid.link(2, 3) = grid.link(3, 2) = LinkModel{100.0};

  std::vector<std::vector<double>> bufs{{0.0}, {10.0}, {100.0}, {200.0}};
  InProcTransport t(std::move(grid));
  CollectiveRequest req;
  req.elems = 1;
  req.buffers = pointers(bufs);
  Rng grng(5);
  req.rng = &grng;
  (void)collective(Protocol::kGossip).run(t, req);
  // Both members of each clique push to each other: exact pairwise means.
  EXPECT_DOUBLE_EQ(bufs[0][0], 5.0);
  EXPECT_DOUBLE_EQ(bufs[1][0], 5.0);
  EXPECT_DOUBLE_EQ(bufs[2][0], 150.0);
  EXPECT_DOUBLE_EQ(bufs[3][0], 150.0);
}

TEST(Degenerate, GossipIsolatedAgentSitsOut) {
  std::vector<ResourceProfile> profiles{{1, 100}, {1, 100}, {1, 0}};
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<double>> bufs{{1.0}, {3.0}, {42.0}};
  InProcTransport t(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.elems = 1;
  req.buffers = pointers(bufs);
  Rng rng(6);
  req.rng = &rng;
  const auto rep = collective(Protocol::kGossip).run(t, req);
  EXPECT_FALSE(rep.partners[2].has_value());
  EXPECT_DOUBLE_EQ(bufs[2][0], 42.0);  // untouched
  EXPECT_DOUBLE_EQ(bufs[0][0], 2.0);
  EXPECT_DOUBLE_EQ(bufs[1][0], 2.0);
}

// ---- codec hooks -----------------------------------------------------------

TEST(Codecs, IdentityChargesFourBytesPerElement) {
  EXPECT_EQ(identity_codec().wire_bytes(10, nullptr), 40);
}

TEST(Codecs, QuantizedWireBytesAreDataIndependent) {
  // The dense int8 wire format (4-byte scale + 1 byte/element) never
  // depends on the payload, so a timing-only SimTransport charges the
  // exact bytes an InProcTransport executes — no assumed ratio anywhere.
  std::vector<double> data(256);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 == 0) ? 0.0 : static_cast<double>(i) / 256.0;
  QuantizingCodec codec;
  const int64_t elems = static_cast<int64_t>(data.size());
  EXPECT_EQ(codec.wire_bytes(elems, data.data()),
            QuantizingCodec::quantized_wire_bytes(elems));
  EXPECT_EQ(codec.wire_bytes(elems, nullptr),
            QuantizingCodec::quantized_wire_bytes(elems));
  EXPECT_EQ(QuantizingCodec::quantized_wire_bytes(elems), 4 + elems);
  EXPECT_EQ(QuantizingCodec::quantized_wire_bytes(0), 0);
  // >= 3x smaller than the fp32 wire for bucket-sized payloads.
  EXPECT_LE(4 * QuantizingCodec::quantized_wire_bytes(elems),
            identity_codec().wire_bytes(elems, nullptr) * 4 / 3);
}

TEST(Codecs, QuantizingCodecRoundTripIsBoundedLossy) {
  // Signed payloads survive (gradients/parameters are signed); error is
  // bounded by the int8 resolution of the dynamic range.
  std::vector<double> data(64);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i) / 64.0;
  const auto original = data;
  QuantizingCodec codec;
  codec.transform(data.data(), static_cast<int64_t>(data.size()));
  double max_abs = 0.0;
  for (const double v : original) max_abs = std::max(max_abs, std::fabs(v));
  for (size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(data[i], original[i], max_abs / 127.0);
  // All-zero payloads round-trip exactly.
  std::vector<double> zeros(8, 0.0);
  codec.transform(zeros.data(), 8);
  for (const double v : zeros) EXPECT_EQ(v, 0.0);
  // Degenerate dynamic ranges (non-finite or fp32-underflowing scale)
  // ship unquantized instead of NaN-poisoning the finite elements.
  std::vector<double> inf_payload{1.0, std::numeric_limits<double>::infinity(),
                                  -2.0, 0.0};
  codec.transform(inf_payload.data(), 4);
  EXPECT_EQ(inf_payload[0], 1.0);
  EXPECT_EQ(inf_payload[2], -2.0);
  EXPECT_EQ(inf_payload[3], 0.0);
  std::vector<double> tiny(4, 1e-60);  // below the fp32 normal range
  codec.transform(tiny.data(), 4);
  for (const double v : tiny) EXPECT_EQ(v, 1e-60);
}

/// The int8 round trip exactly as the scalar codec loop defines it; the
/// shipped codec (vectorized where the CPU allows) must match it bit for
/// bit.
void reference_quantize(double* data, int64_t elems) {
  if (elems == 0) return;
  double max_abs = 0.0;
  for (int64_t i = 0; i < elems; ++i)
    max_abs = std::max(max_abs, std::fabs(data[i]));
  if (max_abs == 0.0) return;
  const float scale = static_cast<float>(max_abs / 127.0);
  if (!std::isfinite(scale) || scale < std::numeric_limits<float>::min())
    return;
  const double inv_scale = 1.0 / static_cast<double>(scale);
  for (int64_t i = 0; i < elems; ++i) {
    const double q = std::nearbyint(data[i] * inv_scale);
    data[i] = static_cast<double>(scale) * std::clamp(q, -127.0, 127.0);
  }
}

void expect_codec_matches_reference(std::vector<double> data,
                                    const std::string& what) {
  auto expected = data;
  const auto n = static_cast<int64_t>(data.size());
  reference_quantize(expected.data(), n);
  quantized_codec().transform(data.data(), n);
  // memcmp, not ==: NaN payloads and the sign of zero must match too.
  EXPECT_TRUE(data.empty() || std::memcmp(data.data(), expected.data(),
                                          data.size() * sizeof(double)) == 0)
      << what << " (n=" << n << ")";
}

TEST(Codecs, QuantizingCodecMatchesTheScalarLoopBitForBit) {
  for (const auto& [what, data] : codec_payloads())
    expect_codec_matches_reference(data, what);
}

/// The fused error-feedback call against the three-step loop it replaces,
/// on both outputs, with memcmp so NaN payloads and zero signs count.
void expect_fused_error_feedback_matches(std::vector<double> data,
                                         std::vector<double> residual,
                                         const std::string& what) {
  const Codec& codec = quantized_codec();
  const auto n = static_cast<int64_t>(data.size());
  auto s = data;
  auto r = residual;
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] += r[i];
    r[i] = s[i];
  }
  codec.transform(s.data(), n);
  for (size_t i = 0; i < s.size(); ++i) r[i] -= s[i];
  codec.error_feedback(data.data(), residual.data(), n);
  const size_t bytes = data.size() * sizeof(double);
  EXPECT_TRUE(bytes == 0 || std::memcmp(data.data(), s.data(), bytes) == 0)
      << what << " (n=" << n << "): payload";
  EXPECT_TRUE(bytes == 0 ||
              std::memcmp(residual.data(), r.data(), bytes) == 0)
      << what << " (n=" << n << "): residual";
}

TEST(Codecs, FusedErrorFeedbackMatchesTheThreeStepLoopBitForBit) {
  Rng rng(8);
  for (const auto& [what, payload] : codec_payloads()) {
    std::vector<double> other(payload.size());
    for (double& v : other) v = rng.normal(0.0f, 0.05f);
    // The special values as the payload and as the carried residual.
    expect_fused_error_feedback_matches(payload, other, what + " payload");
    expect_fused_error_feedback_matches(other, payload, what + " residual");
    expect_fused_error_feedback_matches(
        payload, std::vector<double>(payload.size(), 0.0),
        what + " payload, zero residual");
  }
}

// encode_copy is copy + encode fused: same bits in `dst` (NaN payloads,
// signed zeros and the unquantized degenerate ranges included), same wire
// bytes, and `src` untouched.
TEST(Codecs, EncodeCopyMatchesCopyThenEncodeBitForBit) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(11);
  std::vector<std::vector<double>> inputs;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{9}, size_t{4113}}) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.normal(0.0f, 3.0f);
    inputs.push_back(data);
    if (n == 0) continue;
    for (const double special : {kNaN, kInf, -0.0}) {
      auto d = data;
      d[n / 2] = special;
      inputs.push_back(d);
    }
    inputs.emplace_back(n, 0.0);
    inputs.emplace_back(n, -1e-40);  // sub-FLT_MIN range: shipped as is
  }
  for (const Codec* codec : {&identity_codec(), &quantized_codec()})
    for (const auto& src : inputs) {
      const auto n = static_cast<int64_t>(src.size());
      auto expected = src;
      const int64_t expected_wire = codec->encode(expected.data(), n);
      const auto before = src;
      std::vector<double> dst(src.size(), 7.0);
      EXPECT_EQ(codec->encode_copy(src.data(), dst.data(), n), expected_wire);
      const size_t bytes = src.size() * sizeof(double);
      EXPECT_TRUE(bytes == 0 ||
                  std::memcmp(dst.data(), expected.data(), bytes) == 0)
          << codec->name() << " n=" << n;
      EXPECT_TRUE(bytes == 0 ||
                  std::memcmp(src.data(), before.data(), bytes) == 0)
          << codec->name() << " n=" << n << ": src modified";
    }
}

TEST(Codecs, TransportAppliesCodecToDeliveredPayload) {
  QuantizingCodec codec;
  InProcTransport t(LinkGrid::uniform(2, 100.0), &codec);
  std::vector<double> data(32);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<double>(i) / 32.0 - 0.5;
  t.send(0, 1, static_cast<int64_t>(data.size()), data.data());
  const auto msg = t.recv(1, 0);
  ASSERT_TRUE(msg.has_payload());
  EXPECT_EQ(msg.wire_bytes, QuantizingCodec::quantized_wire_bytes(32));
  EXPECT_LT(msg.wire_bytes, 32 * 4);
  for (size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(msg.payload[i], data[i], 0.5 / 127.0);
}

// The tentpole parity invariant for compressed collectives: with the
// quantized codec on both transports, a timing-only SimTransport run of an
// allreduce predicts exactly the wire bytes (and modeled clock) the
// InProcTransport execution produces, because the dense wire format is a
// pure function of the schedule.
class QuantizedParityP
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(QuantizedParityP, SimPredictsExecutedQuantizedBytesExactly) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;  // deliberately not divisible by k

  SimTransport sim(LinkGrid::uniform(k, 100.0), &quantized_codec());
  CollectiveRequest predict;
  predict.elems = elems;
  (void)collective(protocol).run(sim, predict);

  auto bufs = random_buffers(k, elems, 3000 + static_cast<uint64_t>(k));
  InProcTransport real(LinkGrid::uniform(k, 100.0), &quantized_codec());
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  (void)collective(protocol).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  if (k > 1) {
    // The quantized schedule really is cheaper on the wire than fp32.
    SimTransport fp32(LinkGrid::uniform(k, 100.0));
    CollectiveRequest raw;
    raw.elems = elems;
    (void)collective(protocol).run(fp32, raw);
    EXPECT_LT(real.stats().total_wire_bytes,
              fp32.stats().total_wire_bytes / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, QuantizedParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 12),
        ::testing::Values(Protocol::kRingAllReduce,
                          Protocol::kHalvingDoublingAllReduce)));

// ---- fault injection -------------------------------------------------------

TEST(Faults, DroppedMessagesNeverArriveButStillPayTheLink) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, plan);
  const double v = 1.0;
  t.send(0, 1, 1, &v);
  t.end_step();
  EXPECT_EQ(t.stats().dropped_messages, 1);
  EXPECT_EQ(t.stats().bytes_sent[0], 4);      // transmitted
  EXPECT_EQ(t.stats().bytes_received[1], 0);  // never delivered
  EXPECT_FALSE(t.try_recv(1).has_value());
}

TEST(Faults, TotallyLossyGossipTimesOutWithStatesUntouched) {
  // Message faults route gossip through ReliableChannel; when every copy
  // (original and all retransmissions) is dropped, the receive exhausts its
  // retry budget and surfaces a typed timeout instead of silently averaging
  // fewer pushes. No buffer is mutated before the failure.
  std::vector<ResourceProfile> profiles(4, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  InProcTransport t(LinkGrid::from_topology(topo), nullptr, plan);
  auto bufs = random_buffers(4, 5, 9);
  const auto before = bufs;
  CollectiveRequest req;
  req.elems = 5;
  req.buffers = pointers(bufs);
  Rng rng(11);
  req.rng = &rng;
  EXPECT_THROW((void)collective(Protocol::kGossip).run(t, req),
               DeliveryTimeoutError);
  // 4 dropped originals plus one full retry budget on the first edge.
  EXPECT_EQ(t.stats().dropped_messages, 4 + RetryPolicy{}.max_retries);
  for (size_t a = 0; a < 4; ++a) EXPECT_EQ(bufs[a], before[a]);
}

TEST(Faults, DeterministicDropScheduleMatchesAcrossTransports) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.seed = 123;
  SimTransport sim(LinkGrid::uniform(2, 100.0), nullptr, plan);
  InProcTransport real(LinkGrid::uniform(2, 100.0), nullptr, plan);
  for (int i = 0; i < 64; ++i) {
    sim.send(0, 1, 1);
    real.send(0, 1, 1);
  }
  EXPECT_GT(sim.stats().dropped_messages, 0);
  EXPECT_LT(sim.stats().dropped_messages, 64);
  EXPECT_EQ(sim.stats().dropped_messages, real.stats().dropped_messages);
}

// ---- thread safety ---------------------------------------------------------

TEST(Threading, ConcurrentSendsAndRecvsStayConsistent) {
  // Four disjoint (src, dst) flows hammer one transport concurrently; the
  // per-flow FIFO and the aggregate accounting must both survive.
  InProcTransport t(LinkGrid::uniform(8, 100.0));
  constexpr int kMessages = 200;
  std::vector<std::thread> threads;
  for (int f = 0; f < 4; ++f) {
    threads.emplace_back([&t, f] {
      const int64_t src = 2 * f, dst = 2 * f + 1;
      for (int m = 0; m < kMessages; ++m) {
        const double v = static_cast<double>(m);
        t.send(src, dst, 1, &v);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.stats().messages, 4 * kMessages);
  EXPECT_EQ(t.stats().total_wire_bytes, 4 * kMessages * 4);
  for (int f = 0; f < 4; ++f) {
    const int64_t src = 2 * f, dst = 2 * f + 1;
    for (int m = 0; m < kMessages; ++m)
      EXPECT_DOUBLE_EQ(t.recv(dst, src).payload[0],
                       static_cast<double>(m));
  }
}

// ---- registry --------------------------------------------------------------

TEST(Registry, EveryProtocolResolvesByEnum) {
  EXPECT_EQ(collective(Protocol::kRingAllReduce).name(), "ring_allreduce");
  EXPECT_EQ(collective(Protocol::kHalvingDoublingAllReduce).name(),
            "halving_doubling_allreduce");
  EXPECT_EQ(collective(Protocol::kGossip).name(), "gossip");
  EXPECT_EQ(collective(Protocol::kParamServer).name(), "param_server");
}

// ---- stepped schedules -----------------------------------------------------

TEST(SteppedSchedule, BlockingRunExecutesExactlyTheScheduleSteps) {
  // The stepped schedule is the single source of truth for ring and
  // halving/doubling: the registry's blocking run must produce one
  // transport step (and one message per scheduled send) per schedule step.
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    for (const int k : {2, 5, 8}) {
      const int64_t elems = 97;
      const auto sched = allreduce_schedule(p, k, elems);
      int64_t scheduled_messages = 0;
      for (const auto& step : sched.steps) {
        scheduled_messages += static_cast<int64_t>(step.sends.size());
        EXPECT_EQ(step.sends.size(), step.recvs.size());
      }
      SimTransport t(LinkGrid::uniform(k, 100.0));
      CollectiveRequest req;
      req.elems = elems;
      (void)collective(p).run(t, req);
      EXPECT_EQ(t.stats().steps,
                static_cast<int64_t>(sched.steps.size()))
          << collective(p).name() << " k=" << k;
      EXPECT_EQ(t.stats().messages, scheduled_messages)
          << collective(p).name() << " k=" << k;
    }
  }
}

// ---- shim equivalence ------------------------------------------------------

TEST(Shims, AllReduceCostMatchesTransportRun) {
  // The historical allreduce_cost() is now literally a SimTransport run;
  // spot-check it against a hand-built transport.
  const int64_t k = 8, bytes = 4'000'000;
  const auto cost = allreduce_cost(k, bytes, 100.0, AllReduceAlgo::kRing);
  SimTransport t(LinkGrid::uniform(k, 100.0));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(bytes);
  (void)collective(Protocol::kRingAllReduce).run(t, req);
  EXPECT_EQ(cost.steps, t.stats().steps);
  EXPECT_EQ(cost.bytes_per_agent, t.stats().max_bytes_sent());
  EXPECT_DOUBLE_EQ(cost.seconds, t.stats().seconds);
}

}  // namespace
}  // namespace comdml::comm
