// Communication substrate tests: transfer-time model, AllReduce cost model
// vs real message-level execution (ring and halving/doubling, including
// non-power-of-two fleets), step fan-out determinism across thread counts
// and item orders, the stepped star and gossip against reference copies of
// the whole-run loops they replaced, the reference state means the
// collectives are checked against, gossip exchange through the registry,
// parameter-server sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "comm/collective.hpp"
#include "core/parallel.hpp"
#include "core/trainer.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace comdml::comm {
namespace {

using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

/// Reference weighted mean across agents' states in fp32 (no traffic):
/// what the collectives' fp64 means are checked against.
std::vector<Tensor> weighted_mean_state(
    const std::vector<std::vector<Tensor>>& agent_states,
    const std::vector<double>& weights) {
  COMDML_CHECK(!agent_states.empty());
  COMDML_CHECK(agent_states.size() == weights.size());
  double wsum = 0.0;
  for (const double w : weights) {
    COMDML_CHECK(w >= 0.0);
    wsum += w;
  }
  COMDML_REQUIRE(wsum > 0.0, "all aggregation weights are zero");
  std::vector<Tensor> out = agent_states[0];
  for (auto& t : out)
    tensor::scale_inplace(t, static_cast<float>(weights[0] / wsum));
  for (size_t a = 1; a < agent_states.size(); ++a) {
    const float w = static_cast<float>(weights[a] / wsum);
    COMDML_REQUIRE(agent_states[a].size() == out.size(),
                   "agent " << a << " state arity differs");
    for (size_t t = 0; t < out.size(); ++t)
      tensor::axpy(w, agent_states[a][t], out[t]);
  }
  return out;
}

/// Plain arithmetic mean across agents' states.
std::vector<Tensor> mean_state(
    const std::vector<std::vector<Tensor>>& agent_states) {
  COMDML_CHECK(!agent_states.empty());
  return weighted_mean_state(
      agent_states, std::vector<double>(agent_states.size(),
                                        1.0 / static_cast<double>(
                                                  agent_states.size())));
}

// ---- link -----------------------------------------------------------------------

TEST(Link, TransferTimeIsLatencyPlusPayload) {
  // 1 MB over 8 Mbps = 1 second + latency.
  EXPECT_NEAR(transfer_seconds(1'000'000, 8.0, 0.005), 1.005, 1e-9);
}

TEST(Link, ZeroBytesStillPaysLatency) {
  EXPECT_DOUBLE_EQ(transfer_seconds(0, 10.0, 0.005), 0.005);
}

TEST(Link, UnusableLinkThrows) {
  EXPECT_THROW((void)transfer_seconds(100, 0.0), std::invalid_argument);
  EXPECT_THROW((void)bytes_per_sec(-5.0), std::invalid_argument);
}

TEST(Link, MultiGigabytePayloadIsOverflowSafe) {
  // 8 GB over 1 Gbps: 64 s of payload time, computed entirely in double.
  EXPECT_NEAR(transfer_seconds(8'000'000'000, 1000.0, 0.0), 64.0, 1e-9);
  // Payloads near INT64_MAX stay finite and monotone.
  const double t1 =
      transfer_seconds(std::numeric_limits<int64_t>::max() / 2, 100.0);
  const double t2 =
      transfer_seconds(std::numeric_limits<int64_t>::max(), 100.0);
  EXPECT_TRUE(std::isfinite(t1));
  EXPECT_TRUE(std::isfinite(t2));
  EXPECT_LT(t1, t2);
  EXPECT_THROW((void)transfer_seconds(-1, 100.0), std::invalid_argument);
}

TEST(Link, Fp32WireConversionsGuardOverflow) {
  EXPECT_EQ(fp32_wire_bytes(10), 40);
  EXPECT_EQ(fp32_wire_elems(10), 3);  // rounds up to whole fp32 values
  EXPECT_EQ(fp32_wire_elems(8), 2);
  EXPECT_EQ(fp32_wire_elems(0), 0);
  EXPECT_THROW(
      (void)fp32_wire_bytes(std::numeric_limits<int64_t>::max() / 2),
      std::invalid_argument);
  EXPECT_THROW((void)fp32_wire_bytes(-1), std::invalid_argument);
}

// ---- allreduce cost model ----------------------------------------------------------

TEST(AllReduceCost, SingleAgentIsFree) {
  const auto c = allreduce_cost(1, 1'000'000, 100.0);
  EXPECT_DOUBLE_EQ(c.seconds, 0.0);
  EXPECT_EQ(c.steps, 0);
}

TEST(AllReduceCost, BothAlgorithmsBandwidthOptimal) {
  const int64_t b = 4'000'000;
  const auto ring = allreduce_cost(8, b, 100.0, AllReduceAlgo::kRing);
  const auto hd =
      allreduce_cost(8, b, 100.0, AllReduceAlgo::kHalvingDoubling);
  EXPECT_EQ(ring.bytes_per_agent, hd.bytes_per_agent);
  EXPECT_EQ(ring.bytes_per_agent, 2 * (8 - 1) * b / 8);
}

TEST(AllReduceCost, HalvingDoublingFewerStepsAtScale) {
  const auto ring = allreduce_cost(64, 1'000, 100.0, AllReduceAlgo::kRing);
  const auto hd =
      allreduce_cost(64, 1'000, 100.0, AllReduceAlgo::kHalvingDoubling);
  EXPECT_EQ(ring.steps, 2 * 63);
  EXPECT_EQ(hd.steps, 2 * 6);
  EXPECT_LT(hd.seconds, ring.seconds);  // latency dominates for tiny models
}

TEST(AllReduceCost, MultiGigabyteModelIsFinite) {
  const auto c = allreduce_cost(16, 10'000'000'000, 100.0);  // 10 GB model
  EXPECT_TRUE(std::isfinite(c.seconds));
  EXPECT_GT(c.seconds, 0.0);
  EXPECT_GT(c.bytes_per_agent, 10'000'000'000 / 16 * 15);
}

TEST(AllReduceCost, NonPowerOfTwoPaysExtra) {
  const auto p2 = allreduce_cost(8, 1'000'000, 100.0);
  const auto np2 = allreduce_cost(9, 1'000'000, 100.0);
  EXPECT_GT(np2.bytes_per_agent, p2.bytes_per_agent);
  EXPECT_EQ(np2.steps, 2 * 3 + 2);
}

// ---- allreduce execution ------------------------------------------------------------

std::vector<std::vector<Tensor>> random_states(size_t k, Rng& rng) {
  std::vector<std::vector<Tensor>> states;
  for (size_t a = 0; a < k; ++a) {
    std::vector<Tensor> s;
    s.push_back(rng.normal_tensor({3, 4}, 0, 1));
    s.push_back(rng.normal_tensor({7}, 0, 1));
    states.push_back(std::move(s));
  }
  return states;
}

/// Runs `protocol` over `transport` on the agents' states flattened to
/// fp64, writes the results back into `states` and returns the report.
CollectiveReport run_on_states(std::vector<std::vector<Tensor>>& states,
                               Protocol protocol, Transport& transport,
                               CollectiveRequest req = {}) {
  const size_t k = states.size();
  int64_t n = 0;
  for (const Tensor& t : states[0]) n += t.size();
  std::vector<double> slab(k * static_cast<size_t>(n));
  req.elems = n;
  req.buffers.clear();
  for (size_t a = 0; a < k; ++a) {
    double* out = slab.data() + a * static_cast<size_t>(n);
    req.buffers.push_back(out);
    for (const Tensor& t : states[a])
      for (const float v : t.flat()) *out++ = v;
  }
  const CollectiveReport rep = collective(protocol).run(transport, req);
  for (size_t a = 0; a < k; ++a) {
    const double* in = req.buffers[a];
    for (Tensor& t : states[a])
      for (float& v : t.flat()) v = static_cast<float>(*in++);
  }
  return rep;
}

/// Averages `states` in place with the algorithm's registered collective
/// over an InProcTransport on a uniform 100 Mbps grid; returns the
/// executed traffic.
TransportStats run_allreduce(std::vector<std::vector<Tensor>>& states,
                             AllReduceAlgo algo) {
  InProcTransport transport(
      LinkGrid::uniform(static_cast<int64_t>(states.size()), 100.0));
  return run_on_states(states, allreduce_protocol(algo), transport)
      .transport;
}

class AllReduceExecP
    : public ::testing::TestWithParam<std::tuple<int, AllReduceAlgo>> {};

TEST_P(AllReduceExecP, ComputesExactMean) {
  const auto [k, algo] = GetParam();
  Rng rng(1000 + k);
  auto states = random_states(static_cast<size_t>(k), rng);
  const auto expected = mean_state(states);
  (void)run_allreduce(states, algo);
  for (int a = 0; a < k; ++a)
    for (size_t t = 0; t < expected.size(); ++t)
      EXPECT_TRUE(tensor::allclose(states[static_cast<size_t>(a)][t],
                                   expected[t], 1e-5f))
          << "agent " << a << " tensor " << t;
}

TEST_P(AllReduceExecP, TrafficMatchesCostModel) {
  const auto [k, algo] = GetParam();
  Rng rng(2000 + k);
  auto states = random_states(static_cast<size_t>(k), rng);
  int64_t payload = 0;
  for (const auto& t : states[0]) payload += t.nbytes();
  const TransportStats trace = run_allreduce(states, algo);
  const auto cost = allreduce_cost(k, payload, 100.0, algo);
  // Mean per-agent traffic equals the model's 2(K-1)/K * b (+ fold-in for
  // non-power-of-two halving/doubling; the model charges that to every
  // agent, the execution splits it between extras and partners).
  const double mean_sent =
      std::accumulate(trace.bytes_sent.begin(), trace.bytes_sent.end(),
                      0.0) /
      static_cast<double>(k);
  const double expected =
      2.0 * static_cast<double>(k - 1) / k * static_cast<double>(payload);
  EXPECT_NEAR(mean_sent, expected, static_cast<double>(payload))
      << "k=" << k;
  if (algo == AllReduceAlgo::kHalvingDoubling && (k & (k - 1)) == 0) {
    EXPECT_EQ(trace.steps, cost.steps);
  }
  if (algo == AllReduceAlgo::kRing && k > 1) {
    EXPECT_EQ(trace.steps, cost.steps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AllReduceExecP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16),
                       ::testing::Values(AllReduceAlgo::kRing,
                                         AllReduceAlgo::kHalvingDoubling)));

// ---- step fan-out ---------------------------------------------------------------

// A step's phases may run on several threads. That is safe because every
// stepped schedule posts at most one send per source and at most one
// receive per destination in each step, survivors' schedules included.
TEST(StepFanOut, EveryStepHasOneSendPerSourceAndOneRecvPerDestination) {
  const auto check = [](const SteppedSchedule& sched, const std::string& what) {
    for (size_t s = 0; s < sched.steps.size(); ++s) {
      const ScheduleStep& step = sched.steps[s];
      std::vector<int64_t> srcs, dsts;
      for (const auto& x : step.sends) srcs.push_back(x.src);
      for (const auto& x : step.recvs) dsts.push_back(x.dst);
      std::sort(srcs.begin(), srcs.end());
      std::sort(dsts.begin(), dsts.end());
      EXPECT_EQ(std::adjacent_find(srcs.begin(), srcs.end()), srcs.end())
          << what << " step " << s << ": a source sends twice";
      EXPECT_EQ(std::adjacent_find(dsts.begin(), dsts.end()), dsts.end())
          << what << " step " << s << ": a destination receives twice";
    }
  };
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    for (int64_t k = 1; k <= 17; ++k)
      for (const int64_t elems : {0, 1, 7, 100}) {
        const std::string what = std::string(collective(p).name()) + " k=" +
                                 std::to_string(k) + " elems=" +
                                 std::to_string(elems);
        check(allreduce_schedule(p, k, elems), what);
        // Survivors: every other endpoint of a 2k-wide transport.
        std::vector<int64_t> survivors;
        for (int64_t e = 0; e < k; ++e) survivors.push_back(2 * e + 1);
        check(allreduce_schedule_over(p, survivors, elems), what + " over");
      }
  }
}

/// Runs the items of each phase back to front: a legal executor, and a
/// deterministic stand-in for the worst interleaving a pool could produce.
class ReverseExecutor final : public StepExecutor {
 public:
  void run(int64_t items, const std::function<void(int64_t)>& item) override {
    for (int64_t i = items; i-- > 0;) item(i);
  }
};

void expect_stats_equal(const TransportStats& a, const TransportStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.dropped_messages, b.dropped_messages) << what;
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << what;
  EXPECT_EQ(a.bytes_received, b.bytes_received) << what;
  EXPECT_EQ(a.send_seconds, b.send_seconds) << what;
  EXPECT_EQ(a.recv_seconds, b.recv_seconds) << what;
  EXPECT_EQ(a.dropped_per_edge, b.dropped_per_edge) << what;
  EXPECT_EQ(a.retransmit_messages, b.retransmit_messages) << what;
  EXPECT_EQ(a.retransmit_wire_bytes, b.retransmit_wire_bytes) << what;
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages) << what;
  EXPECT_EQ(a.duplicated_wire_bytes, b.duplicated_wire_bytes) << what;
  EXPECT_EQ(a.corrupt_messages, b.corrupt_messages) << what;
  EXPECT_EQ(a.delayed_messages, b.delayed_messages) << what;
  EXPECT_EQ(a.reordered_messages, b.reordered_messages) << what;
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds) << what;
  EXPECT_EQ(a.step_spans, b.step_spans) << what;
  EXPECT_EQ(a.step_message_counts, b.step_message_counts) << what;
}

struct FanOutRun {
  std::vector<double> slab;  ///< every agent's reduced buffer, agent-major
  TransportStats stats;
};

/// One protocol setup of the fan-out sweep.
struct FanOutCase {
  Protocol protocol;
  /// Star: every other agent only. Gossip: a sparse random topology.
  bool subset = false;
};

std::string fan_out_name(const FanOutCase& c) {
  return std::string(collective(c.protocol).name()) +
         (c.subset ? " subset" : "");
}

/// Links of unequal rates, so the per-endpoint second sums depend on the
/// order a step's messages are charged in.
double fan_out_mbps(int64_t a) { return 10.0 + 7.0 * static_cast<double>(a); }

FanOutRun run_fan_out(const FanOutCase& c, int64_t k, int64_t elems,
                      const std::vector<double>& input, const Codec* codec,
                      StepExecutor* executor) {
  FanOutRun run;
  run.slab = input;
  CollectiveRequest req;
  req.elems = elems;
  req.executor = executor;
  for (int64_t a = 0; a < k; ++a)
    req.buffers.push_back(run.slab.data() + a * elems);
  std::vector<ResourceProfile> profiles;
  for (int64_t a = 0; a < k; ++a) profiles.push_back({1.0, fan_out_mbps(a)});
  Rng rng(static_cast<uint64_t>(17 * k + 3));
  LinkGrid grid = LinkGrid::uniform(k, 100.0);
  switch (c.protocol) {
    case Protocol::kParamServer: {
      std::vector<double> mbps;
      for (int64_t a = 0; a < k; ++a) mbps.push_back(fan_out_mbps(a));
      grid = LinkGrid::star(mbps);
      for (int64_t a = 0; a < k; ++a) {
        if (c.subset && a % 2 == 1) continue;
        req.participants.push_back(a);
        req.weights.push_back(1.0 + static_cast<double>(a % 3));
      }
      break;
    }
    case Protocol::kGossip:
      grid = LinkGrid::from_topology(
          c.subset ? Topology::random_graph(profiles, 0.3, rng)
                   : Topology::full_mesh(profiles));
      req.rng = &rng;
      break;
    default:
      break;
  }
  InProcTransport transport(std::move(grid), codec);
  run.stats = collective(c.protocol).run(transport, req).transport;
  return run;
}

// The reduced buffers (byte for byte) and every TransportStats field match
// the 1-thread run at 2 and 4 pool threads and with phases run backwards.
TEST(StepFanOut, ResultsAndAccountingIgnoreThreadCountAndItemOrder) {
  struct Guard {
    ~Guard() { core::set_num_threads(0); }
  } guard;
  ReverseExecutor reverse;
  const FanOutCase cases[] = {
      {Protocol::kRingAllReduce},        {Protocol::kHalvingDoublingAllReduce},
      {Protocol::kParamServer},          {Protocol::kParamServer, true},
      {Protocol::kGossip},               {Protocol::kGossip, true}};
  for (const FanOutCase& c : cases)
    for (const Codec* codec : {&identity_codec(), &quantized_codec()})
      for (const int64_t k : {2, 3, 5, 8, 16})
        for (const int64_t elems : {0, 1, 7, 65792}) {
          std::vector<double> input(static_cast<size_t>(k * elems));
          Rng rng(static_cast<uint64_t>(31 * k + elems));
          for (double& v : input)
            v = static_cast<double>(rng.normal(0.0f, 1.0f));
          const std::string what =
              fan_out_name(c) + " " + std::string(codec->name()) +
              " k=" + std::to_string(k) + " elems=" + std::to_string(elems);
          core::set_num_threads(1);
          const FanOutRun ref =
              run_fan_out(c, k, elems, input, codec, nullptr);
          // threads == 0 is the reversed executor; it runs on the calling
          // thread, so one pass covers it.
          for (const int threads : {1, 2, 4, 0}) {
            core::set_num_threads(std::max(threads, 1));
            StepExecutor* exec = threads == 0 ? &reverse : nullptr;
            const std::string run_what =
                what + (threads == 0 ? std::string(" reversed")
                                     : " threads=" + std::to_string(threads));
            const FanOutRun got = run_fan_out(c, k, elems, input, codec, exec);
            ASSERT_EQ(got.slab.size(), ref.slab.size()) << run_what;
            EXPECT_TRUE(got.slab.empty() ||
                        std::memcmp(got.slab.data(), ref.slab.data(),
                                    got.slab.size() * sizeof(double)) == 0)
                << run_what;
            expect_stats_equal(got.stats, ref.stats, run_what);
          }
        }
}

// The star and gossip steps are built so that step fan-out stays
// deterministic: one message per directed edge, each source's sends one
// work item, each destination's receives one work item in ascending sender
// order, and every send matched by exactly one receive.
TEST(StepFanOut, StarAndGossipStepsMoveOneMessagePerDirectedEdge) {
  const auto check = [](const SteppedSchedule& sched, const std::string& what) {
    for (size_t s = 0; s < sched.steps.size(); ++s) {
      const ScheduleStep& step = sched.steps[s];
      const std::string at = what + " step " + std::to_string(s);
      std::vector<std::pair<int64_t, int64_t>> sent, received;
      for (const auto& x : step.sends) sent.emplace_back(x.src, x.dst);
      for (const auto& x : step.recvs) received.emplace_back(x.src, x.dst);
      std::sort(sent.begin(), sent.end());
      std::sort(received.begin(), received.end());
      EXPECT_EQ(std::adjacent_find(sent.begin(), sent.end()), sent.end())
          << at << ": an edge carries two messages";
      EXPECT_EQ(sent, received) << at << ": sends and receives differ";
      // Items: runs of one source / one destination, each endpoint once.
      ASSERT_FALSE(step.send_items.empty()) << at;
      ASSERT_FALSE(step.recv_items.empty()) << at;
      EXPECT_EQ(step.send_items.back(),
                static_cast<int64_t>(step.sends.size()))
          << at;
      EXPECT_EQ(step.recv_items.back(),
                static_cast<int64_t>(step.recvs.size()))
          << at;
      std::vector<int64_t> srcs, dsts;
      for (size_t i = 0; i + 1 < step.send_items.size(); ++i) {
        const auto lo = static_cast<size_t>(step.send_items[i]);
        const auto hi = static_cast<size_t>(step.send_items[i + 1]);
        for (size_t x = lo; x < hi; ++x)
          EXPECT_EQ(step.sends[x].src, step.sends[lo].src) << at;
        srcs.push_back(step.sends[lo].src);
      }
      for (size_t i = 0; i + 1 < step.recv_items.size(); ++i) {
        const auto lo = static_cast<size_t>(step.recv_items[i]);
        const auto hi = static_cast<size_t>(step.recv_items[i + 1]);
        for (size_t x = lo; x < hi; ++x) {
          EXPECT_EQ(step.recvs[x].dst, step.recvs[lo].dst) << at;
          if (x > lo)
            EXPECT_LT(step.recvs[x - 1].src, step.recvs[x].src)
                << at << ": receives out of sender order";
        }
        dsts.push_back(step.recvs[lo].dst);
      }
      std::sort(srcs.begin(), srcs.end());
      std::sort(dsts.begin(), dsts.end());
      EXPECT_EQ(std::adjacent_find(srcs.begin(), srcs.end()), srcs.end())
          << at << ": a source's sends split over two items";
      EXPECT_EQ(std::adjacent_find(dsts.begin(), dsts.end()), dsts.end())
          << at << ": a destination's receives split over two items";
    }
  };
  // The schedule an AsyncCollective builds for `request` over `t`.
  const auto built = [](Protocol p, const Transport& t,
                        CollectiveRequest request) {
    SimTransport copy(t.grid());
    return AsyncCollective(p, copy, std::move(request)).schedule();
  };
  for (int64_t k = 1; k <= 17; ++k)
    for (const int64_t elems : {0, 1, 7, 100}) {
      const std::string what =
          " k=" + std::to_string(k) + " elems=" + std::to_string(elems);
      CollectiveRequest req;
      req.elems = elems;
      const SimTransport star(LinkGrid::star(
          std::vector<double>(static_cast<size_t>(k), 100.0)));
      check(built(Protocol::kParamServer, star, req), "star" + what);
      for (int64_t a = 1; a < k; a += 2) req.participants.push_back(a);
      if (!req.participants.empty())
        check(built(Protocol::kParamServer, star, req), "star subset" + what);
      req.participants.clear();
      std::vector<ResourceProfile> profiles(static_cast<size_t>(k),
                                            {1.0, 100.0});
      Rng rng(static_cast<uint64_t>(k));
      req.rng = &rng;
      const SimTransport mesh(LinkGrid::uniform(k, 100.0));
      check(built(Protocol::kGossip, mesh, req), "gossip" + what);
      const SimTransport sparse(
          LinkGrid::from_topology(Topology::random_graph(profiles, 0.3, rng)));
      check(built(Protocol::kGossip, sparse, req), "gossip sparse" + what);
    }
}

// ---- stepped star and gossip vs the whole-run loops -------------------------

/// The whole-run param-server round the star schedule replaced: a zeroed
/// fp64 mean folds (w_s / sum w) * x_s in selection order, then every
/// selected agent copies it.
void reference_param_server(std::vector<std::vector<double>>& bufs,
                            const std::vector<int64_t>& selected,
                            const std::vector<double>& weights) {
  double wsum = 0.0;
  for (const double w : weights) wsum += w;
  std::vector<double> mean(bufs.front().size(), 0.0);
  for (size_t s = 0; s < selected.size(); ++s) {
    const double w = weights[s] / wsum;
    const std::vector<double>& x = bufs[static_cast<size_t>(selected[s])];
    for (size_t j = 0; j < mean.size(); ++j) mean[j] += w * x[j];
  }
  for (const int64_t id : selected) bufs[static_cast<size_t>(id)] = mean;
}

/// The whole-run gossip exchange the gossip schedule replaced: one partner
/// draw per endpoint in ascending order over `t`'s links, then each
/// receiver folds the round-start states pushed to it, in ascending sender
/// order, into a zeroed accumulator and takes (own + acc) / (pushes + 1).
std::vector<std::optional<int64_t>> reference_gossip(
    std::vector<std::vector<double>>& bufs, const Transport& t, Rng& rng) {
  const auto k = static_cast<int64_t>(bufs.size());
  std::vector<std::optional<int64_t>> partners(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const std::vector<int64_t> nbrs = t.neighbors(i);
    if (nbrs.empty()) continue;
    partners[static_cast<size_t>(i)] = nbrs[static_cast<size_t>(
        rng.below(static_cast<int64_t>(nbrs.size())))];
  }
  const auto start = bufs;
  for (int64_t i = 0; i < k; ++i) {
    std::vector<double> acc(bufs.front().size(), 0.0);
    int64_t pushes = 0;
    for (int64_t j = 0; j < k; ++j) {
      if (partners[static_cast<size_t>(j)] != i) continue;
      for (size_t x = 0; x < acc.size(); ++x)
        acc[x] += start[static_cast<size_t>(j)][x];
      ++pushes;
    }
    if (pushes == 0) continue;
    std::vector<double>& mine = bufs[static_cast<size_t>(i)];
    const double inv = 1.0 / static_cast<double>(pushes + 1);
    for (size_t x = 0; x < acc.size(); ++x) mine[x] = (mine[x] + acc[x]) * inv;
  }
  return partners;
}

bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        (!a[i].empty() && std::memcmp(a[i].data(), b[i].data(),
                                      a[i].size() * sizeof(double)) != 0))
      return false;
  return true;
}

// Every agent holds a variant of one special-value payload (-0, NaN, +-Inf,
// fp32- and fp64-range denormals): the payload scaled by 2^a, which keeps
// each special value in place on every agent (so -0 meets -0), or reversed
// on odd agents (so specials meet ordinary values).
TEST(SteppedBaselines, StarAndGossipMatchTheWholeRunLoopsBitwise) {
  auto payloads = testing::codec_payloads();
  std::vector<double> denormals(23);
  for (size_t i = 0; i < denormals.size(); ++i)
    denormals[i] = (i % 2 == 0 ? 1.0 : -1.0) *
                   std::numeric_limits<double>::denorm_min() *
                   static_cast<double>(i);
  payloads.emplace_back("fp64 denormals", denormals);
  const int64_t k = 5;
  for (const auto& [what, payload] : payloads)
    for (const bool reversed : {false, true}) {
      std::vector<std::vector<double>> input;
      for (int64_t a = 0; a < k; ++a) {
        std::vector<double> v = payload;
        if (reversed && a % 2 == 1) std::reverse(v.begin(), v.end());
        if (!reversed)
          for (double& x : v) x *= static_cast<double>(int64_t{1} << a);
        input.push_back(std::move(v));
      }
      const auto elems = static_cast<int64_t>(payload.size());
      const std::string at = what + " n=" + std::to_string(elems) +
                             (reversed ? " reversed" : " scaled");
      // The star over everyone and over a subset, a zero weight included
      // (0 * Inf is NaN).
      const LinkGrid star = LinkGrid::star({10.0, 20.0, 30.0, 40.0, 50.0});
      const std::vector<double> all_weights{3.0, 0.0, 1.0, 2.0, 5.0};
      for (const std::vector<int64_t>& selected :
           {std::vector<int64_t>{0, 1, 2, 3, 4},
            std::vector<int64_t>{1, 3, 4}}) {
        std::vector<double> weights;
        for (const int64_t id : selected)
          weights.push_back(all_weights[static_cast<size_t>(id)]);
        auto expected = input;
        reference_param_server(expected, selected, weights);
        auto got = input;
        InProcTransport t(star);
        CollectiveRequest req;
        req.elems = elems;
        req.buffers = {got[0].data(), got[1].data(), got[2].data(),
                       got[3].data(), got[4].data()};
        req.participants = selected;
        req.weights = weights;
        (void)collective(Protocol::kParamServer).run(t, req);
        EXPECT_TRUE(same_bits(got, expected))
            << "star over " << selected.size() << " " << at;
      }
      // Gossip over a full mesh: several receivers take two or more pushes.
      auto expected = input;
      InProcTransport t(LinkGrid::uniform(k, 100.0));
      Rng ref_rng(41);
      const auto partners = reference_gossip(expected, t, ref_rng);
      auto got = input;
      Rng rng(41);
      CollectiveRequest req;
      req.elems = elems;
      req.buffers = {got[0].data(), got[1].data(), got[2].data(),
                     got[3].data(), got[4].data()};
      req.rng = &rng;
      const CollectiveReport rep = collective(Protocol::kGossip).run(t, req);
      EXPECT_EQ(rep.partners, partners) << at;
      EXPECT_TRUE(same_bits(got, expected)) << "gossip " << at;
    }
}

TEST(MeanState, WeightedMeanMatchesManual) {
  std::vector<std::vector<Tensor>> states{{Tensor::of({1.f})},
                                          {Tensor::of({5.f})}};
  const auto avg = weighted_mean_state(states, {3.0, 1.0});
  EXPECT_NEAR(avg[0][0], 2.0f, 1e-6);
}

TEST(MeanState, ZeroWeightsThrow) {
  std::vector<std::vector<Tensor>> states{{Tensor::of({1.f})}};
  EXPECT_THROW((void)weighted_mean_state(states, {0.0}),
               std::invalid_argument);
}

// ---- gossip --------------------------------------------------------------------------

/// Partner draw of one timing-only gossip round over `topo`'s links.
std::vector<std::optional<int64_t>> gossip_partners(const Topology& topo,
                                                    Rng& rng) {
  SimTransport transport(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.elems = 1;
  req.rng = &rng;
  return collective(Protocol::kGossip).run(transport, req).partners;
}

/// One executed gossip round on `states` over `topo`'s links.
CollectiveReport gossip_round(std::vector<std::vector<Tensor>>& states,
                              const Topology& topo, Rng& rng) {
  InProcTransport transport(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.rng = &rng;
  return run_on_states(states, Protocol::kGossip, transport, req);
}

TEST(Gossip, PartnersAreNeighbors) {
  Rng rng(2);
  std::vector<ResourceProfile> profiles(6, {1.0, 100.0});
  const auto topo = Topology::ring(profiles);
  const auto partners = gossip_partners(topo, rng);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(partners[static_cast<size_t>(i)].has_value());
    EXPECT_TRUE(topo.linked(i, *partners[static_cast<size_t>(i)]));
  }
}

TEST(Gossip, IsolatedAgentHasNoPartner) {
  Rng rng(3);
  std::vector<ResourceProfile> profiles{{1, 100}, {1, 100}, {1, 0}};
  const auto topo = Topology::full_mesh(profiles);
  const auto partners = gossip_partners(topo, rng);
  EXPECT_FALSE(partners[2].has_value());
}

TEST(Gossip, ExchangeMovesStatesToward) {
  Rng rng(4);
  std::vector<ResourceProfile> profiles(2, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<Tensor>> states{{Tensor::of({0.f})},
                                          {Tensor::of({10.f})}};
  (void)gossip_round(states, topo, rng);
  // Both agents push to each other (2-agent full mesh), so both average.
  EXPECT_NEAR(states[0][0][0], 5.0f, 1e-5);
  EXPECT_NEAR(states[1][0][0], 5.0f, 1e-5);
}

TEST(Gossip, RepeatedExchangeConverges) {
  Rng rng(5);
  std::vector<ResourceProfile> profiles(8, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<Tensor>> states;
  for (int a = 0; a < 8; ++a)
    states.push_back({Tensor::of({static_cast<float>(a)})});
  for (int round = 0; round < 60; ++round)
    (void)gossip_round(states, topo, rng);
  for (int a = 0; a < 8; ++a)
    EXPECT_NEAR(states[static_cast<size_t>(a)][0][0], 3.5f, 0.8f);
}

TEST(Gossip, CostUsesChosenLink) {
  Rng rng(6);
  std::vector<ResourceProfile> profiles(2, {1.0, 10.0});
  const auto topo = Topology::full_mesh(profiles);
  SimTransport transport(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(1'250'000);
  req.rng = &rng;
  (void)collective(Protocol::kGossip).run(transport, req);
  // 1.25 MB over 10 Mbps = 1 s (+5 ms latency).
  EXPECT_NEAR(transport.stats().send_seconds[0], 1.005, 1e-6);
}

TEST(Gossip, OnlySelectedAgentsTakePart) {
  // Agents left out of `participants` (deferred or dead ones) neither push
  // nor receive, and their states stay as they were.
  Rng rng(7);
  std::vector<ResourceProfile> profiles(4, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  InProcTransport transport(LinkGrid::from_topology(topo));
  std::vector<std::vector<Tensor>> states;
  for (int a = 0; a < 4; ++a)
    states.push_back({Tensor::of({static_cast<float>(a)})});
  CollectiveRequest req;
  req.rng = &rng;
  req.participants = {0, 2, 3};
  const CollectiveReport rep =
      run_on_states(states, Protocol::kGossip, transport, req);
  EXPECT_FALSE(rep.partners[1].has_value());
  for (const int64_t a : {0, 2, 3}) {
    ASSERT_TRUE(rep.partners[static_cast<size_t>(a)].has_value());
    EXPECT_NE(*rep.partners[static_cast<size_t>(a)], 1);
  }
  EXPECT_EQ(rep.transport.bytes_sent[1], 0);
  EXPECT_EQ(states[1][0][0], 1.0f);
}

// ---- parameter server -----------------------------------------------------------------

TEST(ParamServer, SharesServerBandwidth) {
  std::vector<ResourceProfile> profiles(10, {1.0, 100.0});
  std::vector<int64_t> selected(10);
  std::iota(selected.begin(), selected.end(), 0);
  core::FleetOptions::CommOptions comms;
  comms.server_mbps = 100.0;  // 10 agents share 100 Mbps -> 10 Mbps each
  const auto times = core::server_round_times(profiles, selected, 1'250'000,
                                              comms);
  for (const double t : times) EXPECT_NEAR(t, 2.0 * 1.005, 1e-6);
}

TEST(ParamServer, AgentLinkCanBeBottleneck) {
  std::vector<ResourceProfile> profiles{{1.0, 10.0}};
  const auto times =
      core::server_round_times(profiles, {0}, 1'250'000, {});
  EXPECT_NEAR(times[0], 2.0 * 1.005, 1e-6);  // limited by the 10 Mbps uplink
}

TEST(ParamServer, DisconnectedAgentThrows) {
  std::vector<ResourceProfile> profiles{{1.0, 0.0}};
  EXPECT_THROW((void)core::server_round_times(profiles, {0}, 100, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace comdml::comm
