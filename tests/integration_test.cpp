// Cross-module integration and property tests: end-to-end method ordering,
// idle-helper pairing under client sampling, determinism, serialization
// round trips through the comm layer, and parameterized sweeps over all
// split points.
#include <gtest/gtest.h>

#include <numeric>

#include "core/execution.hpp"
#include "core/fleet_runtime.hpp"
#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "tensor/serialize.hpp"

namespace comdml {
namespace {

using core::FleetOptions;
using core::Scheduler;
using core::SimulatedFleet;
using learncurve::Method;
using learncurve::PartitionKind;
using sim::Topology;
using tensor::Rng;

FleetOptions config10() {
  FleetOptions cfg = FleetOptions::paper_defaults();
  cfg.scale.reshuffle_period = 0;
  cfg.scale.max_split_points = 16;
  return cfg;
}

Topology mesh10(uint64_t seed = 1) {
  Rng rng(seed);
  return Topology::full_mesh(sim::assign_profiles(10, rng));
}

std::vector<int64_t> sizes10() {
  Rng rng(2);
  return core::shard_sizes_for(data::cifar10_spec(), 10,
                               PartitionKind::kIID, rng);
}

// ---- end-to-end method ordering -----------------------------------------------

TEST(EndToEnd, ComDMLFastestTimeToAccuracy) {
  // The paper's headline (Table II) as an invariant: over matched fleets,
  // ComDML's time to 80% must undercut every baseline.
  const auto spec = nn::resnet56_spec();
  const auto topo = mesh10(3);
  const auto sizes = sizes10();
  const double target = 0.80;

  auto total_time = [&](Method m) {
    const auto curve = learncurve::make_accuracy_model(
        "cifar10", "resnet56", PartitionKind::kIID, m);
    const double rounds = *curve.rounds_to(target);
    SimulatedFleet fleet(spec, config10(), topo, sizes, m);
    return fleet.run(40).time_for_rounds(rounds);
  };

  const double comdml = total_time(Method::kComDML);
  for (const Method m : {Method::kGossip, Method::kBrainTorrent,
                         Method::kAllReduceDML, Method::kFedAvg}) {
    EXPECT_LT(comdml, total_time(m)) << learncurve::method_name(m);
  }
  // And by a meaningful factor against FedAvg (paper: ~3x; shape: >=1.5x).
  EXPECT_LT(comdml, total_time(Method::kFedAvg) / 1.5);
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  const auto spec = nn::resnet56_spec();
  SimulatedFleet a(spec, config10(), mesh10(4), sizes10());
  SimulatedFleet b(spec, config10(), mesh10(4), sizes10());
  for (int r = 0; r < 5; ++r) {
    const auto ra = a.step();
    const auto rb = b.step();
    EXPECT_DOUBLE_EQ(ra.round_seconds, rb.round_seconds) << r;
    EXPECT_EQ(ra.num_pairs, rb.num_pairs) << r;
  }
}

TEST(EndToEnd, CompressionShortensRounds) {
  const auto spec = nn::resnet56_spec();
  auto raw_cfg = config10();
  raw_cfg.comms.activation_compression = 1.0;
  SimulatedFleet raw(spec, raw_cfg, mesh10(5), sizes10());
  SimulatedFleet compressed(spec, config10(), mesh10(5), sizes10());
  double raw_total = 0, comp_total = 0;
  for (int r = 0; r < 5; ++r) {
    raw_total += raw.step().round_seconds;
    comp_total += compressed.step().round_seconds;
  }
  EXPECT_LT(comp_total, raw_total);
}

// ---- idle helpers under client sampling ----------------------------------------

TEST(Helpers, IdleAgentsAcceptOffloads) {
  // One slow participant, one idle fast agent: with helper support the
  // pairing must use the idle agent.
  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(spec, 16, 8.0);
  std::vector<sim::ResourceProfile> profiles{{0.2, 100.0}, {4.0, 100.0}};
  const auto topo = Topology::full_mesh(profiles);
  std::vector<core::AgentInfo> infos(2);
  for (int64_t i = 0; i < 2; ++i) {
    infos[i].id = i;
    infos[i].proc_speed =
        sim::samples_per_sec(topo.profile(i),
                             profile.full_flops_per_sample()) /
        100.0;
    infos[i].num_batches = 50;
    infos[i].tau_solo = 50.0 / infos[i].proc_speed;
  }
  const std::vector<int64_t> participants{0};
  const std::vector<int64_t> helpers{0, 1};

  // Without helpers: agent 0 has nobody to offload to.
  const auto solo = core::pair_agents(profile, infos, topo, 100,
                                      participants);
  EXPECT_TRUE(solo.pairs.empty());

  // With helpers: agent 1 (idle) takes the offload.
  const auto helped = core::pair_agents(profile, infos, topo, 100,
                                        participants, &helpers);
  ASSERT_EQ(helped.pairs.size(), 1u);
  EXPECT_EQ(helped.pairs[0].fast_agent, 1);
  EXPECT_LT(helped.estimated_round_time, infos[0].tau_solo);
}

TEST(Helpers, SamplingFleetStillBalances) {
  const auto spec = nn::resnet56_spec();
  auto cfg = config10();
  cfg.scale.participation = 0.2;
  Rng rng(6);
  SimulatedFleet fleet(spec, cfg,
                       Topology::full_mesh(sim::assign_profiles(20, rng)),
                       std::vector<int64_t>(20, 5000));
  int64_t pairs = 0;
  for (int r = 0; r < 10; ++r) pairs += fleet.step().num_pairs;
  EXPECT_GT(pairs, 0);
}

// ---- execute_pair sweep over every profiled cut ---------------------------------

class CutSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CutSweep, ExecutionInvariantsHoldAtEveryCut) {
  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(spec);
  core::AgentInfo slow, fast;
  slow.id = 0;
  slow.proc_speed = 0.1;
  slow.num_batches = 40;
  slow.tau_solo = 400.0;
  fast.id = 1;
  fast.proc_speed = 2.0;
  fast.num_batches = 10;
  fast.tau_solo = 5.0;
  const size_t cut = GetParam();
  const auto exec = core::execute_pair(profile, slow, fast, cut, 50.0, 100);
  EXPECT_GT(exec.pair_time, 0.0);
  EXPECT_GE(exec.pair_time, exec.slow_finish);
  EXPECT_GE(exec.pair_time, exec.fast_finish - 1e-9);
  EXPECT_GE(exec.slow_idle, 0.0);
  EXPECT_GE(exec.fast_idle, 0.0);
  EXPECT_GT(exec.link_busy, 0.0);
  // The slow side must strictly benefit vs training the whole model.
  const auto& pt = profile.at_cut(cut);
  EXPECT_LT(exec.slow_finish, slow.tau_solo);
  EXPECT_NEAR(exec.slow_finish, 40.0 * pt.t_slow / 0.1, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllCuts, CutSweep,
                         ::testing::Values(1, 5, 10, 19, 28, 37, 46, 55));

// ---- serialization through the wire ----------------------------------------------

TEST(WireRoundTrip, ModelStateSurvivesSerialization) {
  Rng rng(7);
  auto model = nn::small_cnn(3, 5, rng);
  const auto state = nn::state_of(*model);
  const auto bytes = tensor::pack_tensors(state);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()), tensor::wire_bytes(state));

  auto replica = nn::small_cnn(3, 5, rng);  // different init
  nn::load_state(*replica, tensor::unpack_tensors(bytes));
  const auto x = rng.normal_tensor({2, 3, 8, 8}, 0, 1);
  EXPECT_TRUE(tensor::allclose(model->forward(x, false),
                               replica->forward(x, false), 1e-6f));
}

TEST(WireRoundTrip, StateBytesMatchWirePayload) {
  Rng rng(8);
  auto model = nn::tiny_resnet(10, rng);
  const auto state = nn::state_of(*model);
  int64_t payload = 0;
  for (const auto& t : state) payload += t.nbytes();
  EXPECT_EQ(payload, nn::state_bytes(*model));
}

// ---- learncurve scaling laws ------------------------------------------------------

TEST(ScalingLaws, FleetRoundsFactorContinuousAtReference) {
  EXPECT_NEAR(learncurve::fleet_rounds_factor(10), 1.0, 1e-12);
  EXPECT_LT(learncurve::fleet_rounds_factor(2), 0.3);
  EXPECT_GT(learncurve::fleet_rounds_factor(100), 1.3);
  // Monotone in fleet size.
  double prev = 0.0;
  for (const int64_t k : {2, 5, 10, 20, 50, 100, 200}) {
    const double f = learncurve::fleet_rounds_factor(k);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(ScalingLaws, GossipMixingWorsensWithSparsity) {
  EXPECT_DOUBLE_EQ(learncurve::gossip_mixing_factor(1.0), 1.0);
  EXPECT_GT(learncurve::gossip_mixing_factor(0.2),
            learncurve::gossip_mixing_factor(0.5));
  EXPECT_THROW((void)learncurve::gossip_mixing_factor(0.0),
               std::invalid_argument);
}

// ---- failure injection ---------------------------------------------------------------

TEST(FailureInjection, IsolatedSlowAgentTrainsSolo) {
  // Slow agent's links all die: it must not pair and the round degrades to
  // its solo time, not an error.
  const auto spec = nn::resnet56_spec();
  std::vector<sim::ResourceProfile> profiles{
      {0.2, 0.0}, {4.0, 100.0}, {2.0, 100.0}, {1.0, 100.0}};
  SimulatedFleet fleet(spec, config10(), Topology::full_mesh(profiles),
                       std::vector<int64_t>(4, 5000));
  const auto rec = fleet.step();
  EXPECT_DOUBLE_EQ(rec.round_seconds, rec.unbalanced_seconds);
}

TEST(FailureInjection, FullyDisconnectedFleetThrows) {
  const auto spec = nn::resnet56_spec();
  std::vector<sim::ResourceProfile> profiles(4, {1.0, 0.0});
  SimulatedFleet fleet(spec, config10(), Topology::full_mesh(profiles),
                       std::vector<int64_t>(4, 5000));
  EXPECT_THROW((void)fleet.step(), std::invalid_argument);
}

TEST(FailureInjection, ProfileDriftTriggersRepairing) {
  // After a full reshuffle the pairing adapts: decisions before and after
  // differ for at least one round in a drifting fleet.
  const auto spec = nn::resnet56_spec();
  auto cfg = config10();
  cfg.scale.reshuffle_period = 2;
  cfg.scale.reshuffle_fraction = 1.0;
  SimulatedFleet fleet(spec, cfg, mesh10(9), sizes10());
  std::vector<double> times;
  for (int r = 0; r < 6; ++r) times.push_back(fleet.step().round_seconds);
  // Not all rounds identical once profiles drift.
  bool varied = false;
  for (size_t i = 1; i < times.size(); ++i)
    if (std::abs(times[i] - times[0]) > 1e-9) varied = true;
  EXPECT_TRUE(varied);
}

// ---- device churn ------------------------------------------------------------------

TEST(RealWire, PairRoundsReportMeasuredCompression) {
  // The RealFleet measures the codec's achieved ratio on genuine cut
  // activations; it must land in the band the timing model assumes.
  Rng rng(30);
  const auto dataset =
      data::make_synthetic_images(128, 3, {3, 8, 8}, 0.4f, rng);
  const auto parts = data::iid_partition(dataset.size(), 2, rng);
  std::vector<data::Dataset> shards{dataset.subset(parts[0]),
                                    dataset.subset(parts[1])};
  std::vector<sim::ResourceProfile> profiles{{0.2, 100.0}, {4.0, 100.0}};
  core::ModelFactory factory = [](Rng& r) { return nn::small_cnn(3, 3, r); };
  core::RealFleet::Options opt;
  core::RealFleet fleet(factory, 3, std::move(shards),
                        Topology::full_mesh(profiles), opt);
  const auto stats = fleet.step();
  ASSERT_GT(stats.num_pairs, 0);
  EXPECT_GT(stats.mean_wire_compression, 3.0);
  EXPECT_LT(stats.mean_wire_compression, 32.0);
}

TEST(FailureInjection, DropoutSkipsAgentsButRoundsProceed) {
  const auto spec = nn::resnet56_spec();
  auto cfg = config10();
  cfg.scale.agent_dropout = 0.3;
  SimulatedFleet fleet(spec, cfg, mesh10(20), sizes10());
  int64_t dropped = 0;
  for (int r = 0; r < 10; ++r) {
    const auto rec = fleet.step();
    EXPECT_GT(rec.round_seconds, 0.0);
    dropped += rec.dropped_agents;
  }
  // ~30% of 10 agents over 10 rounds: expect a healthy number of failures.
  EXPECT_GT(dropped, 5);
}

TEST(FailureInjection, DropoutNeverBelowTwoAgents) {
  const auto spec = nn::resnet56_spec();
  auto cfg = config10();
  cfg.scale.agent_dropout = 0.95;
  SimulatedFleet fleet(spec, cfg,
                       Topology::full_mesh([&] {
                         Rng rng(21);
                         return sim::assign_profiles(3, rng);
                       }()),
                       std::vector<int64_t>(3, 5000));
  for (int r = 0; r < 10; ++r) {
    const auto rec = fleet.step();
    EXPECT_LE(rec.dropped_agents, 1);  // at least 2 of 3 survive
    EXPECT_GT(rec.round_seconds, 0.0);
  }
}

TEST(FailureInjection, ZeroDropoutMatchesBaselineRun) {
  const auto spec = nn::resnet56_spec();
  auto with = config10();
  with.scale.agent_dropout = 0.0;
  SimulatedFleet a(spec, config10(), mesh10(22), sizes10());
  SimulatedFleet b(spec, with, mesh10(22), sizes10());
  for (int r = 0; r < 3; ++r)
    EXPECT_DOUBLE_EQ(a.step().round_seconds, b.step().round_seconds);
}

// ---- real fleet vs real baselines: shared-task comparison -------------------------

TEST(RealComparison, AllMethodsReachSimilarAccuracy) {
  // The paper's accuracy-parity claim: ComDML matches baseline accuracy
  // (its wins are in time). Train each method on the same shards and
  // require all final accuracies within 15 points of the best.
  Rng rng(10);
  const auto dataset = data::make_blobs(240, 3, 8, 0.3f, rng);
  const auto parts = data::iid_partition(dataset.size(), 4, rng);
  auto shards = [&] {
    std::vector<data::Dataset> s;
    for (const auto& idx : parts) s.push_back(dataset.subset(idx));
    return s;
  };
  std::vector<sim::ResourceProfile> profiles{
      {4.0, 100.0}, {0.2, 100.0}, {2.0, 100.0}, {0.5, 100.0}};
  core::ModelFactory factory = [](Rng& r) {
    return nn::mlp({8, 24, 24, 3}, r);
  };

  std::vector<float> accs;
  {
    core::RealFleet::Options opt;
    opt.train.batches_per_round = 5;
    core::RealFleet fleet(factory, 3, shards(),
                          Topology::full_mesh(profiles), opt);
    for (int r = 0; r < 12; ++r) (void)fleet.step();
    accs.push_back(fleet.evaluate(dataset));
  }
  for (const Method m : {Method::kFedAvg, Method::kAllReduceDML,
                         Method::kBrainTorrent}) {
    core::FleetOptions opt;
    opt.train.batches_per_round = 5;
    auto fleet = core::FleetBuilder()
                     .method(m)
                     .options(opt)
                     .topology(Topology::full_mesh(profiles))
                     .model(factory, 3)
                     .shards(shards())
                     .build();
    for (int r = 0; r < 12; ++r) (void)fleet.step();
    accs.push_back(fleet.evaluate(dataset));
  }
  const float best = *std::max_element(accs.begin(), accs.end());
  for (const float a : accs) EXPECT_GT(a, best - 0.15f);
  EXPECT_GT(best, 0.85f);
}

}  // namespace
}  // namespace comdml
