// ComDML core tests: split profiling, AgentTrainingTime estimation, the
// greedy decentralized pairing scheduler, the exact reference optimizer and
// the batch-level pair execution model.
#include <gtest/gtest.h>

#include <numeric>

#include "core/execution.hpp"
#include "core/optimizer_exact.hpp"
#include "core/trainer.hpp"

namespace comdml::core {
namespace {

using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;

SplitProfile resnet56_profile(size_t max_points = 0) {
  return SplitProfile::from_spec(nn::resnet56_spec(), max_points);
}

AgentInfo make_agent(int64_t id, double speed, int64_t batches) {
  AgentInfo a;
  a.id = id;
  a.proc_speed = speed;
  a.num_batches = batches;
  a.tau_solo = static_cast<double>(batches) / speed;
  return a;
}

// ---- profile -------------------------------------------------------------------

TEST(SplitProfile, ProfilesEveryInteriorCut) {
  const auto p = resnet56_profile();
  EXPECT_EQ(p.points().size(), 55u);  // 56 units -> 55 interior boundaries
}

TEST(SplitProfile, RelativeTimesPartitionUnity) {
  const auto p = resnet56_profile();
  for (const auto& pt : p.points()) {
    EXPECT_GT(pt.t_slow, 0.0);
    EXPECT_GT(pt.t_fast, 0.0);
    EXPECT_NEAR(pt.t_slow + pt.t_fast, 1.0, 1e-12);
  }
}

TEST(SplitProfile, SlowShareMonotoneInCut) {
  const auto p = resnet56_profile();
  for (size_t i = 1; i < p.points().size(); ++i)
    EXPECT_GT(p.points()[i].t_slow, p.points()[i - 1].t_slow);
}

TEST(SplitProfile, SuffixBytesMonotoneDecreasing) {
  const auto p = resnet56_profile();
  for (size_t i = 1; i < p.points().size(); ++i)
    EXPECT_LE(p.points()[i].suffix_param_bytes,
              p.points()[i - 1].suffix_param_bytes);
}

TEST(SplitProfile, MaxPointsSubsamplesEvenly) {
  const auto p = resnet56_profile(8);
  EXPECT_EQ(p.points().size(), 8u);
  EXPECT_EQ(p.points().front().cut, 1u);
  EXPECT_EQ(p.points().back().cut, 55u);
}

TEST(SplitProfile, AtCutFindsPoint) {
  const auto p = resnet56_profile();
  EXPECT_EQ(p.at_cut(19).cut, 19u);
  EXPECT_THROW((void)p.at_cut(56), std::invalid_argument);
}

TEST(SplitProfile, OffloadedFractionComplementsSlowShare) {
  const auto p = resnet56_profile();
  EXPECT_NEAR(p.offloaded_fraction(10), 1.0 - p.at_cut(10).t_slow, 1e-12);
}

TEST(SplitProfile, ModelBytesMatchSpec) {
  const auto spec = nn::resnet56_spec();
  const auto p = SplitProfile::from_spec(spec);
  EXPECT_EQ(p.model_state_bytes(), spec.total_param_bytes());
  EXPECT_DOUBLE_EQ(p.full_flops_per_sample(), spec.total_flops());
}

TEST(SplitProfile, RejectsSingleUnitModels) {
  nn::ArchitectureSpec spec;
  spec.name = "degenerate";
  spec.units.resize(1);
  EXPECT_THROW((void)SplitProfile::from_spec(spec), std::invalid_argument);
}

// ---- best_split ------------------------------------------------------------------

TEST(BestSplit, FastLinkFastPeerFindsSplit) {
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 50);   // tau = 500 s
  const auto fast = make_agent(1, 2.0, 10);   // tau = 5 s
  const auto choice = best_split(p, slow, fast, 100.0, 100);
  ASSERT_TRUE(choice.has_value());
  EXPECT_LT(choice->time, slow.tau_solo);
  EXPECT_GT(choice->comm_time, 0.0);
}

TEST(BestSplit, NoLinkNoSplit) {
  const auto p = resnet56_profile();
  EXPECT_FALSE(best_split(p, make_agent(0, 0.1, 50), make_agent(1, 2.0, 10),
                          0.0, 100)
                   .has_value());
}

TEST(BestSplit, BetterLinkNeverWorse) {
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 50);
  const auto fast = make_agent(1, 2.0, 10);
  const auto slow_link = best_split(p, slow, fast, 10.0, 100);
  const auto fast_link = best_split(p, slow, fast, 100.0, 100);
  ASSERT_TRUE(slow_link && fast_link);
  EXPECT_LE(fast_link->time, slow_link->time);
}

TEST(BestSplit, SlowerLinkOffloadsLess) {
  // With an expensive link, the optimum keeps more work local (larger cut,
  // i.e. later split -> smaller activation volume and less offload).
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 50);
  const auto fast = make_agent(1, 2.0, 10);
  const auto cheap = best_split(p, slow, fast, 100.0, 100);
  const auto costly = best_split(p, slow, fast, 5.0, 100);
  ASSERT_TRUE(cheap && costly);
  EXPECT_GE(costly->cut, cheap->cut);
}

TEST(BestSplit, EstimateIsMaxOfSides) {
  // With a single profiled split, verify the arithmetic of
  // tau_ij = max(N/p_i^m, tau_j + comm + N/p_j^m) exactly.
  nn::ArchitectureSpec spec;
  spec.name = "two-unit";
  spec.units.resize(2);
  spec.units[0] = {"a", 600.0, 1200.0, 400, 1000, 0};
  spec.units[1] = {"b", 200.0, 400.0, 400, 8, 0};
  const auto p = SplitProfile::from_spec(spec);
  ASSERT_EQ(p.points().size(), 1u);
  const auto& pt = p.points()[0];
  EXPECT_NEAR(pt.t_slow, 0.75, 1e-12);  // 1800 of 2400 FLOPs

  const auto slow = make_agent(0, 1.0, 10);
  const auto fast = make_agent(1, 4.0, 2);
  const double link_mbps = 8.0;  // 1e6 bytes/sec
  const auto choice = best_split(p, slow, fast, link_mbps, 100);
  ASSERT_TRUE(choice.has_value());
  const double slow_side = 10.0 / (1.0 / 0.75);
  const double comm =
      10.0 * (1008.0 * 100.0) / 1e6 + 2.0 * 400.0 / 1e6;
  const double fast_side = fast.tau_solo + comm + 10.0 / (4.0 / 0.25);
  EXPECT_NEAR(choice->time, std::max(slow_side, fast_side), 1e-9);
}

// ---- pair_agents -----------------------------------------------------------------

std::vector<AgentInfo> heterogeneous_fleet(const SplitProfile& p,
                                           const Topology& topo,
                                           int64_t batch_size,
                                           int64_t samples_per_agent) {
  std::vector<AgentInfo> infos;
  for (int64_t i = 0; i < topo.agents(); ++i) {
    const double sps = sim::samples_per_sec(topo.profile(i),
                                            p.full_flops_per_sample());
    AgentInfo a;
    a.id = i;
    a.proc_speed = sps / static_cast<double>(batch_size);
    a.num_batches = samples_per_agent / batch_size;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
    infos.push_back(a);
  }
  return infos;
}

TEST(PairAgents, BalancingBeatsNoOffloading) {
  const auto p = resnet56_profile();
  std::vector<ResourceProfile> profiles{{4.0, 100}, {2.0, 100}, {1.0, 100},
                                        {0.5, 100}, {0.2, 100}, {4.0, 50},
                                        {0.2, 50},  {1.0, 50},  {2.0, 20},
                                        {0.5, 20}};
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 5000);
  std::vector<int64_t> parts(10);
  std::iota(parts.begin(), parts.end(), 0);
  const auto result = pair_agents(p, infos, topo, 100, parts);
  double unbalanced = 0;
  for (const auto& a : infos) unbalanced = std::max(unbalanced, a.tau_solo);
  EXPECT_GT(result.pairs.size(), 0u);
  EXPECT_LT(result.estimated_round_time, 0.8 * unbalanced);
}

TEST(PairAgents, EveryAgentAssignedExactlyOnce) {
  const auto p = resnet56_profile();
  Rng rng(3);
  const auto profiles = sim::assign_profiles(20, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 2500);
  std::vector<int64_t> parts(20);
  std::iota(parts.begin(), parts.end(), 0);
  const auto result = pair_agents(p, infos, topo, 100, parts);
  std::vector<int> seen(20, 0);
  for (const auto& pr : result.pairs) {
    ++seen[static_cast<size_t>(pr.slow_agent)];
    ++seen[static_cast<size_t>(pr.fast_agent)];
  }
  for (const int64_t id : result.solo) ++seen[static_cast<size_t>(id)];
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], 1);
}

TEST(PairAgents, OffloadGoesToFasterAgent) {
  const auto p = resnet56_profile();
  Rng rng(4);
  const auto profiles = sim::assign_profiles(10, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 5000);
  std::vector<int64_t> parts(10);
  std::iota(parts.begin(), parts.end(), 0);
  const auto result = pair_agents(p, infos, topo, 100, parts);
  for (const auto& pr : result.pairs)
    EXPECT_LT(infos[static_cast<size_t>(pr.fast_agent)].tau_solo,
              infos[static_cast<size_t>(pr.slow_agent)].tau_solo);
}

TEST(PairAgents, PairEstimateBeatsSlowSolo) {
  const auto p = resnet56_profile();
  Rng rng(5);
  const auto profiles = sim::assign_profiles(12, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 4000);
  std::vector<int64_t> parts(12);
  std::iota(parts.begin(), parts.end(), 0);
  const auto result = pair_agents(p, infos, topo, 100, parts);
  for (const auto& pr : result.pairs)
    EXPECT_LT(pr.estimated_time,
              infos[static_cast<size_t>(pr.slow_agent)].tau_solo);
}

TEST(PairAgents, HomogeneousFleetStaysSolo) {
  const auto p = resnet56_profile();
  std::vector<ResourceProfile> profiles(6, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 5000);
  std::vector<int64_t> parts(6);
  std::iota(parts.begin(), parts.end(), 0);
  const auto result = pair_agents(p, infos, topo, 100, parts);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.solo.size(), 6u);
}

TEST(PairAgents, DisconnectedTopologyStaysSolo) {
  const auto p = resnet56_profile();
  Rng rng(6);
  std::vector<ResourceProfile> profiles{{4.0, 100}, {0.2, 100}};
  auto topo = Topology::random_graph(profiles, 0.0, rng);  // no links
  const auto infos = heterogeneous_fleet(p, topo, 100, 5000);
  const auto result = pair_agents(p, infos, topo, 100, {0, 1});
  EXPECT_TRUE(result.pairs.empty());
}

TEST(PairAgents, RespectsParticipationSubset) {
  const auto p = resnet56_profile();
  Rng rng(7);
  const auto profiles = sim::assign_profiles(10, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 5000);
  const std::vector<int64_t> parts{1, 3, 5};
  const auto result = pair_agents(p, infos, topo, 100, parts);
  std::set<int64_t> assigned;
  for (const auto& pr : result.pairs) {
    assigned.insert(pr.slow_agent);
    assigned.insert(pr.fast_agent);
  }
  for (const int64_t id : result.solo) assigned.insert(id);
  EXPECT_EQ(assigned, std::set<int64_t>(parts.begin(), parts.end()));
}

// ---- exact optimizer ----------------------------------------------------------------

TEST(ExactPairing, NeverWorseThanGreedy) {
  const auto p = resnet56_profile(12);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(100 + seed);
    const auto profiles = sim::assign_profiles(8, rng);
    const auto topo = Topology::full_mesh(profiles);
    const auto infos = heterogeneous_fleet(p, topo, 100, 4000);
    std::vector<int64_t> parts(8);
    std::iota(parts.begin(), parts.end(), 0);
    const auto greedy = pair_agents(p, infos, topo, 100, parts);
    const auto exact = optimal_pairing(p, infos, topo, 100, parts);
    EXPECT_LE(exact.estimated_round_time,
              greedy.estimated_round_time + 1e-9)
        << "seed " << seed;
  }
}

TEST(ExactPairing, ReconstructionMatchesValue) {
  const auto p = resnet56_profile(12);
  Rng rng(8);
  const auto profiles = sim::assign_profiles(7, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 3000);
  std::vector<int64_t> parts(7);
  std::iota(parts.begin(), parts.end(), 0);
  const auto exact = optimal_pairing(p, infos, topo, 100, parts);
  double worst = 0;
  for (const auto& pr : exact.pairs)
    worst = std::max(worst, pr.estimated_time);
  for (const int64_t id : exact.solo)
    worst = std::max(worst, infos[static_cast<size_t>(id)].tau_solo);
  EXPECT_NEAR(worst, exact.estimated_round_time, 1e-9);
}

TEST(ExactPairing, CapsFleetSize) {
  const auto p = resnet56_profile(4);
  Rng rng(9);
  const auto profiles = sim::assign_profiles(24, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 1000);
  std::vector<int64_t> parts(24);
  std::iota(parts.begin(), parts.end(), 0);
  EXPECT_THROW((void)optimal_pairing(p, infos, topo, 100, parts),
               std::invalid_argument);
}

TEST(RandomPairing, AssignsEveryoneOnce) {
  const auto p = resnet56_profile(12);
  Rng rng(10);
  const auto profiles = sim::assign_profiles(9, rng);
  const auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 3000);
  std::vector<int64_t> parts(9);
  std::iota(parts.begin(), parts.end(), 0);
  Rng prng(11);
  const auto result = random_pairing(p, infos, topo, 100, parts, prng);
  std::vector<int> seen(9, 0);
  for (const auto& pr : result.pairs) {
    ++seen[static_cast<size_t>(pr.slow_agent)];
    ++seen[static_cast<size_t>(pr.fast_agent)];
  }
  for (const int64_t id : result.solo) ++seen[static_cast<size_t>(id)];
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(StaticPairing, ReusesRoundZeroPairs) {
  const auto p = resnet56_profile(12);
  // Strongly heterogeneous fleet on fast links: every round-0 pair improves.
  std::vector<ResourceProfile> profiles{{4.0, 100}, {0.2, 100}, {2.0, 100},
                                        {0.3, 100}, {1.0, 100}, {0.5, 100}};
  auto topo = Topology::full_mesh(profiles);
  const auto infos = heterogeneous_fleet(p, topo, 100, 3000);
  std::vector<int64_t> parts(6);
  std::iota(parts.begin(), parts.end(), 0);
  StaticPairing sp;
  const auto first = sp.apply(p, infos, topo, 100, parts);
  // Perturb the profiles; static pairing must keep the same partner sets.
  auto shuffled = profiles;
  std::reverse(shuffled.begin(), shuffled.end());
  topo.set_profiles(shuffled);
  const auto infos2 = heterogeneous_fleet(p, topo, 100, 3000);
  const auto second = sp.apply(p, infos2, topo, 100, parts);
  auto pair_set = [](const PairingResult& r) {
    std::set<std::pair<int64_t, int64_t>> s;
    for (const auto& pr : r.pairs)
      s.insert({std::min(pr.slow_agent, pr.fast_agent),
                std::max(pr.slow_agent, pr.fast_agent)});
    return s;
  };
  for (const auto& pr : pair_set(second))
    EXPECT_TRUE(pair_set(first).count(pr) > 0);
}

// ---- pair execution -----------------------------------------------------------------

TEST(ExecutePair, TracksSchedulerEstimateClosely) {
  // Algorithm 1's tau_ij serializes comm after the fast agent's own task
  // and ignores producer-side arrival constraints, so the batch-level
  // execution can land slightly on either side of it — but never far:
  // it is bounded below by each single stage and above by the fully
  // serialized schedule.
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 50);
  const auto fast = make_agent(1, 2.0, 10);
  for (const double link : {10.0, 20.0, 50.0, 100.0}) {
    const auto choice = best_split(p, slow, fast, link, 100);
    if (!choice) continue;
    const auto exec = execute_pair(p, slow, fast, choice->cut, link, 100);
    const auto& pt = p.at_cut(choice->cut);
    const double slow_side = 50.0 * pt.t_slow / 0.1;
    const double serial = slow_side + fast.tau_solo + exec.link_busy +
                          50.0 * pt.t_fast / 2.0;
    EXPECT_GE(exec.pair_time, slow_side) << link;
    EXPECT_LE(exec.pair_time, serial + 1e-9) << link;
    // Pipelining can run up to ~2x faster than the serialized estimate on
    // comm-dominated links and a few percent slower when producer-side
    // arrival constraints bind.
    const double ratio = exec.pair_time / choice->time;
    EXPECT_GE(ratio, 0.5) << link;
    EXPECT_LE(ratio, 1.10) << link;
  }
}

TEST(ExecutePair, SlowSideTimeExact) {
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 50);
  const auto fast = make_agent(1, 2.0, 10);
  const auto choice = best_split(p, slow, fast, 100.0, 100);
  ASSERT_TRUE(choice);
  const auto exec = execute_pair(p, slow, fast, choice->cut, 100.0, 100);
  const auto& pt = p.at_cut(choice->cut);
  EXPECT_NEAR(exec.slow_finish, 50.0 * pt.t_slow / 0.1, 1e-9);
}

TEST(ExecutePair, IdleTimesNonNegative) {
  const auto p = resnet56_profile();
  const auto exec = execute_pair(p, make_agent(0, 0.1, 50),
                                 make_agent(1, 2.0, 10), 28, 50.0, 100);
  EXPECT_GE(exec.slow_idle, 0.0);
  EXPECT_GE(exec.fast_idle, 0.0);
  EXPECT_GE(exec.pair_time, exec.slow_finish);
  EXPECT_GE(exec.pair_time, exec.fast_finish);
}

TEST(ExecutePair, LinkBusyCountsAllTransfers) {
  const auto p = resnet56_profile();
  const auto slow = make_agent(0, 0.1, 20);
  const auto exec =
      execute_pair(p, slow, make_agent(1, 2.0, 10), 28, 50.0, 100);
  const auto& pt = p.at_cut(28);
  const double expected =
      (2.0 * pt.suffix_param_bytes +
       20.0 * 100.0 * static_cast<double>(pt.nu_bytes)) /
      comm::bytes_per_sec(50.0);
  EXPECT_NEAR(exec.link_busy, expected, 1e-6);
}

TEST(ExecutePair, RequiresUsableLink) {
  const auto p = resnet56_profile();
  EXPECT_THROW((void)execute_pair(p, make_agent(0, 0.1, 20),
                                  make_agent(1, 2.0, 10), 28, 0.0, 100),
               std::invalid_argument);
}

// ---- shard sizes ----------------------------------------------------------------------

TEST(ShardSizes, IidEqualSplit) {
  Rng rng(13);
  const auto sizes = shard_sizes_for(data::cifar10_spec(), 10,
                                     learncurve::PartitionKind::kIID, rng);
  for (const int64_t s : sizes) EXPECT_EQ(s, 5000);
}

TEST(ShardSizes, DirichletNearlySumsToTotal) {
  Rng rng(14);
  const auto sizes =
      shard_sizes_for(data::cifar10_spec(), 10,
                      learncurve::PartitionKind::kDirichlet05, rng);
  int64_t total = 0;
  for (const int64_t s : sizes) {
    EXPECT_GE(s, 1);
    total += s;
  }
  // Per-class floor rounding can drop at most one sample per (class, agent).
  EXPECT_LE(total, 50000);
  EXPECT_GE(total, 50000 - 10 * 10);
}

TEST(ShardSizes, DirichletLabelSkewSpreadsSizes) {
  Rng rng(15);
  const auto sizes =
      shard_sizes_for(data::cifar10_spec(), 10,
                      learncurve::PartitionKind::kDirichlet05, rng);
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  // Label-distribution skew varies shard sizes moderately (sums of
  // per-class Dirichlet draws), far from the IID equal split...
  EXPECT_GT(*mx, static_cast<int64_t>(1.3 * static_cast<double>(*mn)));
  // ...but never produces the single giant shard of quantity skew.
  EXPECT_LT(*mx, 5 * *mn);
}

}  // namespace
}  // namespace comdml::core
