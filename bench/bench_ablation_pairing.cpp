// Ablation A1 (DESIGN.md): the decentralized greedy pairing scheduler vs
// the exact integer-program optimum, random pairing, static pairing and no
// offloading (AllReduce-DML: the same fleet with pairing off) — simulated
// round time over seeds, 10-agent fleets.
#include <numeric>

#include "bench_util.hpp"

int main() {
  using namespace comdml;
  using namespace comdml::bench;
  using core::Scheduler;
  print_header("Ablation: pairing scheduler variants (10 agents, ResNet-56)",
               "design-choice ablation, paper SecIV-A");

  const auto spec = nn::resnet56_spec();
  const struct {
    const char* label;
    Scheduler scheduler;
    Method method = Method::kComDML;
  } variants[] = {
      {"greedy (ComDML Algorithm 1)", Scheduler::kComDML},
      {"exact integer program", Scheduler::kExact},
      {"random pairing", Scheduler::kRandom},
      {"static pairing", Scheduler::kStatic},
      {"no offloading", Scheduler::kComDML, Method::kAllReduceDML},
  };

  std::printf("%-30s %14s %14s\n", "scheduler", "mean round(s)",
              "vs no-offload");
  double mean_of[5] = {};
  for (int v = 0; v < 5; ++v) {
    double total = 0;
    const int kSeeds = 8;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      Scenario s;
      s.dataset = "cifar10";
      s.agents = 10;
      s.seed = kBenchSeed + seed;
      Rng rng(s.seed);
      auto topo = make_topology(s, rng);
      auto sizes = core::shard_sizes_for(dataset_spec("cifar10"), 10,
                                         PartitionKind::kIID, rng);
      auto opts = make_options(s);
      opts.scale.max_split_points = 12;  // keep the exact solver tractable
      core::SimulatedFleet fleet(spec, opts, std::move(topo),
                                 std::move(sizes), variants[v].method,
                                 variants[v].scheduler);
      total += fleet.step().round_seconds;
    }
    mean_of[v] = total / 8.0;
  }
  for (int v = 0; v < 5; ++v)
    std::printf("%-30s %14.1f %13.0f%%\n", variants[v].label, mean_of[v],
                100.0 * (1.0 - mean_of[v] / mean_of[4]));

  const bool ok = mean_of[0] < mean_of[2] && mean_of[0] < mean_of[3] &&
                  mean_of[0] < mean_of[4] &&
                  mean_of[1] <= mean_of[0] * 1.02;
  std::printf(
      "\nshape checks: greedy beats random/static/none and sits within 2%% "
      "of the exact optimum -> %s\n",
      ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}
