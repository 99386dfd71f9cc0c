// Shared scenario plumbing for the paper-reproduction benches.
//
// Every bench binary prints the paper's reported numbers next to the values
// this repository measures, with a fixed seed announced up front.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "core/trainer.hpp"

namespace comdml::bench {

using core::FleetOptions;
using core::SimulatedFleet;
using learncurve::Method;
using learncurve::PartitionKind;
using sim::Topology;
using tensor::Rng;

inline constexpr uint64_t kBenchSeed = 20240501;  // arXiv submission date

/// Split-point budget M for the profiled split models in large fleets
/// (paper §III-B: "Consider M split models").
inline constexpr size_t kSplitPoints = 16;

struct Scenario {
  std::string dataset;            // cifar10 | cifar100 | cinic10
  std::string model = "resnet56";  // resnet56 | resnet110
  PartitionKind partition = PartitionKind::kIID;
  int64_t agents = 10;
  double participation = 1.0;
  double target_accuracy = 0.9;
  /// Topology: full mesh unless link_probability < 1.
  double link_probability = 1.0;
  /// If > 0, every agent holds this many samples regardless of fleet size
  /// (Table III scales the fleet, not the per-agent workload: shards are
  /// drawn with replacement from the dataset).
  int64_t fixed_shard_size = 0;
  uint64_t seed = kBenchSeed;
};

inline data::DatasetSpec dataset_spec(const std::string& name) {
  if (name == "cifar10") return data::cifar10_spec();
  if (name == "cifar100") return data::cifar100_spec();
  if (name == "cinic10") return data::cinic10_spec();
  throw std::invalid_argument("unknown dataset " + name);
}

inline nn::ArchitectureSpec model_spec(const std::string& name,
                                       int64_t classes) {
  if (name == "resnet56") return nn::resnet56_spec(classes);
  if (name == "resnet110") return nn::resnet110_spec(classes);
  throw std::invalid_argument("unknown model " + name);
}

inline Topology make_topology(const Scenario& s, Rng& rng) {
  const auto profiles = sim::assign_profiles(s.agents, rng);
  if (s.link_probability >= 1.0) return Topology::full_mesh(profiles);
  // Re-draw until the graph is connected (Fig. 3's premise: training
  // proceeds; a split fleet cannot aggregate).
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto topo = Topology::random_graph(profiles, s.link_probability, rng);
    if (topo.is_connected()) return topo;
  }
  throw std::runtime_error("could not draw a connected random topology");
}

inline FleetOptions make_options(const Scenario& s) {
  FleetOptions o = FleetOptions::paper_defaults();
  o.scale.participation = s.participation;
  o.scale.reshuffle_period = 100;  // dynamic environment after round 100
  o.scale.reshuffle_fraction = 0.2;
  o.scale.max_split_points = kSplitPoints;
  o.seed = s.seed;
  return o;
}

/// Wall-clock (simulated seconds) for `method` to reach the scenario's
/// target accuracy. Simulates min(rounds, horizon) rounds and uses the
/// recorded per-round times (extrapolating past the horizon at the mean
/// recorded rate — per-round times are stationary after the round-100
/// reshuffle).
inline double time_to_accuracy(Method method, const Scenario& s,
                               int64_t horizon = 220) {
  const auto dspec = dataset_spec(s.dataset);
  const auto mspec = model_spec(s.model, dspec.classes);
  Rng rng(s.seed);
  auto topology = make_topology(s, rng);
  auto sizes = s.fixed_shard_size > 0
                   ? std::vector<int64_t>(static_cast<size_t>(s.agents),
                                          s.fixed_shard_size)
                   : core::shard_sizes_for(dspec, s.agents, s.partition, rng);

  const auto curve = learncurve::make_accuracy_model(
      s.dataset, s.model, s.partition, method, s.participation);
  const auto base_rounds = curve.rounds_to(s.target_accuracy);
  if (!base_rounds) return std::nan("");
  double rounds_needed =
      *base_rounds * learncurve::fleet_rounds_factor(s.agents);
  if (method == Method::kGossip)
    rounds_needed *= learncurve::gossip_mixing_factor(s.link_probability);
  const auto rounds = std::optional<double>(rounds_needed);

  const auto sim_rounds =
      std::min<int64_t>(horizon, static_cast<int64_t>(std::ceil(*rounds)));
  SimulatedFleet fleet(mspec, make_options(s), std::move(topology),
                       std::move(sizes), method);
  return fleet.run(sim_rounds).time_for_rounds(*rounds);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n==== %s ====\n", title);
  std::printf("reproduces: %s   (seed %llu)\n", paper_ref,
              static_cast<unsigned long long>(kBenchSeed));
}

}  // namespace comdml::bench
