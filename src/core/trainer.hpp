// Paper-scale ComDML fleet simulator.
//
// Drives the full per-round workflow of Algorithm 1 on the discrete-event
// simulator: broadcast -> decentralized pairing -> batch-level pair/solo
// execution -> AllReduce aggregation, with participation sampling and
// dynamic resource-profile reshuffling. Produces RoundReports that the
// benches combine with the learning-curve model into time-to-accuracy
// tables (Tables II, III; Fig. 3).
#pragma once

#include <functional>

#include "core/config.hpp"
#include "core/execution.hpp"
#include "core/optimizer_exact.hpp"
#include "core/round_stats.hpp"
#include "sim/event_queue.hpp"

namespace comdml::core {

/// Scheduler variants (ablation A1; kComDML is the paper's Algorithm 1).
enum class Scheduler {
  kComDML,
  kNoOffloading,  ///< AllReduce-DML: everyone trains the full model
  kRandom,
  kStatic,
  kExact,  ///< reference integer-program optimum (small fleets only)
};

class SimulatedFleet {
 public:
  /// `shard_sizes[i]` = samples held by agent i of `topology`. Reads
  /// `train.batch_size`, `scale`, `comms`, `privacy.technique` and `seed`.
  SimulatedFleet(const nn::ArchitectureSpec& spec, FleetOptions options,
                 sim::Topology topology, std::vector<int64_t> shard_sizes,
                 Scheduler scheduler = Scheduler::kComDML);

  /// Execute one round; advances the fleet's simulated clock.
  RoundReport step();

  /// Execute `rounds` rounds.
  RunReport run(int64_t rounds);

  [[nodiscard]] const SplitProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const sim::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] int64_t rounds_executed() const noexcept { return round_; }

  /// Broadcast infos for the current profiles (visible for tests/benches).
  [[nodiscard]] std::vector<AgentInfo> agent_infos() const;

 private:
  FleetOptions options_;
  SplitProfile profile_;
  sim::Topology topology_;
  std::vector<int64_t> shard_sizes_;
  Scheduler scheduler_;
  tensor::Rng rng_;
  StaticPairing static_pairing_;
  int64_t round_ = 0;

  [[nodiscard]] PairingResult schedule(const std::vector<AgentInfo>& infos,
                                       const std::vector<int64_t>& parts);
};

/// The agents of a paper-scale round: all `agents` at participation 1,
/// otherwise max(2, floor(participation * agents)) distinct agents (at
/// most `agents`) drawn from `rng`, in ascending order.
[[nodiscard]] std::vector<int64_t> sample_participants(int64_t agents,
                                                       double participation,
                                                       tensor::Rng& rng);

/// Dynamic environment: every `scale.reshuffle_period` rounds after round
/// 0, re-draw `scale.reshuffle_fraction` of the topology's profiles.
void reshuffle_profiles_if_due(sim::Topology& topology,
                               const FleetOptions::ScaleOptions& scale,
                               int64_t round, tensor::Rng& rng);

/// Samples-per-agent for a paper dataset under a partition scheme
/// (IID: equal shards; Dirichlet: proportions ~ Dirichlet(alpha) with a
/// one-batch minimum).
[[nodiscard]] std::vector<int64_t> shard_sizes_for(
    const data::DatasetSpec& dataset, int64_t agents,
    learncurve::PartitionKind partition, tensor::Rng& rng,
    double alpha = 0.5);

}  // namespace comdml::core
