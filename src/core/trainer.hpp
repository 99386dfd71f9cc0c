// Paper-scale fleet simulator: the one timing engine of every method.
//
// Drives the per-round workflow of Algorithm 1 on the discrete-event
// simulator: broadcast -> decentralized pairing -> batch-level pair/solo
// execution -> the method's aggregation, with participation sampling,
// device churn and dynamic resource-profile reshuffling. Every method but
// ComDML runs with pairing off (every agent trains the full model solo)
// and differs only in how the round closes: AllReduce (ComDML,
// AllReduce-DML), a param-server star (FedAvg, FedProx), a gossip push or
// BrainTorrent's elected aggregator. Produces RoundReports that the
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

/// Pairing-scheduler variants of the ComDML simulation (ablation A1;
/// kComDML is the paper's Algorithm 1). No offloading is
/// Method::kAllReduceDML.
enum class Scheduler {
  kComDML,
  kRandom,
  kStatic,
  kExact,  ///< reference integer-program optimum (small fleets only)
};

class SimulatedFleet {
 public:
  /// `shard_sizes[i]` = samples held by agent i of `topology`. Reads
  /// `train.batch_size`, `scale`, `comms`, `privacy.technique` and `seed`.
  /// Every `method` but kComDML runs with pairing off; `scheduler`
  /// ablations apply to kComDML only.
  SimulatedFleet(const nn::ArchitectureSpec& spec, FleetOptions options,
                 sim::Topology topology, std::vector<int64_t> shard_sizes,
                 learncurve::Method method = learncurve::Method::kComDML,
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

  /// Broadcast infos for the current profiles (visible for tests/benches):
  /// batch-granular solo times, slowed by the method's compute overhead.
  [[nodiscard]] std::vector<AgentInfo> agent_infos() const;

 private:
  FleetOptions options_;
  SplitProfile profile_;
  sim::Topology topology_;
  std::vector<int64_t> shard_sizes_;
  learncurve::Method method_;
  Scheduler scheduler_;
  tensor::Rng rng_;
  StaticPairing static_pairing_;
  int64_t round_ = 0;

  /// How the round ends once the participants have trained.
  struct RoundClose {
    double round_seconds = 0.0;
    double aggregation_seconds = 0.0;
  };

  [[nodiscard]] PairingResult schedule(const std::vector<AgentInfo>& infos,
                                       const std::vector<int64_t>& parts);
  /// The method's aggregation rule over `finish[id]`, each agent's
  /// training finish time (only the participants' count, except a gossip
  /// partner outside the sample).
  [[nodiscard]] RoundClose close_round(const std::vector<int64_t>& parts,
                                       const std::vector<double>& finish);
};

/// Proximal-term compute overhead of FedProx (extra gradient term).
inline constexpr double kFedProxComputeOverhead = 1.05;

/// Per-agent down+up time of one param-server round over the selected
/// agents (FedAvg / FedProx): a SimTransport run of the registry's
/// param_server collective on param_server_grid.
[[nodiscard]] std::vector<double> server_round_times(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, int64_t model_bytes,
    const FleetOptions::CommOptions& comms);

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
