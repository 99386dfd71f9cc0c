// Real-training implementations of the FedAvg, FedProx, gossip and
// BrainTorrent baselines on small models: every agent holds a replica +
// shard; one round = local full-model training followed by the method's
// aggregation pattern. AllReduce-DML is not here: it is core::RealFleet with
// pairing off. Used by integration tests and examples to compare learning
// behaviour against ComDML's RealFleet.
#pragma once

#include "core/real_fleet.hpp"
#include "core/round_stats.hpp"

namespace comdml::baselines {

class RealBaselineFleet {
 public:
  /// Alias of the shared layered fleet options (the drifted local copy of
  /// the SGD/batch/seed fields is gone): `train.prox_mu` holds the FedProx
  /// proximal coefficient, `comms.server_mbps` the FedAvg/FedProx server
  /// bandwidth.
  using Options = core::FleetOptions;

  RealBaselineFleet(learncurve::Method method,
                    const core::ModelFactory& factory, int64_t classes,
                    std::vector<data::Dataset> shards,
                    sim::Topology topology, Options options);

  /// One round. Fills mean_loss, the executed traffic of the aggregation
  /// pattern when it runs through a comm::Transport collective (gossip,
  /// param-server; 0 for the local BrainTorrent mean): aggregation_seconds
  /// and aggregation_bytes (max bytes any endpoint sent), compute_seconds
  /// (the slowest agent's modeled solo time, core::modeled_agent — what
  /// RealFleet's pairing sees) and round_seconds = compute_seconds +
  /// aggregation_seconds.
  core::RoundReport step();

  /// Accuracy of agent 0's model on a held-out set (post-aggregation all
  /// replicas agree for FedAvg/FedProx/BrainTorrent; gossip replicas may
  /// differ, agent 0 is the reporting convention).
  [[nodiscard]] float evaluate(const data::Dataset& test);

  [[nodiscard]] int64_t agents() const noexcept {
    return static_cast<int64_t>(models_.size());
  }
  [[nodiscard]] nn::Sequential& model(int64_t agent);

 private:
  learncurve::Method method_;
  Options options_;
  std::vector<data::Dataset> shards_;
  sim::Topology topology_;
  tensor::Rng rng_;
  std::vector<std::unique_ptr<nn::Sequential>> models_;
  std::vector<std::unique_ptr<data::Batcher>> batchers_;
  /// Per-agent SGD momentum, carried across the per-round optimizers as
  /// RealFleet carries AgentState::velocity (empty before round 0).
  std::vector<std::vector<tensor::Tensor>> velocities_;
  /// Per-round merge buffers of the local means, reused across rounds.
  std::vector<std::vector<tensor::Tensor>> state_scratch_;
  /// One whole-state bucket: the flatten layout of the collectives.
  nn::BucketPlan bucket_plan_;
  /// Forward+backward FLOPs per sample of the model (the modeled clock).
  double flops_per_sample_ = 0.0;

  /// `anchors` (FedProx only, else nullptr): the round-start value of each
  /// of the model's parameters(), in order.
  float train_locally(size_t agent,
                      const std::vector<tensor::Tensor>* anchors);
  /// The method's aggregation pattern over the trained replicas.
  void aggregate(core::RoundReport& stats);
  /// Every agent's state, copied into state_scratch_.
  std::vector<std::vector<tensor::Tensor>>& gather_states();
  /// Runs `protocol` over `transport` on every agent's flattened state
  /// (`req.elems` and `req.buffers` are filled here) and writes the
  /// results back into the models.
  void run_collective(comm::Protocol protocol, comm::Transport& transport,
                      comm::CollectiveRequest req);
};

/// Plain arithmetic mean across agents' states (no traffic).
[[nodiscard]] std::vector<tensor::Tensor> mean_state(
    const std::vector<std::vector<tensor::Tensor>>& agent_states);

/// Weighted mean with per-agent weights (FedAvg-style N_i/N weighting).
[[nodiscard]] std::vector<tensor::Tensor> weighted_mean_state(
    const std::vector<std::vector<tensor::Tensor>>& agent_states,
    const std::vector<double>& weights);

}  // namespace comdml::baselines
