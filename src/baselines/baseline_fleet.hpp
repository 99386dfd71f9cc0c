// Paper-scale timing simulation of the comparison methods (Table II/III,
// Fig. 3): FedAvg, FedProx, Gossip Learning, BrainTorrent, and plain
// decentralized AllReduce. Every method trains the *full* model locally
// (none of them balances workload); they differ in how updates move.
#pragma once

#include "core/trainer.hpp"
#include "sim/resources.hpp"

namespace comdml::baselines {

using learncurve::Method;

class BaselineFleet {
 public:
  /// `shard_sizes[i]` = samples held by agent i of `topology`. Reads
  /// `scale`, `comms`, `privacy.technique` and `seed`; refuses
  /// `scale.agent_dropout` > 0, since only the ComDML simulation models
  /// device churn.
  BaselineFleet(Method method, const nn::ArchitectureSpec& spec,
                core::FleetOptions options, sim::Topology topology,
                std::vector<int64_t> shard_sizes);

  core::RoundReport step();
  core::RunReport run(int64_t rounds);

  [[nodiscard]] Method method() const noexcept { return method_; }
  [[nodiscard]] int64_t model_bytes() const noexcept { return model_bytes_; }

 private:
  Method method_;
  core::FleetOptions options_;
  sim::Topology topology_;
  std::vector<int64_t> shard_sizes_;
  double flops_per_sample_;
  int64_t model_bytes_;
  tensor::Rng rng_;
  int64_t round_ = 0;

  [[nodiscard]] std::vector<double> solo_times(
      const std::vector<int64_t>& participants) const;
};

/// Proximal-term compute overhead used for FedProx (extra gradient term).
inline constexpr double kFedProxComputeOverhead = 1.05;

// Central parameter-server communication (FedAvg / FedProx). Each selected
// agent downloads the global model and uploads its update through its own
// access link; the server's aggregate bandwidth `comms.server_mbps` is
// shared across concurrent transfers, which is exactly the
// central-bottleneck effect the paper attributes to server-based FL
// (§V-B-2). The round is the registry's param_server collective.

/// Star grid for one server round: endpoints 0..K-1 are the agents,
/// endpoint K the server; agent i's edge runs at
/// min(link_i, comms.server_mbps / #selected) with `comms.latency_sec`.
/// Throws if a selected agent has no uplink.
[[nodiscard]] comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected,
    const core::FleetOptions::CommOptions& comms);

/// Per-agent down+up time for the selected agents (SimTransport run of the
/// real round schedule).
[[nodiscard]] std::vector<double> server_round_times(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, int64_t model_bytes,
    const core::FleetOptions::CommOptions& comms);

}  // namespace comdml::baselines
