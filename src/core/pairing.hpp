// Dynamic decentralized pairing scheduler (paper Algorithm 1).
//
// Each round, agents broadcast (processing speed p_j, estimated individual
// training time tau_j) to their neighbors. Agents are then visited in
// descending order of tau (slowest first); each still-unpaired agent i runs
// Pairing(i): for every unpaired faster neighbor j it evaluates
//
//   tau_ij^m = max( N_i / p_i^m ,  tau_j + N_i * nu_m / c_ij + N_i / p_j^m )
//   with p_i^m = p_i / T_s^m ,  p_j^m = p_j / T_f^m
//
// over all profiled splits m, picks j* = argmin_j min_m tau_ij^m, and
// offloads iff that strictly beats training alone. The computation uses only
// information agent i observes locally: the broadcast list, its own split
// profile, and the measured link speed c_ij.
#pragma once

#include <optional>

#include "core/profile.hpp"
#include "sim/topology.hpp"

namespace comdml::core {

/// Broadcast state of one agent (Algorithm 1 line 2).
struct AgentInfo {
  int64_t id = 0;
  double proc_speed = 0.0;   ///< p_i: full-model batches per second
  double tau_solo = 0.0;     ///< tau_i: N_i / p_i
  int64_t num_batches = 0;   ///< N_i (mini-batches per local epoch)
};

/// Agent `id`'s modeled local training from its CPU multiplier: a model of
/// `flops_per_sample` forward+backward FLOPs runs at cpu * reference_flops
/// FLOP/s, so p_i = that / flops_per_sample / batch_size and
/// tau_i = num_batches / p_i. The real fleets' shared compute clock.
[[nodiscard]] AgentInfo modeled_agent(int64_t id, double cpu,
                                      double reference_flops,
                                      double flops_per_sample,
                                      int64_t batch_size,
                                      int64_t num_batches);

/// AgentTrainingTime(p_j, tau_j) result (Algorithm 1 lines 15-22).
struct SplitChoice {
  size_t cut = 0;        ///< m*: chosen split
  double time = 0.0;     ///< tau_ij: estimated pair completion time
  double comm_time = 0.0;  ///< activation streaming + model suffix shipping
};

/// One accepted offload gamma_ij = 1 with its chosen split.
struct OffloadDecision {
  int64_t slow_agent = 0;
  int64_t fast_agent = 0;
  size_t cut = 0;
  double estimated_time = 0.0;
  double comm_time = 0.0;
};

struct PairingResult {
  std::vector<OffloadDecision> pairs;
  std::vector<int64_t> solo;     ///< agents training independently
  double estimated_round_time = 0.0;  ///< max_i tau_i after balancing
};

/// Estimate tau_ij over all profiled splits; nullopt if no split beats
/// training alone or the link is unusable. `batch_size` converts the
/// per-sample nu_m into per-batch payloads; the suffix model parameters are
/// shipped once each way (offload + trained-suffix return).
[[nodiscard]] std::optional<SplitChoice> best_split(
    const SplitProfile& profile, const AgentInfo& slow, const AgentInfo& fast,
    double link_mbps, int64_t batch_size);

/// Run one full round of the decentralized greedy pairing over the
/// participating agents. `infos` must be indexed by agent id.
/// `helpers` (default: the participants) are the agents that may accept an
/// offload; helpers that are not participants have no training task of
/// their own this round, so their tau_j is treated as zero — this is how
/// ComDML taps the spare resources of idle fast agents under client
/// sampling (paper SecI: "wasting the available spare resources of faster
/// agents").
[[nodiscard]] PairingResult pair_agents(
    const SplitProfile& profile, const std::vector<AgentInfo>& infos,
    const sim::Topology& topology, int64_t batch_size,
    const std::vector<int64_t>& participants,
    const std::vector<int64_t>* helpers = nullptr);

/// Ablation baseline: random feasible pairing with the best split per pair.
[[nodiscard]] PairingResult random_pairing(
    const SplitProfile& profile, const std::vector<AgentInfo>& infos,
    const sim::Topology& topology, int64_t batch_size,
    const std::vector<int64_t>& participants, tensor::Rng& rng);

/// Ablation baseline: static pairing fixed at round 0 (slowest-with-fastest
/// by *initial* order), reused every round regardless of current profiles.
class StaticPairing {
 public:
  void reset() { fixed_.reset(); }

  [[nodiscard]] PairingResult apply(const SplitProfile& profile,
                                    const std::vector<AgentInfo>& infos,
                                    const sim::Topology& topology,
                                    int64_t batch_size,
                                    const std::vector<int64_t>& participants);

 private:
  std::optional<std::vector<std::pair<int64_t, int64_t>>> fixed_;
};

}  // namespace comdml::core
