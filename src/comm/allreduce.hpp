// Decentralized AllReduce (paper §IV-B).
//
// Two bandwidth-optimal algorithms:
//  - ring (Goyal et al. [34]):          2(K-1) steps, 2(K-1)/K * b bytes/agent
//  - recursive halving/doubling [35]:   2 log2 K steps, 2(K-1)/K * b bytes/agent
// The paper picks halving/doubling for large K because of its O(log K) step
// count.
//
// Both algorithms live in comm/collective.hpp as transport-generic
// protocols: the analytic cost (SimTransport) and the executed real
// collective (InProcTransport) are literally the same schedule. Fleets
// execute them through core::RoundPipeline; this header keeps the
// algorithm enum, the analytic `allreduce_cost` used by the paper-scale
// simulators, and the tensor-state helpers shared by every aggregation.
#pragma once

#include <vector>

#include "comm/collective.hpp"
#include "comm/link.hpp"
#include "tensor/tensor.hpp"

namespace comdml::comm {

using tensor::Tensor;

enum class AllReduceAlgo { kRing, kHalvingDoubling };

/// Collective-registry protocol implementing an AllReduce algorithm.
[[nodiscard]] Protocol allreduce_protocol(AllReduceAlgo algo);

/// Analytic cost of one AllReduce over K agents moving a `model_bytes`
/// model with the slowest participating link at `bottleneck_mbps`
/// (a SimTransport run of the real message schedule over a uniform grid).
struct CollectiveCost {
  double seconds = 0.0;
  int64_t steps = 0;
  int64_t bytes_per_agent = 0;  ///< max bytes any one agent sends
};

[[nodiscard]] CollectiveCost allreduce_cost(
    int64_t agents, int64_t model_bytes, double bottleneck_mbps,
    AllReduceAlgo algo = AllReduceAlgo::kHalvingDoubling,
    double latency_sec = kDefaultLatencySec);

/// Plain arithmetic mean across agents (reference for tests; no traffic).
[[nodiscard]] std::vector<Tensor> mean_state(
    const std::vector<std::vector<Tensor>>& agent_states);

/// Weighted mean with per-agent weights (FedAvg-style N_i/N weighting).
[[nodiscard]] std::vector<Tensor> weighted_mean_state(
    const std::vector<std::vector<Tensor>>& agent_states,
    const std::vector<double>& weights);

/// Total fp32 elements across one agent's state tensors.
[[nodiscard]] int64_t state_elems(const std::vector<Tensor>& state);

/// Flatten a state list into `out` (fp64 accumulator layout) and back.
void flatten_state(const std::vector<Tensor>& state, double* out);
void unflatten_state(const double* flat, std::vector<Tensor>& state);

}  // namespace comdml::comm
