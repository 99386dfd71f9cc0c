// Gossip model exchange (Hegedus et al. [11]): each agent sends its model to
// one randomly chosen neighbor per round and averages what it receives.
//
// The protocol itself lives in comm/collective.hpp ("gossip") and runs over
// any comm::Transport; these wrappers keep the topology/tensor signatures
// the real gossip baseline uses.
#pragma once

#include <optional>
#include <vector>

#include "comm/collective.hpp"
#include "comm/link.hpp"
#include "sim/topology.hpp"
#include "tensor/tensor.hpp"

namespace comdml::comm {

using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

/// Chosen gossip partner per agent (nullopt for isolated agents).
[[nodiscard]] std::vector<std::optional<int64_t>> gossip_partners(
    const Topology& topology, Rng& rng);

/// One gossip round on real states: agent i's new state is the average of
/// its own state and every state pushed to it this round, executed over an
/// InProcTransport on the topology's per-edge links. Returns per-agent
/// exchange time (one `model_bytes` push over the chosen link).
std::vector<double> gossip_exchange(std::vector<std::vector<Tensor>>& states,
                                    const Topology& topology,
                                    int64_t model_bytes, Rng& rng);

}  // namespace comdml::comm
