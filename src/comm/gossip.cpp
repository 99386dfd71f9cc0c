#include "comm/gossip.hpp"

#include "comm/allreduce.hpp"
#include "core/workspace.hpp"

namespace comdml::comm {

std::vector<std::optional<int64_t>> gossip_partners(const Topology& topology,
                                                    Rng& rng) {
  std::vector<std::optional<int64_t>> partners(
      static_cast<size_t>(topology.agents()));
  for (int64_t i = 0; i < topology.agents(); ++i) {
    const auto nbrs = topology.neighbors(i);
    if (nbrs.empty()) continue;
    partners[static_cast<size_t>(i)] =
        nbrs[static_cast<size_t>(rng.below(static_cast<int64_t>(nbrs.size())))];
  }
  return partners;
}

std::vector<double> gossip_exchange(std::vector<std::vector<Tensor>>& states,
                                    const Topology& topology,
                                    int64_t model_bytes, Rng& rng) {
  COMDML_CHECK(static_cast<int64_t>(states.size()) == topology.agents());
  const size_t k = states.size();
  const int64_t n = state_elems(states[0]);
  core::Scratch<double> slab(static_cast<int64_t>(k) * n);

  InProcTransport transport(LinkGrid::from_topology(topology));
  CollectiveRequest req;
  req.elems = n;
  req.rng = &rng;
  req.buffers.resize(k);
  for (size_t a = 0; a < k; ++a) {
    req.buffers[a] = slab.data() + static_cast<int64_t>(a) * n;
    flatten_state(states[a], req.buffers[a]);
  }
  const CollectiveReport rep =
      collective(Protocol::kGossip).run(transport, req);
  for (size_t a = 0; a < k; ++a)
    unflatten_state(req.buffers[a], states[a]);
  // Push time of `model_bytes` (the full serialized model the caller
  // passes, not the executed wire bytes) over each agent's chosen link.
  std::vector<double> times(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    if (!rep.partners[i]) continue;
    times[i] = transfer_seconds(
        model_bytes,
        topology.bandwidth_mbps(static_cast<int64_t>(i), *rep.partners[i]));
  }
  return times;
}

}  // namespace comdml::comm
