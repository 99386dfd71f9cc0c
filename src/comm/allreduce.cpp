#include "comm/allreduce.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace comdml::comm {

Protocol allreduce_protocol(AllReduceAlgo algo) {
  switch (algo) {
    case AllReduceAlgo::kRing:
      return Protocol::kRingAllReduce;
    case AllReduceAlgo::kHalvingDoubling:
      return Protocol::kHalvingDoublingAllReduce;
  }
  COMDML_CHECK(false);
  return Protocol::kRingAllReduce;
}

int64_t state_elems(const std::vector<Tensor>& state) {
  int64_t total = 0;
  for (const auto& t : state) total += t.size();
  return total;
}

void flatten_state(const std::vector<Tensor>& state, double* out) {
  for (const auto& t : state)
    for (const float v : t.flat()) *out++ = v;
}

void unflatten_state(const double* flat, std::vector<Tensor>& state) {
  for (auto& t : state)
    for (float& v : t.flat()) v = static_cast<float>(*flat++);
}

CollectiveCost allreduce_cost(int64_t agents, int64_t model_bytes,
                              double bottleneck_mbps, AllReduceAlgo algo,
                              double latency_sec) {
  COMDML_CHECK(agents > 0 && model_bytes >= 0);
  if (agents == 1) return {};
  SimTransport transport(
      LinkGrid::uniform(agents, bottleneck_mbps, latency_sec));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(model_bytes);
  (void)collective(allreduce_protocol(algo)).run(transport, req);
  const TransportStats& stats = transport.stats();
  return {stats.seconds, stats.steps, stats.max_bytes_sent()};
}

std::vector<Tensor> mean_state(
    const std::vector<std::vector<Tensor>>& agent_states) {
  COMDML_CHECK(!agent_states.empty());
  std::vector<double> w(agent_states.size(),
                        1.0 / static_cast<double>(agent_states.size()));
  return weighted_mean_state(agent_states, w);
}

std::vector<Tensor> weighted_mean_state(
    const std::vector<std::vector<Tensor>>& agent_states,
    const std::vector<double>& weights) {
  COMDML_CHECK(!agent_states.empty());
  COMDML_CHECK(agent_states.size() == weights.size());
  double wsum = 0.0;
  for (const double w : weights) {
    COMDML_CHECK(w >= 0.0);
    wsum += w;
  }
  COMDML_REQUIRE(wsum > 0.0, "all aggregation weights are zero");

  // Seed the accumulator from agent 0 in place (scale instead of
  // zero-fill + axpy: one fewer pass, identical rounding).
  std::vector<Tensor> out = agent_states[0];
  for (auto& t : out)
    tensor::scale_inplace(t, static_cast<float>(weights[0] / wsum));
  for (size_t a = 1; a < agent_states.size(); ++a) {
    const float w = static_cast<float>(weights[a] / wsum);
    COMDML_REQUIRE(agent_states[a].size() == out.size(),
                   "agent " << a << " state arity differs");
    for (size_t t = 0; t < out.size(); ++t)
      tensor::axpy(w, agent_states[a][t], out[t]);
  }
  return out;
}

}  // namespace comdml::comm
