#include "baselines/real_baselines.hpp"

#include <algorithm>
#include <numeric>

#include "baselines/baseline_fleet.hpp"
#include "core/pairing.hpp"
#include "core/parallel.hpp"
#include "core/workspace.hpp"
#include "nn/arch_specs.hpp"
#include "tensor/ops.hpp"

namespace comdml::baselines {

std::vector<tensor::Tensor> mean_state(
    const std::vector<std::vector<tensor::Tensor>>& agent_states) {
  COMDML_CHECK(!agent_states.empty());
  std::vector<double> w(agent_states.size(),
                        1.0 / static_cast<double>(agent_states.size()));
  return weighted_mean_state(agent_states, w);
}

std::vector<tensor::Tensor> weighted_mean_state(
    const std::vector<std::vector<tensor::Tensor>>& agent_states,
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
  std::vector<tensor::Tensor> out = agent_states[0];
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

RealBaselineFleet::RealBaselineFleet(learncurve::Method method,
                                     const core::ModelFactory& factory,
                                     int64_t classes,
                                     std::vector<data::Dataset> shards,
                                     sim::Topology topology, Options options)
    : method_(method),
      options_(options),
      shards_(std::move(shards)),
      topology_(std::move(topology)),
      rng_(options.seed) {
  options_.validate();
  COMDML_REQUIRE(method != learncurve::Method::kComDML &&
                     method != learncurve::Method::kAllReduceDML,
                 "use core::RealFleet for ComDML and AllReduce-DML");
  COMDML_CHECK(static_cast<int64_t>(shards_.size()) == topology_.agents());
  for (auto& s : shards_) s.validate();
  models_.reserve(shards_.size());
  batchers_.reserve(shards_.size());
  velocities_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tensor::Rng model_rng = rng_.fork();
    models_.push_back(factory(model_rng));
    batchers_.push_back(std::make_unique<data::Batcher>(
        shards_[i], options_.train.batch_size, rng_.fork()));
  }
  const auto init = nn::state_of(*models_[0]);
  for (size_t i = 1; i < models_.size(); ++i)
    nn::load_state(*models_[i], init);

  bucket_plan_ = nn::BucketPlan::build(*models_[0], 0);
  flops_per_sample_ = nn::spec_from_model(*models_[0],
                                          shards_.front().sample_shape(),
                                          "real-model", classes)
                          .total_flops();
}

float RealBaselineFleet::train_locally(
    size_t agent, const std::vector<tensor::Tensor>* anchors) {
  auto& model = *models_[agent];
  const std::vector<nn::Parameter*> params = model.parameters();
  nn::SGD opt(params, options_.train.sgd);
  // Momentum is fleet state, not round state (as in RealFleet::step).
  std::vector<tensor::Tensor>& velocity = velocities_[agent];
  if (!velocity.empty()) opt.load_velocity(velocity);
  if (anchors != nullptr) COMDML_CHECK(anchors->size() == params.size());
  float loss_sum = 0.0f;
  for (int64_t b = 0; b < options_.train.batches_per_round; ++b) {
    const auto batch = batchers_[agent]->next();
    if (anchors != nullptr) {
      // Proximal step: gradient + mu * (w - w_round_start), each parameter
      // pulled toward its own round-start value.
      opt.zero_grad();
      const auto logits = model.forward(batch.x, true);
      auto res = nn::softmax_cross_entropy(logits, batch.y);
      (void)model.backward(res.grad_logits);
      for (size_t g = 0; g < params.size(); ++g) {
        auto gr = params[g]->grad.flat();
        auto w = params[g]->value.flat();
        auto a = (*anchors)[g].flat();
        for (size_t k = 0; k < gr.size(); ++k)
          gr[k] += options_.train.prox_mu * (w[k] - a[k]);
      }
      opt.step();
      loss_sum += res.loss;
    } else {
      loss_sum +=
          nn::train_batch_full(model, opt, batch.x, batch.y).loss;
    }
  }
  velocity = opt.velocity();
  return loss_sum / static_cast<float>(options_.train.batches_per_round);
}

std::vector<std::vector<tensor::Tensor>>& RealBaselineFleet::gather_states() {
  state_scratch_.resize(models_.size());
  for (size_t i = 0; i < models_.size(); ++i)
    nn::copy_state_into(*models_[i], state_scratch_[i]);
  return state_scratch_;
}

void RealBaselineFleet::run_collective(comm::Protocol protocol,
                                       comm::Transport& transport,
                                       comm::CollectiveRequest req) {
  const size_t k = models_.size();
  const int64_t n = bucket_plan_.total_elems();
  core::Scratch<double> slab(static_cast<int64_t>(k) * n);
  req.elems = n;
  req.buffers.resize(k);
  std::vector<tensor::Tensor*> ptrs;
  for (size_t i = 0; i < k; ++i) {
    req.buffers[i] = slab.data() + static_cast<int64_t>(i) * n;
    ptrs.clear();
    models_[i]->collect_state(ptrs);
    bucket_plan_.flatten_bucket(ptrs, 0, req.buffers[i]);
  }
  (void)comm::collective(protocol).run(transport, req);
  for (size_t i = 0; i < k; ++i) {
    ptrs.clear();
    models_[i]->collect_state(ptrs);
    bucket_plan_.unflatten_bucket(req.buffers[i], 0, ptrs);
  }
}

void RealBaselineFleet::aggregate(core::RoundReport& stats) {
  const size_t k = models_.size();
  switch (method_) {
    case learncurve::Method::kFedAvg:
    case learncurve::Method::kFedProx: {
      // Server-side N_i/N weighted average, broadcast to all — the
      // "param_server" collective over a star grid whose agent<->server
      // edges share the server's aggregate bandwidth.
      std::vector<double> weights;
      weights.reserve(k);
      for (size_t i = 0; i < k; ++i)
        weights.push_back(static_cast<double>(shards_[i].size()));
      const bool all_connected = [&] {
        for (const auto& p : topology_.profiles())
          if (!p.connected()) return false;
        return true;
      }();
      if (!all_connected) {
        // An offline agent cannot reach the star; keep the historical
        // local-average semantics (no accounted traffic) for that case.
        const auto avg = weighted_mean_state(gather_states(), weights);
        for (auto& m : models_) nn::load_state(*m, avg);
        break;
      }
      comm::CollectiveRequest req;
      req.weights = std::move(weights);
      req.participants.resize(k);
      std::iota(req.participants.begin(), req.participants.end(),
                int64_t{0});
      comm::InProcTransport transport(param_server_grid(
          topology_.profiles(), req.participants, options_.comms));
      run_collective(comm::Protocol::kParamServer, transport, std::move(req));
      stats.aggregation_seconds = transport.stats().seconds;
      stats.aggregation_bytes = transport.stats().max_bytes_sent();
      break;
    }
    case learncurve::Method::kBrainTorrent: {
      // Random coordinator averages and redistributes.
      const auto avg = mean_state(gather_states());
      for (auto& m : models_) nn::load_state(*m, avg);
      break;
    }
    case learncurve::Method::kGossip: {
      // Each agent pushes its model to one random neighbor over that
      // edge's link; the round lasts as long as the slowest push.
      comm::InProcTransport transport(comm::LinkGrid::from_topology(
          topology_, options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.rng = &rng_;
      run_collective(comm::Protocol::kGossip, transport, std::move(req));
      const std::vector<double>& pushes = transport.stats().send_seconds;
      stats.aggregation_seconds =
          *std::max_element(pushes.begin(), pushes.end());
      stats.aggregation_bytes = transport.stats().max_bytes_sent();
      break;
    }
    case learncurve::Method::kAllReduceDML:  // core::RealFleet
    case learncurve::Method::kComDML:
      COMDML_CHECK(false);
  }
}

core::RoundReport RealBaselineFleet::step() {
  // FedProx anchors: the round-start parameters. Replicas share one
  // structure, so agent 0's parameter g anchors every agent's parameter g.
  std::optional<std::vector<tensor::Tensor>> anchors;
  if (method_ == learncurve::Method::kFedProx) {
    anchors.emplace();
    for (const nn::Parameter* p : models_[0]->parameters())
      anchors->push_back(p->value);
  }

  core::RoundReport stats;
  // Agents are independent until aggregation (own replica, optimizer state
  // and batcher; `anchors` is read-only), so local training fans out to the
  // pool. Per-agent losses land in fixed slots and are reduced in agent
  // order, keeping the round identical for every thread count.
  const int64_t n_agents = static_cast<int64_t>(models_.size());
  std::vector<float> losses(models_.size(), 0.0f);
  core::parallel_for(0, n_agents, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      losses[static_cast<size_t>(i)] = train_locally(
          static_cast<size_t>(i), anchors ? &*anchors : nullptr);
  });
  aggregate(stats);
  float loss = 0.0f;
  for (const float l : losses) loss += l;
  stats.mean_loss = loss / static_cast<float>(models_.size());
  // Every agent trains its own replica, so the compute span is the slowest
  // agent's modeled solo time, on RealFleet's clock.
  for (int64_t i = 0; i < n_agents; ++i)
    stats.compute_seconds = std::max(
        stats.compute_seconds,
        core::modeled_agent(i, topology_.profile(i).cpu,
                            options_.train.reference_flops, flops_per_sample_,
                            options_.train.batch_size,
                            options_.train.batches_per_round)
            .tau_solo);
  stats.round_seconds = stats.compute_seconds + stats.aggregation_seconds;
  return stats;
}

float RealBaselineFleet::evaluate(const data::Dataset& test) {
  test.validate();
  return nn::evaluate_accuracy(*models_[0], test.images, test.labels);
}

nn::Sequential& RealBaselineFleet::model(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return *models_[static_cast<size_t>(agent)];
}

}  // namespace comdml::baselines
