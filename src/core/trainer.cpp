#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "comm/link.hpp"
#include "core/round_pipeline.hpp"
#include "sim/resources.hpp"

namespace comdml::core {

SimulatedFleet::SimulatedFleet(const nn::ArchitectureSpec& spec,
                               FleetOptions options, sim::Topology topology,
                               std::vector<int64_t> shard_sizes,
                               learncurve::Method method,
                               Scheduler scheduler)
    : options_(std::move(options)),
      topology_(std::move(topology)),
      shard_sizes_(std::move(shard_sizes)),
      method_(method),
      scheduler_(scheduler),
      rng_(options_.seed) {
  options_.validate();
  COMDML_REQUIRE(method_ == learncurve::Method::kComDML ||
                     scheduler_ == Scheduler::kComDML,
                 "scheduler ablations apply to ComDML only; "
                     << learncurve::method_name(method_)
                     << " runs with pairing off");
  profile_ = SplitProfile::from_spec(spec, options_.scale.max_split_points,
                                     options_.comms.activation_compression);
  COMDML_REQUIRE(
      static_cast<int64_t>(shard_sizes_.size()) == topology_.agents(),
      "shard_sizes has " << shard_sizes_.size() << " entries for "
                         << topology_.agents() << " agents");
  for (const int64_t s : shard_sizes_) COMDML_CHECK(s > 0);
}

std::vector<AgentInfo> SimulatedFleet::agent_infos() const {
  const double flops_per_sample = profile_.full_flops_per_sample();
  const int64_t batch = options_.train.batch_size;
  std::vector<AgentInfo> infos(static_cast<size_t>(topology_.agents()));
  const double overhead =
      (method_ == learncurve::Method::kFedProx ? kFedProxComputeOverhead
                                                : 1.0) *
      learncurve::privacy_compute_overhead(options_.privacy.technique);
  for (int64_t i = 0; i < topology_.agents(); ++i) {
    AgentInfo& a = infos[static_cast<size_t>(i)];
    a.id = i;
    const double sps =
        sim::samples_per_sec(topology_.profile(i), flops_per_sample) /
        overhead;
    a.proc_speed = sps / static_cast<double>(batch);
    a.num_batches =
        (shard_sizes_[static_cast<size_t>(i)] + batch - 1) / batch;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  }
  return infos;
}

std::vector<int64_t> sample_participants(int64_t agents, double participation,
                                         tensor::Rng& rng) {
  std::vector<int64_t> all(static_cast<size_t>(agents));
  std::iota(all.begin(), all.end(), 0);
  if (participation >= 1.0) return all;
  const auto want = std::max<int64_t>(
      2, static_cast<int64_t>(participation * static_cast<double>(agents)));
  rng.shuffle(all);
  all.resize(static_cast<size_t>(std::min(want, agents)));
  std::sort(all.begin(), all.end());
  return all;
}

void reshuffle_profiles_if_due(sim::Topology& topology,
                               const FleetOptions::ScaleOptions& scale,
                               int64_t round, tensor::Rng& rng) {
  if (scale.reshuffle_period <= 0 || round == 0 ||
      round % scale.reshuffle_period != 0)
    return;
  auto profiles = topology.profiles();
  sim::reshuffle_profiles(profiles, scale.reshuffle_fraction, rng);
  topology.set_profiles(std::move(profiles));
}

PairingResult SimulatedFleet::schedule(const std::vector<AgentInfo>& infos,
                                       const std::vector<int64_t>& parts) {
  const int64_t batch = options_.train.batch_size;
  if (method_ != learncurve::Method::kComDML) {
    // Pairing off: every participant trains the full model solo.
    PairingResult r;
    r.solo = parts;
    return r;
  }
  switch (scheduler_) {
    case Scheduler::kComDML: {
      // Under client sampling, idle agents may still accept offloads.
      std::vector<int64_t> helpers(static_cast<size_t>(topology_.agents()));
      std::iota(helpers.begin(), helpers.end(), 0);
      return pair_agents(profile_, infos, topology_, batch, parts, &helpers);
    }
    case Scheduler::kRandom:
      return random_pairing(profile_, infos, topology_, batch, parts, rng_);
    case Scheduler::kStatic:
      return static_pairing_.apply(profile_, infos, topology_, batch, parts);
    case Scheduler::kExact:
      return optimal_pairing(profile_, infos, topology_, batch, parts);
  }
  COMDML_CHECK(false);
  return {};
}

std::vector<double> server_round_times(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, int64_t model_bytes,
    const FleetOptions::CommOptions& comms) {
  comm::SimTransport transport(param_server_grid(profiles, selected, comms));
  comm::CollectiveRequest req;
  req.elems = comm::fp32_wire_elems(model_bytes);
  req.participants = selected;
  (void)comm::collective(comm::Protocol::kParamServer).run(transport, req);
  const comm::TransportStats& stats = transport.stats();
  std::vector<double> times;
  times.reserve(selected.size());
  for (const int64_t idx : selected)
    times.push_back(stats.send_seconds[static_cast<size_t>(idx)] +
                    stats.recv_seconds[static_cast<size_t>(idx)]);
  return times;
}

SimulatedFleet::RoundClose SimulatedFleet::close_round(
    const std::vector<int64_t>& parts, const std::vector<double>& finish) {
  const auto finish_of = [&](int64_t id) {
    return finish[static_cast<size_t>(id)];
  };
  double slowest = 0.0;
  for (const int64_t id : parts) slowest = std::max(slowest, finish_of(id));
  const int64_t model_bytes = profile_.model_state_bytes();
  const double latency = options_.comms.latency_sec;
  RoundClose close;
  switch (method_) {
    case learncurve::Method::kComDML:
    case learncurve::Method::kAllReduceDML: {
      // AllReduce once every participant has finished.
      const auto min_bw = topology_.min_link_bandwidth();
      COMDML_REQUIRE(min_bw.has_value(), "fleet topology has no usable link");
      close.aggregation_seconds =
          comm::allreduce_cost(static_cast<int64_t>(parts.size()),
                               model_bytes, *min_bw,
                               options_.comms.aggregation, latency)
              .seconds;
      close.round_seconds = slowest + close.aggregation_seconds;
      break;
    }
    case learncurve::Method::kFedAvg:
    case learncurve::Method::kFedProx: {
      // Each participant downloads the global model and uploads its update
      // through its own access link as soon as it finishes.
      const auto comm_times = server_round_times(
          topology_.profiles(), parts, model_bytes, options_.comms);
      double worst = 0.0;
      for (size_t i = 0; i < parts.size(); ++i)
        worst = std::max(worst, finish_of(parts[i]) + comm_times[i]);
      close.aggregation_seconds = worst - slowest;
      close.round_seconds = worst;
      break;
    }
    case learncurve::Method::kGossip: {
      // Gossip learning is asynchronous (Hegedus et al. [11]): nobody waits
      // for the global straggler, but an exchange blocks on its partner.
      // The effective round duration is the mean over participants of
      // max(own finish, partner finish) + model push. One collective run
      // yields both the partner draw and the per-agent push times; a
      // partner outside the sample counts its solo training time.
      comm::SimTransport transport(
          comm::LinkGrid::from_topology(topology_, latency));
      comm::CollectiveRequest req;
      req.elems = comm::fp32_wire_elems(model_bytes);
      req.rng = &rng_;
      const auto rep =
          comm::collective(comm::Protocol::kGossip).run(transport, req);
      const auto& exch = transport.stats().send_seconds;
      double total = 0.0;
      for (const int64_t id : parts) {
        double pair_finish = finish_of(id);
        if (const auto& partner = rep.partners[static_cast<size_t>(id)])
          pair_finish = std::max(pair_finish, finish_of(*partner));
        total += pair_finish + exch[static_cast<size_t>(id)];
      }
      close.round_seconds = total / static_cast<double>(parts.size());
      close.aggregation_seconds = std::max(0.0, close.round_seconds - slowest);
      break;
    }
    case learncurve::Method::kBrainTorrent: {
      // One agent plays server for the round (Roy et al. [10]); the fleet
      // elects the best-connected participant as aggregator so the
      // (K-1)-model drain rides the widest available downlink. Peers push
      // in parallel over their own uplinks; the refreshed model returns the
      // same way.
      int64_t coord = parts.front();
      for (const int64_t id : parts)
        if (topology_.profile(id).mbps > topology_.profile(coord).mbps)
          coord = id;
      const double coord_bw = topology_.profile(coord).mbps;
      COMDML_REQUIRE(coord_bw > 0.0, "coordinator has no uplink");
      double slowest_peer = 0.0;
      for (const int64_t id : parts) {
        if (id == coord) continue;
        slowest_peer = std::max(
            slowest_peer,
            comm::transfer_seconds(model_bytes, topology_.profile(id).mbps,
                                   latency));
      }
      const double coord_drain = static_cast<double>(parts.size() - 1) *
                                 static_cast<double>(model_bytes) /
                                 comm::bytes_per_sec(coord_bw);
      close.aggregation_seconds = 2.0 * std::max(slowest_peer, coord_drain);
      close.round_seconds = slowest + close.aggregation_seconds;
      break;
    }
  }
  return close;
}

RoundReport SimulatedFleet::step() {
  // Dynamic environment (the paper re-randomizes after round 100).
  reshuffle_profiles_if_due(topology_, options_.scale, round_, rng_);

  const auto infos = agent_infos();
  auto participants = sample_participants(
      topology_.agents(), options_.scale.participation, rng_);

  // Device churn: each sampled agent may fail before the round starts; the
  // fleet proceeds with the survivors (at least two must remain).
  int64_t dropped = 0;
  const double dropout = options_.scale.agent_dropout;
  if (dropout > 0.0) {
    std::vector<int64_t> survivors;
    for (const int64_t id : participants) {
      if (static_cast<int64_t>(participants.size()) - dropped > 2 &&
          rng_.uniform() < dropout) {
        ++dropped;
      } else {
        survivors.push_back(id);
      }
    }
    participants = std::move(survivors);
  }

  const PairingResult plan = schedule(infos, participants);
  const auto is_participant = [&](int64_t id) {
    return std::binary_search(participants.begin(), participants.end(), id);
  };

  // Execute the training phase on the discrete-event simulator: one
  // completion event per solo agent / pair. `finish` starts at every
  // agent's solo time (the counterfactual round without offloading) and
  // takes each pair's span.
  sim::Simulator des;
  RoundReport rec;
  rec.round = round_;
  rec.num_pairs = static_cast<int64_t>(plan.pairs.size());
  rec.dropped_agents = dropped;

  std::vector<double> solo(infos.size());
  for (size_t i = 0; i < infos.size(); ++i) solo[i] = infos[i].tau_solo;
  std::vector<double> finish = solo;
  double last_finish = 0.0;
  for (const int64_t id : plan.solo) {
    const double t = infos[static_cast<size_t>(id)].tau_solo;
    des.schedule_in(t, [&rec, t] {
      rec.compute_seconds = std::max(rec.compute_seconds, t);
    });
    last_finish = std::max(last_finish, t);
  }
  for (const auto& pair : plan.pairs) {
    AgentInfo fast_info = infos[static_cast<size_t>(pair.fast_agent)];
    if (!is_participant(pair.fast_agent))
      fast_info.tau_solo = 0.0;  // idle helper lends its full capacity
    const auto exec = execute_pair(
        profile_, infos[static_cast<size_t>(pair.slow_agent)], fast_info,
        pair.cut,
        topology_.bandwidth_mbps(pair.slow_agent, pair.fast_agent),
        options_.train.batch_size);
    des.schedule_in(exec.pair_time, [&rec, exec] {
      rec.compute_seconds =
          std::max(rec.compute_seconds, exec.fast_train_time);
      rec.comm_seconds = std::max(rec.comm_seconds, exec.link_busy);
      rec.idle_seconds += exec.slow_idle + exec.fast_idle;
    });
    finish[static_cast<size_t>(pair.slow_agent)] = exec.pair_time;
    finish[static_cast<size_t>(pair.fast_agent)] = exec.pair_time;
    last_finish = std::max(last_finish, exec.pair_time);
  }
  des.run();

  // Aggregation starts once every participant has finished.
  const RoundClose close = close_round(participants, finish);
  rec.round_seconds = close.round_seconds;
  rec.aggregation_seconds = close.aggregation_seconds;

  // Idle of solo agents relative to the round span (aggregation excluded —
  // all agents participate in the collective).
  for (const int64_t id : plan.solo)
    rec.idle_seconds +=
        last_finish - infos[static_cast<size_t>(id)].tau_solo;
  // Paired agents may also wait for the global straggler.
  for (const auto& pair : plan.pairs)
    rec.idle_seconds += 2.0 * (last_finish - std::min(last_finish,
                                                      pair.estimated_time));

  // Counterfactual round time with no offloading (for savings accounting):
  // the same rule over the solo finish times. Without pairs the two are
  // one round, and a second gossip draw would move the fleet rng.
  rec.unbalanced_seconds = plan.pairs.empty()
                               ? rec.round_seconds
                               : close_round(participants, solo).round_seconds;

  ++round_;
  return rec;
}

RunReport SimulatedFleet::run(int64_t rounds) {
  COMDML_CHECK(rounds > 0);
  RunReport report;
  report.rounds.reserve(static_cast<size_t>(rounds));
  for (int64_t r = 0; r < rounds; ++r) report.rounds.push_back(step());
  return report;
}

std::vector<int64_t> shard_sizes_for(const data::DatasetSpec& dataset,
                                     int64_t agents,
                                     learncurve::PartitionKind partition,
                                     tensor::Rng& rng, double alpha) {
  COMDML_CHECK(agents > 0);
  std::vector<int64_t> sizes(static_cast<size_t>(agents), 0);
  if (partition == learncurve::PartitionKind::kIID) {
    const int64_t base = dataset.train_size / agents;
    const int64_t extra = dataset.train_size % agents;
    for (int64_t i = 0; i < agents; ++i)
      sizes[static_cast<size_t>(i)] = base + (i < extra ? 1 : 0);
    return sizes;
  }
  // Label-distribution skew (paper §V-A): each class's samples are split
  // across agents with Dirichlet(alpha) proportions; an agent's shard size
  // is the sum of its per-class allocations. With many classes the totals
  // concentrate — the skew is in the label mix, not a single giant shard.
  const int64_t per_class = dataset.train_size / dataset.classes;
  for (int64_t c = 0; c < dataset.classes; ++c) {
    const auto props = rng.dirichlet(alpha, static_cast<size_t>(agents));
    for (int64_t a = 0; a < agents; ++a)
      sizes[static_cast<size_t>(a)] += static_cast<int64_t>(
          props[static_cast<size_t>(a)] * static_cast<double>(per_class));
  }
  for (auto& s : sizes) s = std::max<int64_t>(s, 1);
  return sizes;
}

}  // namespace comdml::core
