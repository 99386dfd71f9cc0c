#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "comm/link.hpp"
#include "sim/resources.hpp"

namespace comdml::core {

SimulatedFleet::SimulatedFleet(const nn::ArchitectureSpec& spec,
                               FleetOptions options, sim::Topology topology,
                               std::vector<int64_t> shard_sizes,
                               Scheduler scheduler)
    : options_(std::move(options)),
      topology_(std::move(topology)),
      shard_sizes_(std::move(shard_sizes)),
      scheduler_(scheduler),
      rng_(options_.seed) {
  options_.validate();
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
  switch (scheduler_) {
    case Scheduler::kComDML: {
      // Under client sampling, idle agents may still accept offloads.
      std::vector<int64_t> helpers(static_cast<size_t>(topology_.agents()));
      std::iota(helpers.begin(), helpers.end(), 0);
      return pair_agents(profile_, infos, topology_, batch, parts, &helpers);
    }
    case Scheduler::kNoOffloading: {
      PairingResult r;
      r.solo = parts;
      for (const int64_t id : parts)
        r.estimated_round_time =
            std::max(r.estimated_round_time,
                     infos[static_cast<size_t>(id)].tau_solo);
      return r;
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

  // Execute the round on the discrete-event simulator: one completion event
  // per solo agent / pair, then the AllReduce once all have finished.
  sim::Simulator des;
  RoundReport rec;
  rec.round = round_;
  rec.num_pairs = static_cast<int64_t>(plan.pairs.size());
  rec.dropped_agents = dropped;

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
    last_finish = std::max(last_finish, exec.pair_time);
  }

  // Aggregation starts once every participant has finished.
  const auto model_bytes = profile_.model_state_bytes();
  const auto min_bw = topology_.min_link_bandwidth();
  COMDML_REQUIRE(min_bw.has_value(), "fleet topology has no usable link");
  const auto agg =
      comm::allreduce_cost(static_cast<int64_t>(participants.size()),
                           model_bytes, *min_bw, options_.comms.aggregation,
                           options_.comms.latency_sec);
  des.schedule_at(last_finish, [&des, &rec, &agg] {
    des.schedule_in(agg.seconds, [&rec, &agg] {
      rec.aggregation_seconds = agg.seconds;
    });
  });
  des.run();
  rec.round_seconds = des.now();

  // Idle of solo agents relative to the round span (aggregation excluded —
  // all agents participate in the collective).
  for (const int64_t id : plan.solo)
    rec.idle_seconds +=
        last_finish - infos[static_cast<size_t>(id)].tau_solo;
  // Paired agents may also wait for the global straggler.
  for (const auto& pair : plan.pairs)
    rec.idle_seconds += 2.0 * (last_finish - std::min(last_finish,
                                                      pair.estimated_time));

  // Counterfactual round time with no offloading (for savings accounting).
  for (const int64_t id : participants)
    rec.unbalanced_seconds = std::max(
        rec.unbalanced_seconds, infos[static_cast<size_t>(id)].tau_solo);
  rec.unbalanced_seconds += agg.seconds;

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
