#include "baselines/baseline_fleet.hpp"

#include <algorithm>

#include "comm/link.hpp"

namespace comdml::baselines {

comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected,
    const core::FleetOptions::CommOptions& comms) {
  COMDML_CHECK(!selected.empty());
  COMDML_CHECK(comms.server_mbps > 0.0);
  const double share =
      comms.server_mbps / static_cast<double>(selected.size());
  std::vector<double> rates(profiles.size(), 0.0);
  for (const int64_t idx : selected) {
    COMDML_CHECK(idx >= 0 && idx < static_cast<int64_t>(profiles.size()));
    const auto& p = profiles[static_cast<size_t>(idx)];
    COMDML_REQUIRE(p.connected(), "selected agent " << idx
                                                    << " has no uplink");
    rates[static_cast<size_t>(idx)] = std::min(p.mbps, share);
  }
  return comm::LinkGrid::star(rates, comms.latency_sec);
}

std::vector<double> server_round_times(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, int64_t model_bytes,
    const core::FleetOptions::CommOptions& comms) {
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

BaselineFleet::BaselineFleet(Method method, const nn::ArchitectureSpec& spec,
                             core::FleetOptions options,
                             sim::Topology topology,
                             std::vector<int64_t> shard_sizes)
    : method_(method),
      options_(std::move(options)),
      topology_(std::move(topology)),
      shard_sizes_(std::move(shard_sizes)),
      flops_per_sample_(spec.total_flops()),
      model_bytes_(spec.total_param_bytes()),
      rng_(options_.seed) {
  options_.validate();
  COMDML_REQUIRE(method != Method::kComDML,
                 "use core::SimulatedFleet for ComDML itself");
  COMDML_REQUIRE(options_.scale.agent_dropout == 0.0,
                 "agent_dropout " << options_.scale.agent_dropout
                                  << " needs the ComDML simulation; the "
                                  << learncurve::method_name(method)
                                  << " simulation does not model churn");
  COMDML_CHECK(static_cast<int64_t>(shard_sizes_.size()) ==
               topology_.agents());
}

std::vector<double> BaselineFleet::solo_times(
    const std::vector<int64_t>& participants) const {
  const double overhead =
      (method_ == Method::kFedProx ? kFedProxComputeOverhead : 1.0) *
      learncurve::privacy_compute_overhead(options_.privacy.technique);
  std::vector<double> times;
  times.reserve(participants.size());
  for (const int64_t id : participants) {
    const double sps =
        sim::samples_per_sec(topology_.profile(id), flops_per_sample_);
    times.push_back(overhead *
                    static_cast<double>(shard_sizes_[static_cast<size_t>(id)]) /
                    sps);
  }
  return times;
}

core::RoundReport BaselineFleet::step() {
  core::reshuffle_profiles_if_due(topology_, options_.scale, round_, rng_);

  const auto participants = core::sample_participants(
      topology_.agents(), options_.scale.participation, rng_);
  const auto compute = solo_times(participants);
  const double slowest =
      *std::max_element(compute.begin(), compute.end());

  core::RoundReport rec;
  rec.round = round_;
  rec.compute_seconds = slowest;

  switch (method_) {
    case Method::kFedAvg:
    case Method::kFedProx: {
      const auto comm_times = server_round_times(
          topology_.profiles(), participants, model_bytes_, options_.comms);
      double worst = 0.0;
      for (size_t i = 0; i < participants.size(); ++i)
        worst = std::max(worst, compute[i] + comm_times[i]);
      rec.aggregation_seconds = worst - slowest;
      rec.round_seconds = worst;
      break;
    }
    case Method::kGossip: {
      // Gossip learning is asynchronous (Hegedus et al. [11]): nobody waits
      // for the global straggler, but an exchange blocks on its partner.
      // The effective round duration is the mean over agents of
      // max(own compute, partner compute) + model push.
      // One collective run yields both the partner draw and the per-agent
      // push times, so the compute-wait and transfer terms below describe
      // the same partners (the old two-draw version paired them
      // inconsistently).
      comm::SimTransport transport(
          comm::LinkGrid::from_topology(topology_,
                                        options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.elems = comm::fp32_wire_elems(model_bytes_);
      req.rng = &rng_;
      const auto rep =
          comm::collective(comm::Protocol::kGossip).run(transport, req);
      const auto& partners = rep.partners;
      const auto& exch = transport.stats().send_seconds;
      double total = 0.0;
      for (size_t i = 0; i < participants.size(); ++i) {
        const auto id = static_cast<size_t>(participants[i]);
        double pair_compute = compute[i];
        if (partners[id]) {
          // Partner may be outside the participant sample; estimate its
          // compute from its profile.
          const int64_t p = *partners[id];
          const double sps = sim::samples_per_sec(topology_.profile(p),
                                                  flops_per_sample_);
          pair_compute = std::max(
              pair_compute,
              static_cast<double>(shard_sizes_[static_cast<size_t>(p)]) /
                  sps);
        }
        total += pair_compute + exch[id];
      }
      rec.round_seconds = total / static_cast<double>(participants.size());
      rec.aggregation_seconds =
          std::max(0.0, rec.round_seconds - slowest);
      break;
    }
    case Method::kBrainTorrent: {
      // One agent plays server for the round (Roy et al. [10]); the fleet
      // elects the best-connected participant as aggregator so the
      // (K-1)-model drain rides the widest available downlink. Peers push
      // in parallel over their own uplinks; the refreshed model returns the
      // same way.
      int64_t coord = participants.front();
      for (const int64_t id : participants)
        if (topology_.profile(id).mbps > topology_.profile(coord).mbps)
          coord = id;
      const double coord_bw = topology_.profile(coord).mbps;
      COMDML_REQUIRE(coord_bw > 0.0, "coordinator has no uplink");
      const auto peers = static_cast<double>(participants.size() - 1);
      double slowest_peer = 0.0;
      for (const int64_t id : participants) {
        if (id == coord) continue;
        slowest_peer = std::max(
            slowest_peer,
            comm::transfer_seconds(model_bytes_,
                                   topology_.profile(id).mbps,
                                   options_.comms.latency_sec));
      }
      const double coord_drain =
          peers * static_cast<double>(model_bytes_) /
          comm::bytes_per_sec(coord_bw);
      const double one_way = std::max(slowest_peer, coord_drain);
      rec.aggregation_seconds = 2.0 * one_way;
      rec.round_seconds = slowest + rec.aggregation_seconds;
      break;
    }
    case Method::kAllReduceDML: {
      const auto min_bw = topology_.min_link_bandwidth();
      COMDML_REQUIRE(min_bw.has_value(), "topology has no usable link");
      const auto agg = comm::allreduce_cost(
          static_cast<int64_t>(participants.size()), model_bytes_, *min_bw,
          options_.comms.aggregation, options_.comms.latency_sec);
      rec.aggregation_seconds = agg.seconds;
      rec.round_seconds = slowest + agg.seconds;
      break;
    }
    case Method::kComDML:
      COMDML_CHECK(false);  // rejected in constructor
  }

  // All of these methods leave faster agents idle while the straggler
  // finishes its full-model update.
  for (const double t : compute) rec.idle_seconds += slowest - t;
  rec.unbalanced_seconds = rec.round_seconds;
  ++round_;
  return rec;
}

core::RunReport BaselineFleet::run(int64_t rounds) {
  COMDML_CHECK(rounds > 0);
  core::RunReport report;
  report.rounds.reserve(static_cast<size_t>(rounds));
  for (int64_t r = 0; r < rounds; ++r) report.rounds.push_back(step());
  return report;
}

}  // namespace comdml::baselines
