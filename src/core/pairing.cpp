#include "core/pairing.hpp"

#include <algorithm>

#include "comm/link.hpp"

namespace comdml::core {

AgentInfo modeled_agent(int64_t id, double cpu, double reference_flops,
                        double flops_per_sample, int64_t batch_size,
                        int64_t num_batches) {
  AgentInfo a;
  a.id = id;
  const double sps = cpu * reference_flops / flops_per_sample;
  a.proc_speed = sps / static_cast<double>(batch_size);
  a.num_batches = num_batches;
  a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  return a;
}

std::optional<SplitChoice> best_split(const SplitProfile& profile,
                                      const AgentInfo& slow,
                                      const AgentInfo& fast, double link_mbps,
                                      int64_t batch_size) {
  COMDML_CHECK(batch_size > 0);
  if (link_mbps <= 0.0) return std::nullopt;
  COMDML_CHECK(slow.proc_speed > 0.0 && fast.proc_speed > 0.0);
  COMDML_CHECK(slow.num_batches > 0);

  const double link_bps = comm::bytes_per_sec(link_mbps);
  const auto n_i = static_cast<double>(slow.num_batches);
  std::optional<SplitChoice> best;
  for (const SplitPoint& m : profile.points()) {
    // Degenerate splits (all or nothing) are not offloads.
    if (m.t_slow <= 0.0 || m.t_fast <= 0.0) continue;
    const double p_i_m = slow.proc_speed / m.t_slow;   // batches/sec, prefix
    const double p_j_m = fast.proc_speed / m.t_fast;   // batches/sec, suffix
    const double act_per_batch =
        static_cast<double>(m.nu_bytes) * static_cast<double>(batch_size);
    // Suffix parameters travel twice: offload at pairing, trained suffix
    // back before aggregation.
    const double model_ship =
        2.0 * static_cast<double>(m.suffix_param_bytes) / link_bps;
    const double comm = n_i * act_per_batch / link_bps + model_ship;
    const double slow_side = n_i / p_i_m;
    const double fast_side = fast.tau_solo + comm + n_i / p_j_m;
    const double tau_ij = std::max(slow_side, fast_side);
    if (!best || tau_ij < best->time) best = SplitChoice{m.cut, tau_ij, comm};
  }
  return best;
}

namespace {

/// Pairing(i) from Algorithm 1: agent i's local choice among unpaired,
/// strictly faster, connected helpers. Helpers that are not training this
/// round contribute their full capacity (tau_j = 0).
std::optional<OffloadDecision> pairing_step(
    const SplitProfile& profile, const std::vector<AgentInfo>& infos,
    const sim::Topology& topology, int64_t batch_size, int64_t i,
    const std::vector<bool>& paired, const std::vector<bool>& helper,
    const std::vector<bool>& participating) {
  const AgentInfo& slow = infos[static_cast<size_t>(i)];
  std::optional<OffloadDecision> best;
  for (int64_t j = 0; j < topology.agents(); ++j) {
    if (j == i || paired[static_cast<size_t>(j)] ||
        !helper[static_cast<size_t>(j)])
      continue;
    AgentInfo fast = infos[static_cast<size_t>(j)];
    if (!participating[static_cast<size_t>(j)])
      fast.tau_solo = 0.0;  // idle helper: no local task this round
    if (fast.tau_solo >= slow.tau_solo) continue;  // only offload to faster
    const double link = topology.bandwidth_mbps(i, j);
    const auto choice = best_split(profile, slow, fast, link, batch_size);
    if (!choice) continue;
    if (choice->time >= slow.tau_solo) continue;  // must beat training alone
    if (!best || choice->time < best->estimated_time) {
      best = OffloadDecision{i, j, choice->cut, choice->time,
                             choice->comm_time};
    }
  }
  return best;
}

double round_time_of(const PairingResult& result,
                     const std::vector<AgentInfo>& infos) {
  double worst = 0.0;
  for (const auto& p : result.pairs) worst = std::max(worst, p.estimated_time);
  for (const int64_t id : result.solo)
    worst = std::max(worst, infos[static_cast<size_t>(id)].tau_solo);
  return worst;
}

std::vector<bool> participation_mask(size_t agents,
                                     const std::vector<int64_t>& participants) {
  std::vector<bool> mask(agents, false);
  for (const int64_t id : participants) {
    COMDML_CHECK(id >= 0 && id < static_cast<int64_t>(agents));
    mask[static_cast<size_t>(id)] = true;
  }
  return mask;
}

}  // namespace

PairingResult pair_agents(const SplitProfile& profile,
                          const std::vector<AgentInfo>& infos,
                          const sim::Topology& topology, int64_t batch_size,
                          const std::vector<int64_t>& participants,
                          const std::vector<int64_t>* helpers) {
  COMDML_CHECK(static_cast<int64_t>(infos.size()) == topology.agents());
  const auto participating = participation_mask(infos.size(), participants);
  const auto helper = helpers == nullptr
                          ? participating
                          : participation_mask(infos.size(), *helpers);

  // The shared list A: participants in descending order of tau (line 3).
  std::vector<int64_t> order = participants;
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const double ta = infos[static_cast<size_t>(a)].tau_solo;
    const double tb = infos[static_cast<size_t>(b)].tau_solo;
    if (ta != tb) return ta > tb;
    return a < b;  // deterministic tie-break
  });

  PairingResult result;
  std::vector<bool> paired(infos.size(), false);
  for (const int64_t i : order) {
    if (paired[static_cast<size_t>(i)]) continue;
    auto decision = pairing_step(profile, infos, topology, batch_size, i,
                                 paired, helper, participating);
    if (decision) {
      paired[static_cast<size_t>(i)] = true;
      paired[static_cast<size_t>(decision->fast_agent)] = true;
      result.pairs.push_back(*decision);
    } else {
      result.solo.push_back(i);
      paired[static_cast<size_t>(i)] = true;
    }
  }
  result.estimated_round_time = round_time_of(result, infos);
  return result;
}

PairingResult random_pairing(const SplitProfile& profile,
                             const std::vector<AgentInfo>& infos,
                             const sim::Topology& topology,
                             int64_t batch_size,
                             const std::vector<int64_t>& participants,
                             tensor::Rng& rng) {
  const auto participating = participation_mask(infos.size(), participants);
  std::vector<int64_t> order = participants;
  rng.shuffle(order);

  PairingResult result;
  std::vector<bool> paired(infos.size(), false);
  for (const int64_t i : order) {
    if (paired[static_cast<size_t>(i)]) continue;
    paired[static_cast<size_t>(i)] = true;
    // Pick the first random unpaired connected candidate; keep the offload
    // only if it helps at the best split.
    std::vector<int64_t> candidates;
    for (const int64_t j : order)
      if (!paired[static_cast<size_t>(j)] && topology.linked(i, j))
        candidates.push_back(j);
    if (candidates.empty()) {
      result.solo.push_back(i);
      continue;
    }
    const int64_t j = candidates[static_cast<size_t>(
        rng.below(static_cast<int64_t>(candidates.size())))];
    const AgentInfo& a = infos[static_cast<size_t>(i)];
    const AgentInfo& b = infos[static_cast<size_t>(j)];
    const AgentInfo& slow = a.tau_solo >= b.tau_solo ? a : b;
    const AgentInfo& fast = a.tau_solo >= b.tau_solo ? b : a;
    const auto choice = best_split(profile, slow, fast,
                                   topology.bandwidth_mbps(i, j), batch_size);
    if (choice && choice->time < slow.tau_solo) {
      paired[static_cast<size_t>(j)] = true;
      result.pairs.push_back(OffloadDecision{slow.id, fast.id, choice->cut,
                                             choice->time, choice->comm_time});
    } else {
      result.solo.push_back(i);
    }
  }
  result.estimated_round_time = round_time_of(result, infos);
  return result;
}

PairingResult StaticPairing::apply(const SplitProfile& profile,
                                   const std::vector<AgentInfo>& infos,
                                   const sim::Topology& topology,
                                   int64_t batch_size,
                                   const std::vector<int64_t>& participants) {
  if (!fixed_) {
    // Fix pairs once: slowest with fastest, second slowest with second
    // fastest, etc., among round-0 participants.
    std::vector<int64_t> order = participants;
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return infos[static_cast<size_t>(a)].tau_solo >
             infos[static_cast<size_t>(b)].tau_solo;
    });
    std::vector<std::pair<int64_t, int64_t>> pairs;
    size_t lo = 0, hi = order.size();
    while (lo + 1 < hi) {
      pairs.emplace_back(order[lo], order[hi - 1]);
      ++lo;
      --hi;
    }
    fixed_ = std::move(pairs);
  }

  PairingResult result;
  std::vector<bool> used(infos.size(), false);
  const auto participating = participation_mask(infos.size(), participants);
  for (const auto& [slow_id, fast_id] : *fixed_) {
    if (!participating[static_cast<size_t>(slow_id)] ||
        !participating[static_cast<size_t>(fast_id)])
      continue;
    used[static_cast<size_t>(slow_id)] = true;
    used[static_cast<size_t>(fast_id)] = true;
    const AgentInfo& a = infos[static_cast<size_t>(slow_id)];
    const AgentInfo& b = infos[static_cast<size_t>(fast_id)];
    const AgentInfo& slow = a.tau_solo >= b.tau_solo ? a : b;
    const AgentInfo& fast = a.tau_solo >= b.tau_solo ? b : a;
    const auto choice =
        best_split(profile, slow, fast,
                   topology.bandwidth_mbps(slow.id, fast.id), batch_size);
    if (choice && choice->time < slow.tau_solo) {
      result.pairs.push_back(OffloadDecision{slow.id, fast.id, choice->cut,
                                             choice->time, choice->comm_time});
    } else {
      result.solo.push_back(slow.id);
      result.solo.push_back(fast.id);
    }
  }
  for (const int64_t id : participants)
    if (!used[static_cast<size_t>(id)]) result.solo.push_back(id);
  result.estimated_round_time = round_time_of(result, infos);
  return result;
}

}  // namespace comdml::core
