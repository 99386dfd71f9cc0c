// Per-round and per-run records shared by every fleet engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/check.hpp"

namespace comdml::core {

/// Union of the per-round stats of every fleet engine. Which fields are
/// filled depends on the engine underneath:
///  - paper-scale simulators: the full timing breakdown (compute / comm /
///    aggregation / idle / unbalanced) plus pairs and churn;
///  - RealFleet (ComDML, and AllReduce-DML with num_pairs == 0):
///    round_seconds (balanced span + collective), compute_seconds, the
///    aggregation clock and executed bytes, pairs, and the loss/privacy
///    fields;
///  - RealBaselineFleet (FedAvg, FedProx, gossip, BrainTorrent):
///    compute_seconds (slowest agent's modeled solo time, on RealFleet's
///    clock), the aggregation clock/bytes, round_seconds = compute +
///    aggregation, and mean_loss.
/// Unfilled fields are zero.
struct RoundReport {
  int64_t round = 0;
  double round_seconds = 0.0;        ///< modeled wall-clock of the round
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;         ///< largest pair communication time
  double aggregation_seconds = 0.0;  ///< collective / server exchange
  double idle_seconds = 0.0;
  double unbalanced_seconds = 0.0;   ///< counterfactual without offloading
  int64_t aggregation_bytes = 0;     ///< executed collective traffic (real)
  /// RealFleet rounds: bucket count (1 when comms.bucket_bytes == 0) and
  /// the aggregation time left on the round's critical path after overlapping
  /// collectives with the compute tail (== aggregation_seconds when
  /// nothing is hidden).
  int64_t buckets = 0;
  double exposed_comm_seconds = 0.0;
  /// Buckets split-trained slow replicas published layer-by-layer while
  /// their split backward still ran (real ComDML only; see
  /// RealFleet::RoundStats::split_early_buckets).
  int64_t split_early_buckets = 0;
  int64_t num_pairs = 0;
  int64_t dropped_agents = 0;
  /// Solo agents deferred past the straggler deadline (RealFleet only;
  /// see RealFleet::RoundStats::late_agents).
  int64_t late_agents = 0;
  /// Retransmission traffic under message faults (RealFleet only;
  /// excluded from goodput).
  int64_t retransmit_bytes = 0;
  // Real-execution only:
  float mean_loss = 0.0f;
  float mean_slow_loss = 0.0f;
  double mean_dcor = 0.0;
  double mean_wire_compression = 0.0;
};

struct RunReport {
  std::vector<RoundReport> rounds;

  [[nodiscard]] double total_seconds() const {
    double t = 0.0;
    for (const auto& r : rounds) t += r.round_seconds;
    return t;
  }

  [[nodiscard]] double mean_round_seconds() const {
    COMDML_REQUIRE(!rounds.empty(), "no rounds recorded");
    return total_seconds() / static_cast<double>(rounds.size());
  }

  /// Wall-clock until `target_rounds` (fractional) rounds have completed;
  /// rounds beyond the recorded horizon extrapolate at the mean recorded
  /// rate.
  [[nodiscard]] double time_for_rounds(double target_rounds) const {
    COMDML_CHECK(target_rounds >= 0.0);
    COMDML_REQUIRE(!rounds.empty(), "no rounds recorded");
    const double total = total_seconds();
    double t = 0.0;
    double remaining = target_rounds;
    for (const auto& r : rounds) {
      if (remaining <= 0.0) return t;
      const double take = std::min(remaining, 1.0);
      t += take * r.round_seconds;
      remaining -= take;
    }
    if (remaining > 0.0)
      t += remaining * (total / static_cast<double>(rounds.size()));
    return t;
  }
};

}  // namespace comdml::core
