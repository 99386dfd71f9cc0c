#include "core/fleet_runtime.hpp"

namespace comdml::core {

// ---- FleetRuntime -----------------------------------------------------------

RoundReport FleetRuntime::step() {
  RoundReport rep;
  if (sim_fleet_ != nullptr) {
    rep = sim_fleet_->step();
  } else {
    const auto stats = real_fleet_->step();
    rep.round_seconds = stats.sim_time;
    rep.compute_seconds = stats.compute_seconds;
    rep.aggregation_seconds = stats.aggregation_seconds;
    rep.aggregation_bytes = stats.aggregation_bytes;
    rep.buckets = stats.buckets;
    rep.exposed_comm_seconds = stats.exposed_comm_seconds;
    rep.split_early_buckets = stats.split_early_buckets;
    rep.num_pairs = stats.num_pairs;
    rep.mean_loss = stats.mean_loss;
    rep.mean_slow_loss = stats.mean_slow_loss;
    rep.mean_dcor = stats.mean_dcor;
    rep.mean_wire_compression = stats.mean_wire_compression;
    rep.dropped_agents = stats.dropped_agents;
    rep.late_agents = stats.late_agents;
    rep.retransmit_bytes = stats.retransmit_bytes;
  }
  rep.round = round_++;
  return rep;
}

RunReport FleetRuntime::run(int64_t rounds) {
  COMDML_CHECK(rounds > 0);
  RunReport report;
  report.rounds.reserve(static_cast<size_t>(rounds));
  for (int64_t r = 0; r < rounds; ++r) report.rounds.push_back(step());
  return report;
}

float FleetRuntime::evaluate(const data::Dataset& test) {
  return real_fleet("evaluate()").evaluate(test);
}

nn::Sequential& FleetRuntime::model(int64_t agent) {
  return real_fleet("model()").model(agent);
}

RealFleet& FleetRuntime::real_fleet(const char* what) const {
  COMDML_REQUIRE(real_fleet_ != nullptr,
                 what << " needs a real-execution fleet (builder with "
                         "model()/shards())");
  return *real_fleet_;
}

void FleetRuntime::leave(int64_t agent) {
  real_fleet("elastic membership").leave(agent);
}

void FleetRuntime::rejoin(int64_t agent) {
  real_fleet("elastic membership").rejoin(agent);
}

std::vector<int64_t> FleetRuntime::live_agents() const {
  return real_fleet("elastic membership").live_agents();
}

std::vector<uint8_t> FleetRuntime::checkpoint() {
  return real_fleet("checkpoint/restore").checkpoint();
}

void FleetRuntime::restore(const std::vector<uint8_t>& bytes) {
  real_fleet("checkpoint/restore").restore(bytes);
  round_ = real_fleet_->round();
}

std::vector<uint8_t> FleetRuntime::checkpoint_shard(
    int64_t shard, int64_t shards, const std::vector<int64_t>& covered) {
  return real_fleet("checkpoint/restore")
      .checkpoint_shard(shard, shards, covered);
}

// ---- FleetBuilder -----------------------------------------------------------

FleetBuilder& FleetBuilder::method(learncurve::Method m) {
  method_ = m;
  return *this;
}

FleetBuilder& FleetBuilder::options(FleetOptions o) {
  options_ = o;
  options_set_ = true;
  return *this;
}

FleetBuilder& FleetBuilder::topology(sim::Topology t) {
  topology_ = std::move(t);
  return *this;
}

FleetBuilder& FleetBuilder::architecture(nn::ArchitectureSpec spec) {
  spec_ = std::move(spec);
  return *this;
}

FleetBuilder& FleetBuilder::shard_sizes(std::vector<int64_t> sizes) {
  shard_sizes_ = std::move(sizes);
  return *this;
}

FleetBuilder& FleetBuilder::scheduler(Scheduler s) {
  scheduler_ = s;
  return *this;
}

FleetBuilder& FleetBuilder::model(ModelFactory factory, int64_t classes) {
  factory_ = std::move(factory);
  classes_ = classes;
  return *this;
}

FleetBuilder& FleetBuilder::shards(std::vector<data::Dataset> datasets) {
  shards_ = std::move(datasets);
  return *this;
}

FleetRuntime FleetBuilder::build() {
  COMDML_REQUIRE(!consumed_,
                 "FleetBuilder::build() already consumed this builder's "
                 "inputs; configure a fresh builder per fleet");
  consumed_ = true;
  COMDML_REQUIRE(topology_.has_value(), "FleetBuilder needs a topology()");
  COMDML_REQUIRE(topology_->agents() > 0,
                 "FleetBuilder needs a topology with at least one agent");
  const bool wants_real = shards_.has_value() || factory_ != nullptr;
  const bool wants_sim = spec_.has_value() || shard_sizes_.has_value();
  COMDML_REQUIRE(wants_real != wants_sim,
                 "FleetBuilder needs either architecture()+shard_sizes() "
                 "(timing simulation) or model()+shards() (real "
                 "execution), not both");

  FleetRuntime runtime;
  runtime.method_ = method_;
  runtime.agents_ = topology_->agents();
  if (wants_sim) {
    COMDML_REQUIRE(spec_.has_value() && shard_sizes_.has_value(),
                   "timing simulation needs architecture() and "
                   "shard_sizes()");
    // Simulated fleets default to the paper-scale preset.
    const FleetOptions opts =
        options_set_ ? options_ : FleetOptions::paper_defaults();
    runtime.sim_fleet_ = std::make_unique<SimulatedFleet>(
        *spec_, opts, std::move(*topology_), std::move(*shard_sizes_),
        method_, scheduler_);
  } else {
    COMDML_REQUIRE(factory_ != nullptr && shards_.has_value(),
                   "real execution needs model() and shards()");
    COMDML_REQUIRE(scheduler_ == Scheduler::kComDML,
                   "scheduler() ablations only apply to the ComDML "
                   "simulation");
    runtime.real_fleet_ = std::make_unique<RealFleet>(
        factory_, classes_, std::move(*shards_), std::move(*topology_),
        options_, method_);
  }
  return runtime;
}

}  // namespace comdml::core
