// Unified fleet facade: one step()/run()/evaluate() interface over the
// repo's two engines — the paper-scale timing simulator, SimulatedFleet,
// and the real-execution engine, RealFleet. Each runs ComDML and, with
// pairing off, every baseline (AllReduce-DML, FedAvg, FedProx, gossip,
// BrainTorrent).
//
//   auto fleet = core::FleetBuilder()
//                    .method(learncurve::Method::kComDML)
//                    .options(core::FleetOptions::paper_defaults())
//                    .topology(topology)
//                    .architecture(nn::resnet56_spec())
//                    .shard_sizes(sizes)
//                    .build();               // timing simulation
//
//   auto fleet = core::FleetBuilder()
//                    .method(learncurve::Method::kFedAvg)
//                    .topology(topology)
//                    .model(factory, classes)
//                    .shards(std::move(datasets))
//                    .build();               // real execution
//
// The builder picks the engine from real-vs-simulated inputs. Both
// engines take the one FleetOptions; SimulatedFleet returns the one
// RoundReport (core/round_stats.hpp) itself, and step() maps
// RealFleet::RoundStats onto it, so callers stop caring which engine is
// underneath. This is the entry point new scenarios (async rounds, sharded
// fleets, alternative backends) extend.
#pragma once

#include <memory>
#include <optional>

#include "core/real_fleet.hpp"
#include "core/trainer.hpp"

namespace comdml::core {

class FleetRuntime {
 public:
  /// One fleet round on whatever engine is underneath.
  RoundReport step();
  RunReport run(int64_t rounds);

  [[nodiscard]] learncurve::Method method() const noexcept {
    return method_;
  }
  /// True when the fleet trains real tensors (evaluate()/model() legal).
  [[nodiscard]] bool real() const noexcept {
    return real_fleet_ != nullptr;
  }
  [[nodiscard]] int64_t agents() const noexcept { return agents_; }
  [[nodiscard]] int64_t rounds_executed() const noexcept { return round_; }

  /// Accuracy of the shared model on a held-out set (real fleets only).
  [[nodiscard]] float evaluate(const data::Dataset& test);
  /// Agent replica access (real fleets only).
  [[nodiscard]] nn::Sequential& model(int64_t agent);

  /// Elastic membership between rounds (real fleets only): leave()
  /// removes an agent, rejoin() re-admits it initialized from consensus.
  void leave(int64_t agent);
  void rejoin(int64_t agent);
  [[nodiscard]] std::vector<int64_t> live_agents() const;

  /// Durable fleet state between rounds (real fleets only). checkpoint
  /// is one frame of every agent, checkpoint_shard one frame of the
  /// listed agents; restore reads any concatenation of frames and also
  /// resynchronizes the runtime's round counter. See RealFleet.
  [[nodiscard]] std::vector<uint8_t> checkpoint();
  [[nodiscard]] std::vector<uint8_t> checkpoint_shard(
      int64_t shard, int64_t shards, const std::vector<int64_t>& covered);
  void restore(const std::vector<uint8_t>& bytes);

  /// The underlying RealFleet (any real method), or nullptr for the
  /// simulators. Multi-process workers (fleetd) reach through this to
  /// install a DistContext.
  [[nodiscard]] RealFleet* real_comdml() noexcept {
    return real_fleet_.get();
  }

 private:
  friend class FleetBuilder;
  FleetRuntime() = default;
  /// The RealFleet engine; throws, naming `what`, for every other engine.
  [[nodiscard]] RealFleet& real_fleet(const char* what) const;

  learncurve::Method method_ = learncurve::Method::kComDML;
  int64_t agents_ = 0;
  int64_t round_ = 0;
  // Exactly one engine is non-null.
  std::unique_ptr<SimulatedFleet> sim_fleet_;
  std::unique_ptr<RealFleet> real_fleet_;
};

/// Collects the inputs for a FleetRuntime and validates the combination.
/// `method`, `topology`, and exactly one of {architecture+shard_sizes,
/// model+shards} are required.
class FleetBuilder {
 public:
  FleetBuilder& method(learncurve::Method m);
  FleetBuilder& options(FleetOptions o);
  FleetBuilder& topology(sim::Topology t);

  // Paper-scale timing simulation inputs.
  FleetBuilder& architecture(nn::ArchitectureSpec spec);
  FleetBuilder& shard_sizes(std::vector<int64_t> sizes);
  /// Scheduler ablation (ComDML simulation only).
  FleetBuilder& scheduler(Scheduler s);

  // Real-execution inputs.
  FleetBuilder& model(ModelFactory factory, int64_t classes);
  FleetBuilder& shards(std::vector<data::Dataset> datasets);

  [[nodiscard]] FleetRuntime build();

 private:
  learncurve::Method method_ = learncurve::Method::kComDML;
  FleetOptions options_;
  bool options_set_ = false;
  std::optional<sim::Topology> topology_;
  std::optional<nn::ArchitectureSpec> spec_;
  std::optional<std::vector<int64_t>> shard_sizes_;
  Scheduler scheduler_ = Scheduler::kComDML;
  ModelFactory factory_;
  int64_t classes_ = 0;
  std::optional<std::vector<data::Dataset>> shards_;
  bool consumed_ = false;  ///< build() moves the inputs out exactly once
};

}  // namespace comdml::core
