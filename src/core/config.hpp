// Fleet-level configuration shared by every engine and every method.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "learncurve/curves.hpp"
#include "nn/optimizer.hpp"

namespace comdml::core {

/// Layered options for every fleet the repo can run — the one structure
/// behind core::FleetBuilder, the paper-scale timing simulator
/// (core::SimulatedFleet) and the real-execution engine (core::RealFleet,
/// whose Options type aliases this). Each engine runs every method.
///
/// Defaults suit the real-execution fleets (small models, short rounds);
/// `paper_defaults()` switches the training geometry to the paper-scale
/// simulation values (batch 100, seed 42).
struct FleetOptions {
  uint64_t seed = 7;

  /// Local-training knobs (real-execution fleets; `batch_size` also drives
  /// the simulated batch-level schedule).
  struct TrainOptions {
    int64_t batch_size = 16;
    /// Mini-batches each agent trains per round (keeps tests fast while
    /// the timing model still uses full shard sizes).
    int64_t batches_per_round = 4;
    nn::SGD::Options sgd{0.05f, 0.9f, 0.0f};
    /// FedProx proximal coefficient (used when method == kFedProx): each
    /// local step pulls the weights toward their round-start values.
    float prox_mu = 0.01f;
    /// Plateau LR schedule (the paper reduces LR by 0.2/0.5 when accuracy
    /// plateaus). 0 disables; otherwise the LR is multiplied by this
    /// factor when the fleet loss stops improving for `plateau_patience`
    /// rounds.
    float plateau_factor = 0.0f;
    int plateau_patience = 5;
    /// Reference FLOP/s of a cpu=1.0 agent for the *simulated clock* of
    /// real-execution fleets. Deliberately small: real-mode models are
    /// tiny, and the paper's offloading regime (compute >> per-batch comm)
    /// only appears when the simulated compute time is scaled to match.
    double reference_flops = 1e6;
  } train;

  /// Communication-substrate knobs (transport + collectives).
  struct CommOptions {
    /// Allreduce of ComDML and AllReduce-DML rounds (the other real
    /// baselines run their own param-server or gossip collective).
    comm::AllReduceAlgo aggregation = comm::AllReduceAlgo::kHalvingDoubling;
    /// Wire compression applied to intermediate activations. The profiled
    /// cuts sit after ReLU units, whose outputs are ~50 % zeros; 8-bit
    /// quantization (Hubara et al. [36], cited by the paper as integrable)
    /// combined with sparse encoding gives ~8x over raw float32. Model
    /// parameters always travel uncompressed.
    double activation_compression = 8.0;
    /// Aggregate server bandwidth for parameter-server methods, shared
    /// across concurrent transfers.
    double server_mbps = 1000.0;
    double latency_sec = comm::kDefaultLatencySec;
    /// Partition model state into buckets of about this many fp32 wire
    /// bytes and aggregate per bucket through the round pipeline
    /// (core/round_pipeline.hpp). 0 = one whole-state bucket (a flat
    /// round).
    int64_t bucket_bytes = 0;
    /// Overlapped rounds: run bucket collectives concurrently with the
    /// tail of local training. Off, the same buckets reduce sequentially
    /// after the training barrier — the two
    /// modes are bit-identical; overlap only changes the wall-clock
    /// schedule. With differential privacy the overlap window closes:
    /// noise draws are serialized on the fleet RNG after training, so
    /// buckets publish post-noising and rounds report the full
    /// aggregation time as exposed.
    bool overlap = false;
    /// Wire codec of the bucket collectives. kFp32 ships raw fp32
    /// payloads and stays bit-identical to the uncompressed rounds;
    /// kInt8Quantized compresses every exchange-step payload to dense
    /// symmetric int8 (~4x fewer wire bytes, lossy at int8 resolution).
    enum class Codec { kFp32, kInt8Quantized };
    Codec codec = Codec::kFp32;
    /// Error-feedback residual accumulation per (agent, bucket): each
    /// round the previous round's quantization error is added back into
    /// the payload before it is quantized, so compression error stays a
    /// bounded perturbation instead of accumulating as bias across
    /// rounds (Chen et al., communication-efficient policy gradients).
    /// Only meaningful with a lossy codec; ignored for kFp32.
    bool error_feedback = true;

    /// Transport codec behind `codec` (nullptr = identity/fp32 wire).
    [[nodiscard]] const comm::Codec* bucket_codec() const {
      return codec == Codec::kInt8Quantized ? &comm::quantized_codec()
                                            : nullptr;
    }
  } comms;

  /// Privacy techniques applied before state leaves the device (§V-B-4).
  struct PrivacyOptions {
    learncurve::PrivacyTechnique technique =
        learncurve::PrivacyTechnique::kNone;
    double dp_epsilon = 0.5;
    double dp_sensitivity = 1e-3;
    int64_t shuffle_patch = 2;
  } privacy;

  /// Deterministic agent-failure injection for elastic-fleet testing
  /// (real-execution fleets). Each entry kills one agent at one precise
  /// point of one round; the fleet completes the round over the survivors
  /// and the dead agent stays out until rejoined.
  struct FaultOptions {
    struct AgentFailure {
      int64_t agent = -1;
      int64_t round = 0;
      /// Die after training this many batches, before publishing anything
      /// (-1 = off). With every mode off, the agent leaves cleanly before
      /// the round starts.
      int64_t after_batches = -1;
      /// Die after publishing this many buckets of the final batch — 0
      /// kills the agent at its first publish attempt, mid split-backward
      /// for a paired slow agent (-1 = off).
      int64_t after_buckets = -1;
      /// Kill the agent's endpoint once any bucket collective reaches
      /// this transport step: the in-flight collective recovers around
      /// the survivors (-1 = off).
      int64_t at_collective_step = -1;
    };
    std::vector<AgentFailure> failures;
    /// Per-message drop probability on every link of the fleet transport
    /// (the unreliable-network knob). Bucket collectives then route
    /// through comm::ReliableChannel — dropped copies are retransmitted
    /// with exponential backoff, and the retransmission traffic is
    /// reported separately so goodput still matches the fault-free run.
    double message_drop_prob = 0.0;
    /// Per-round straggler deadline in modeled seconds (0 = off). A solo
    /// agent whose round would exceed the
    /// deadline is deferred: the on-time agents aggregate without it, its
    /// late update lands in its error-feedback residual for the next
    /// round, and it re-syncs to the fleet consensus. Paired agents are
    /// never deferred — pairing *is* the paper's straggler rescue.
    double deadline_sec = 0.0;
    /// Autonomous checkpointing: write a checksummed fleet checkpoint to
    /// `checkpoint_dir` every `checkpoint_every` completed rounds
    /// (0 = off), keeping the newest `checkpoint_retain` files.
    int64_t checkpoint_every = 0;
    int64_t checkpoint_retain = 2;
    std::string checkpoint_dir;
  } faults;

  /// Paper-scale simulation knobs (participation sampling, dynamic
  /// profiles, churn).
  struct ScaleOptions {
    /// Fraction of agents sampled each round (Table III uses 0.2).
    double participation = 1.0;
    /// Dynamic environment: re-draw this fraction of profiles every
    /// `reshuffle_period` rounds (paper: 20 % after round 100).
    double reshuffle_fraction = 0.2;
    int64_t reshuffle_period = 100;  ///< 0 disables profile dynamics
    /// Cap on the number of profiled split points (0 = every boundary).
    size_t max_split_points = 0;
    /// Per-round probability that a sampled agent fails before training
    /// (device churn; simulated fleets, every method). Failed agents skip
    /// the round; the fleet re-pairs among survivors and aggregates without
    /// them — the paper's no-single-point-of-failure claim as an
    /// executable property.
    double agent_dropout = 0.0;
  } scale;

  /// Reject out-of-range knobs with a descriptive error instead of letting
  /// a zero batch size or negative bandwidth surface as a hang, a
  /// divide-by-zero clock, or silent misbehavior deep inside a round.
  /// Every fleet engine's constructor calls this.
  void validate() const {
    COMDML_REQUIRE(train.batch_size > 0,
                   "batch_size must be positive, got " << train.batch_size);
    COMDML_REQUIRE(train.batches_per_round > 0,
                   "batches_per_round must be positive, got "
                       << train.batches_per_round);
    COMDML_REQUIRE(train.sgd.lr > 0.0f,
                   "sgd.lr must be positive, got " << train.sgd.lr);
    COMDML_REQUIRE(
        train.sgd.momentum >= 0.0f && train.sgd.momentum < 1.0f,
        "sgd.momentum must be in [0, 1), got " << train.sgd.momentum);
    COMDML_REQUIRE(train.sgd.weight_decay >= 0.0f,
                   "sgd.weight_decay must be non-negative");
    COMDML_REQUIRE(train.prox_mu >= 0.0f, "prox_mu must be non-negative");
    COMDML_REQUIRE(
        train.plateau_factor >= 0.0f && train.plateau_factor < 1.0f,
        "plateau_factor must be in [0, 1), got " << train.plateau_factor);
    COMDML_REQUIRE(train.plateau_factor == 0.0f || train.plateau_patience > 0,
                   "plateau_patience must be positive when the plateau "
                   "schedule is enabled");
    COMDML_REQUIRE(train.reference_flops > 0.0,
                   "reference_flops must be positive, got "
                       << train.reference_flops);
    COMDML_REQUIRE(comms.activation_compression >= 1.0,
                   "activation_compression must be >= 1, got "
                       << comms.activation_compression);
    COMDML_REQUIRE(comms.server_mbps > 0.0,
                   "server_mbps must be positive, got " << comms.server_mbps);
    COMDML_REQUIRE(comms.latency_sec >= 0.0,
                   "latency_sec must be non-negative, got "
                       << comms.latency_sec);
    COMDML_REQUIRE(comms.bucket_bytes >= 0,
                   "bucket_bytes must be non-negative, got "
                       << comms.bucket_bytes);
    COMDML_REQUIRE(privacy.dp_epsilon > 0.0,
                   "dp_epsilon must be positive, got " << privacy.dp_epsilon);
    COMDML_REQUIRE(privacy.dp_sensitivity > 0.0,
                   "dp_sensitivity must be positive");
    COMDML_REQUIRE(privacy.shuffle_patch > 0,
                   "shuffle_patch must be positive, got "
                       << privacy.shuffle_patch);
    for (const FaultOptions::AgentFailure& f : faults.failures) {
      COMDML_REQUIRE(f.agent >= 0,
                     "fault injection needs agent >= 0, got " << f.agent);
      COMDML_REQUIRE(f.round >= 0,
                     "fault injection needs round >= 0, got " << f.round);
      const int modes = (f.after_batches >= 0) + (f.after_buckets >= 0) +
                        (f.at_collective_step >= 0);
      COMDML_REQUIRE(modes <= 1,
                     "agent failure must pick at most one death point");
    }
    COMDML_REQUIRE(
        faults.message_drop_prob >= 0.0 && faults.message_drop_prob < 1.0,
        "message_drop_prob must be in [0, 1), got "
            << faults.message_drop_prob);
    COMDML_REQUIRE(faults.deadline_sec >= 0.0,
                   "deadline_sec must be non-negative, got "
                       << faults.deadline_sec);
    COMDML_REQUIRE(faults.checkpoint_every >= 0,
                   "checkpoint_every must be non-negative, got "
                       << faults.checkpoint_every);
    COMDML_REQUIRE(
        faults.checkpoint_every == 0 || faults.checkpoint_retain > 0,
        "checkpoint_retain must be positive when auto-checkpointing, got "
            << faults.checkpoint_retain);
    COMDML_REQUIRE(faults.checkpoint_every == 0 ||
                       !faults.checkpoint_dir.empty(),
                   "auto-checkpointing needs a checkpoint_dir");
    COMDML_REQUIRE(scale.participation > 0.0 && scale.participation <= 1.0,
                   "participation must be in (0, 1], got "
                       << scale.participation);
    COMDML_REQUIRE(
        scale.reshuffle_fraction >= 0.0 && scale.reshuffle_fraction <= 1.0,
        "reshuffle_fraction must be in [0, 1]");
    COMDML_REQUIRE(scale.reshuffle_period >= 0,
                   "reshuffle_period must be non-negative");
    COMDML_REQUIRE(scale.agent_dropout >= 0.0 && scale.agent_dropout < 1.0,
                   "agent_dropout must be in [0, 1), got "
                       << scale.agent_dropout);
  }

  /// Paper-scale simulation preset (batch 100, seed 42).
  [[nodiscard]] static FleetOptions paper_defaults() {
    FleetOptions o;
    o.seed = 42;
    o.train.batch_size = 100;
    return o;
  }
};

}  // namespace comdml::core
