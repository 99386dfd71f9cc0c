// Round aggregation engine: concurrent bucketed collectives that hide
// aggregation behind the tail of local training.
//
// This is the only aggregation path, in-process and across processes.
// core::RealFleet builds one pipeline for its lifetime, whatever the
// method: ComDML and AllReduce-DML allreduce, FedAvg, FedProx and
// BrainTorrent run a param-server star, gossip pushes to one random peer
// (see the constructor). A flat round (bucket_bytes == 0) is a single
// whole-state bucket, so codecs, error feedback, straggler deferral and
// bucket-level faults work the same at every bucket size. A multi-process
// fleet (fleetd) runs it in mesh mode (set_mesh): each bucket collective
// runs over the one shared socket mesh with this process's owned rows only
// (comm::CollectiveRequest::owned), under two rules:
//
//   - Ordering: drain() reduces the buckets in plan order on the calling
//     thread, so every process walks the same steps in the same order and
//     the per-process step histories stay positionally aligned.
//   - No reset: the pipeline never reset()s or clear_pending()s the mesh
//     and never arms collective recovery on it. The mesh owner resets it
//     between rounds, a crash retry runs on a fresh mesh whose peers may
//     already be sending, and membership comes from the fleet's barrier.
//
// A fleet round used to be strictly `train -> (barrier) -> aggregate`; the
// collective only started after the slowest agent finished, so the round
// wall-time was compute + communication even though the two use different
// resources. This engine pipelines them:
//
//   - nn::BucketPlan partitions model state into fixed-byte buckets.
//   - Each agent's training task publishes bucket contributions as they
//     become final (layer-by-layer during the last backward, via
//     nn::BucketReadyTracker); the k-th contribution makes the bucket
//     ready.
//   - Idle pool workers run drain(): they pop ready buckets and execute
//     each bucket's collective (comm::AsyncCollective over the bucket's
//     own InProcTransport) while other workers are still training — the
//     allreduce of bucket i runs while bucket i+1 is still being computed.
//   - Waiting collectors help. A collector running a bucket on a pool
//     worker (where a nested parallel_for would run inline) posts each
//     phase of each collective step as a job of N items (one per sending
//     or receiving endpoint, see comm::ScheduleStep). Collectors waiting
//     in drain() with no ready bucket to take claim items of any open job
//     until it runs out, then go back to waiting; several buckets may have
//     open jobs at once. The poster runs items too, waits until every
//     helper has left its job, and then rethrows the first exception an
//     item raised. All waits block on condition variables; nothing spins.
//     Outside the pool (sequential rounds drain on the fleet's thread) the
//     steps fan out through core::parallel_for instead.
//   - An optional per-bucket wire codec (comm::quantized_codec) shrinks
//     every exchange-step payload on the wire, with cross-round
//     error-feedback residuals keeping repeated lossy rounds convergent.
//
// Determinism: a bucket's collective schedule and arithmetic depend only on
// (agents, bucket elems, protocol), never on which worker runs it or when,
// and distinct buckets touch disjoint slab regions — so the reduced state
// is bit-identical to running the same buckets sequentially, at every
// thread count. (Bucket-size invariance additionally holds for
// halving/doubling; see nn/bucket.hpp.)
//
// The modeled clock: each bucket's transport accounts the usual
// seconds/steps/bytes of its schedule, and compose_overlap_timeline()
// serializes the bucket collectives on the shared link starting at their
// ready times. The same composition runs on SimTransport-predicted and
// InProcTransport-executed bucket costs — which are equal by construction
// — so the predicted overlapped round time matches the executed schedule
// shape exactly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/collective.hpp"
#include "core/config.hpp"
#include "nn/bucket.hpp"

namespace comdml::core {

/// Modeled timeline of pipelined bucket collectives over one shared link:
/// collectives serialize on the link in ready order (ties broken by bucket
/// index), each starting when its payload is ready and the link is free.
struct OverlapTimeline {
  std::vector<double> start;   ///< per bucket, plan order
  std::vector<double> finish;  ///< per bucket, plan order
  double span = 0.0;  ///< round start -> last collective finish
};

[[nodiscard]] OverlapTimeline compose_overlap_timeline(
    const std::vector<double>& ready_seconds,
    const std::vector<double>& bucket_seconds);

/// Uniform all-to-all grid at `topology`'s bottleneck link rate (the seed
/// cost models' routing assumption, shared by every real fleet). Throws
/// when the topology has no usable link and more than one agent.
[[nodiscard]] comm::LinkGrid bottleneck_grid(const sim::Topology& topology,
                                             double latency_sec);

/// Star grid of one param-server round (FedAvg, FedProx, BrainTorrent):
/// endpoints 0..K-1 are the agents, endpoint K the server. Each selected
/// agent's edge runs at min(its uplink, comms.server_mbps / #selected)
/// with `comms.latency_sec`: the server's aggregate bandwidth is shared
/// across concurrent transfers, the central bottleneck the paper
/// attributes to server-based FL (§V-B-2). Throws if a selected agent has
/// no uplink.
[[nodiscard]] comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected,
    const FleetOptions::CommOptions& comms);

/// Executed traffic summary of one bucketed aggregation.
struct PipelineStats {
  int64_t buckets = 0;
  int64_t steps = 0;          ///< collective steps summed over buckets
  double comm_seconds = 0.0;  ///< modeled link seconds summed over buckets
  /// Max over transport endpoints (a param-server star's server too) of
  /// summed bucket sends.
  int64_t max_bytes_sent = 0;
  /// Retransmission traffic summed over buckets (reliable delivery under
  /// message faults; 0 on a clean network). Excluded from goodput.
  int64_t retransmit_bytes = 0;
  std::vector<double> bucket_seconds;  ///< per-bucket modeled clock
};

/// Concurrent bucketed-allreduce engine for fleet rounds. One instance per
/// fleet, reused round over round (the contribution slab, the per-bucket
/// transports, and the error-feedback residuals are retained;
/// begin_round() resets the accounting).
class RoundPipeline {
 public:
  /// `codec` (borrowed; nullptr = fp32 wire) compresses every exchange
  /// step's payload of every bucket collective — SimTransport-predicted
  /// and InProcTransport-executed wire bytes stay equal because the codec
  /// charges the same count with and without a payload. With
  /// `error_feedback` (lossy codecs only) each agent keeps a per-bucket
  /// residual across rounds: the contribution is quantized once at
  /// publish time, the quantization error is carried into the next
  /// round's payload, and repeated rounds stay convergent instead of
  /// accumulating compression bias.
  ///
  /// `faults` is installed on every bucket transport (unreliable-network
  /// injection: drops/delays/duplicates/corruption); the bucket collectives
  /// then retransmit through comm::ReliableChannel automatically.
  /// `straggler_support` allocates the residual slab even without a lossy
  /// codec so defer()/absorb_late() can carry a late agent's update into
  /// its next contribution (error feedback with an identity codec).
  ///
  /// `protocol` is the bucket collective; every bucket of every protocol
  /// runs its schedule through comm::AsyncCollective, over that bucket's
  /// contributors (on the mesh too, for the allreduces). `grid` has one
  /// endpoint per agent, plus the server for param-server
  /// (param_server_grid). `weights` (param-server; empty = uniform) holds
  /// one aggregation weight per agent, filtered down to each bucket's
  /// contributors. `rng` (gossip; borrowed) draws the partners, so gossip
  /// must not run buckets concurrently.
  RoundPipeline(int64_t agents, const nn::BucketPlan& plan,
                const comm::LinkGrid& grid, comm::Protocol protocol,
                const comm::Codec* codec = nullptr,
                bool error_feedback = false, comm::FaultPlan faults = {},
                bool straggler_support = false,
                std::vector<double> weights = {}, tensor::Rng* rng = nullptr);

  /// Reset counters/transports for a new round. No thread may be inside
  /// contribute()/drain() when this runs.
  void begin_round();

  /// Mesh mode (allreduce protocols only): run every bucket collective over
  /// `mesh` (borrowed; endpoints == agents) with only the rows `owned`
  /// marks (empty = all).
  /// After each bucket reduces, the non-owned contributor rows copy the
  /// first owned contributor's mean. Call again after a remesh.
  void set_mesh(comm::Transport* mesh, std::vector<char> owned);

  [[nodiscard]] const nn::BucketPlan& plan() const noexcept {
    return *plan_;
  }
  [[nodiscard]] int64_t agents() const noexcept { return agents_; }
  [[nodiscard]] comm::Protocol protocol() const noexcept { return protocol_; }

  // ---- elastic membership ---------------------------------------------------

  /// Remove `agent` between rounds: the next begin_round() expects no
  /// contribution from it and every bucket reduces over the remaining live
  /// set. Idempotent.
  void leave(int64_t agent);
  /// Re-admit `agent` between rounds. Its error-feedback residuals are
  /// zeroed (stale errors must not leak into the rejoined stream) and any
  /// endpoint faults against it are cleared on every bucket transport.
  /// Idempotent.
  void rejoin(int64_t agent);
  /// Mid-round death: drop `agent`'s not-yet-published contributions and
  /// re-target every affected bucket countdown so no collector waits
  /// forever. Contributions it already published stay in their buckets
  /// (they were real). Safe to call from the dying agent's own training
  /// task while collectors drain concurrently.
  void deactivate(int64_t agent);
  [[nodiscard]] bool agent_live(int64_t agent) const;
  [[nodiscard]] std::vector<int64_t> live_agents() const;

  // ---- straggler deferral ---------------------------------------------------

  /// Exclude a live agent from this round's aggregation (straggler past
  /// the deadline): every bucket stops waiting for its contribution and
  /// reduces over the on-time set. The agent stays live — it keeps
  /// training and rejoins the aggregation next round. Must run before the
  /// agent publishes anything this round; requires straggler_support.
  void defer(int64_t agent);
  /// Fold a deferred agent's late update into its error-feedback residual
  /// and adopt the round consensus: per element, the difference between
  /// its staged (late) state and `src_agent`'s reduced mean is added to
  /// the residual — the late work re-enters the stream next round instead
  /// of being discarded — and its slots take the consensus so
  /// restore_state() re-syncs the replica. `src_agent` must be an on-time
  /// reduced agent. Call after the round completes, with the late state
  /// staged via stage_state().
  void absorb_late(int64_t agent, int64_t src_agent);
  /// Flatten `state` into the agent's slots without contributing (for
  /// deferred agents).
  void stage_state(int64_t agent, const std::vector<tensor::Tensor*>& state);

  /// Arm/clear a scheduled endpoint failure on every bucket transport
  /// (mid-collective fault injection; collectives then run with recovery).
  void schedule_endpoint_failure(int64_t agent, int64_t after_steps);
  void clear_endpoint_failures();

  /// Error-feedback residual slab (agents x total_elems, agent-major;
  /// empty when error feedback is off). Survives rounds by design; these
  /// accessors let it also survive pipeline rebuilds and checkpoint/restore
  /// keyed by (agent, bucket) position.
  [[nodiscard]] const std::vector<double>& residuals() const noexcept {
    return residual_;
  }
  void load_residuals(const std::vector<double>& residuals);

  /// Agent `agent`'s flatten destination for bucket `bucket`
  /// (`plan().bucket(bucket).elems` fp64 values). Slots of distinct
  /// (agent, bucket) pairs are disjoint.
  [[nodiscard]] double* slot(int64_t agent, int64_t bucket);

  /// Publish agent's contribution to `bucket` (its slot must be fully
  /// written). Thread-safe; the k-th contribution enqueues the bucket's
  /// collective for the collectors.
  void contribute(int64_t agent, int64_t bucket);
  /// Publish every bucket for `agent` whose slots are already written
  /// (a coarse producer that publishes its whole state at once).
  void contribute_all(int64_t agent);
  /// After the round completes: write the agent's reduced bucket means
  /// back into `state`.
  void restore_state(int64_t agent, const std::vector<tensor::Tensor*>& state);

  /// Collector loop: pops ready buckets and executes their collectives
  /// until every bucket of the round is reduced (or abort()). Any number
  /// of threads may drain concurrently; idle pool workers call this after
  /// finishing their training tasks. In mesh mode every bucket must be
  /// ready; transport errors (a crashed peer) propagate.
  void drain();

  /// Fan `n_tasks` training tasks over the thread pool with, in overlapped
  /// mode, one collector slot per pool thread appended after them. Chunks
  /// are claimed in index order, so collector slots are only picked up by
  /// workers with no training work left; those workers drain ready bucket
  /// collectives concurrently with the remaining compute. A task exception
  /// aborts the pipeline (waking any waiting collectors) before it
  /// propagates. RealFleet::step() supplies the task body.
  void run_round(int64_t n_tasks,
                 const std::function<void(int64_t task)>& task_fn,
                 bool overlap);

  /// Wake collectors and abandon pending buckets (exception path). The
  /// round's results are unusable afterwards; begin_round() recovers.
  void abort();

  /// Executed traffic of the finished round. After the reduce, every
  /// agent's slots hold the bucket means (unflatten them back into the
  /// replicas). In mesh mode: deltas of the mesh's own counters.
  [[nodiscard]] PipelineStats stats() const;

 private:
  /// One phase of a collective step posted for waiting collectors.
  struct HelpJob {
    const std::function<void(int64_t)>* item = nullptr;
    int64_t items = 0;
    int64_t next = 0;     ///< next unclaimed item
    int64_t helpers = 0;  ///< collectors inside the job, poster excluded
    std::exception_ptr error;  ///< first exception an item raised
  };
  /// The comm::StepExecutor collectors hand their collectives: posts each
  /// phase through post_job().
  class HelpExecutor final : public comm::StepExecutor {
   public:
    explicit HelpExecutor(RoundPipeline& pipeline) : pipeline_(&pipeline) {}
    void run(int64_t items,
             const std::function<void(int64_t)>& item) override {
      pipeline_->post_job(items, item);
    }

   private:
    RoundPipeline* pipeline_;
  };

  void post_job(int64_t items, const std::function<void(int64_t)>& item);
  /// Claim and run items of `job` until none are left. `lk` holds mu_ on
  /// entry and exit; it is released while an item runs.
  static void work_job(HelpJob& job, std::unique_lock<std::mutex>& lk);
  /// An open job with unclaimed items, or nullptr. Caller holds mu_.
  [[nodiscard]] HelpJob* open_job() const;
  void run_bucket(int64_t bucket);
  void drain_mesh();
  /// Publish-time error feedback: fold the carried residual into the
  /// agent's slot, quantize the slot once through the codec, and keep the
  /// new quantization error for next round.
  void apply_error_feedback(int64_t agent, int64_t bucket);
  [[nodiscard]] int64_t live_count() const;
  /// Contribution state of (agent, bucket) this round.
  [[nodiscard]] std::atomic<char>& mark(int64_t agent, int64_t bucket);

  const nn::BucketPlan* plan_;
  int64_t agents_;
  comm::Protocol protocol_;
  const comm::Codec* codec_;  ///< nullptr = fp32 wire
  std::vector<double> weights_;  ///< per agent; empty = uniform
  tensor::Rng* rng_;             ///< gossip partner draws
  /// One transport per bucket so concurrent bucket collectives keep
  /// independent mailboxes and per-bucket accounting, and one prebuilt
  /// full-round schedule per bucket (allreduces) so steady-state rounds
  /// stop re-deriving them.
  std::vector<std::unique_ptr<comm::InProcTransport>> transports_;
  std::vector<comm::SteppedSchedule> schedules_;
  /// Mesh mode (nullptr = off): transport, owned rows, round traffic.
  comm::Transport* mesh_ = nullptr;
  std::vector<char> owned_;
  PipelineStats mesh_stats_;
  std::vector<double> slab_;  ///< agents_ x plan.total_elems(), agent-major
  /// Error-feedback residuals, same layout as slab_; empty when disabled.
  /// Persists across rounds — that is the point of error feedback.
  std::vector<double> residual_;
  std::vector<std::atomic<int64_t>> pending_;  ///< per bucket
  std::vector<char> live_;  ///< per agent; 0 = left / deactivated
  /// Per (agent, bucket), agent-major: 0 = pending, 1 = contributed,
  /// 2 = dropped (agent died before publishing), 3 = deferred (straggler
  /// past the deadline). run_bucket() reduces over exactly the agents
  /// marked 1.
  std::vector<std::atomic<char>> contributed_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int64_t> ready_;  ///< buckets with all contributions, FIFO
  int64_t reduced_ = 0;        ///< collectives completed this round
  bool aborted_ = false;
  std::vector<HelpJob*> jobs_;  ///< posted jobs, guarded by mu_
  std::condition_variable job_left_;  ///< a helper left its job
  HelpExecutor help_{*this};
};

}  // namespace comdml::core
