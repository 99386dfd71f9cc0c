// Transport-generic collectives: every protocol is a stepped schedule.
//
// Each protocol the repo models — decentralized AllReduce (§IV-B, ring and
// recursive halving/doubling), gossip exchange (Hegedus et al. [11]), and
// the central parameter-server round (FedAvg/FedProx baselines) — is
// written exactly once, as a SteppedSchedule that one executor,
// AsyncCollective, runs over a comm::Transport. Run it over a SimTransport
// and you get the analytic cost (seconds / steps / bytes per agent); run
// it over an InProcTransport with real buffers and the
// payloads move too. Predicted and executed traffic are the same code
// path, so the parity checks are one test per protocol
// (tests/transport_test.cpp).
//
// Fleets and benches drive an AsyncCollective (one step per poll()) or the
// blocking `collective(Protocol).run()`. Every protocol survives an
// endpoint death mid-run the same way: armed when the transport has
// endpoint faults, it restores the survivors' inputs and reruns on a
// schedule re-formed over them, bit-identical to a from-scratch
// survivor-only run.
//
// AllReduce algorithms (paper §IV-B), both bandwidth-optimal:
//  - ring (Goyal et al. [34]):          2(K-1) steps, 2(K-1)/K * b bytes/agent
//  - recursive halving/doubling [35]:   2 log2 K steps, 2(K-1)/K * b bytes/agent
// The paper picks halving/doubling for large K because of its O(log K) step
// count.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/transport.hpp"

namespace comdml::comm {

class Recovery;
class ReliableChannel;

enum class Protocol {
  kRingAllReduce,
  kHalvingDoublingAllReduce,
  kGossip,
  kParamServer,
};

enum class AllReduceAlgo { kRing, kHalvingDoubling };

/// Registry protocol implementing an AllReduce algorithm.
[[nodiscard]] Protocol allreduce_protocol(AllReduceAlgo algo);

/// Runs the items of one phase of a schedule step: calls item(i) once for
/// every i in [0, items), possibly on several threads at once, returns
/// when all have finished, and then rethrows the first exception an item
/// raised (an item that threw may leave later ones unrun).
class StepExecutor {
 public:
  virtual ~StepExecutor() = default;
  virtual void run(int64_t items,
                   const std::function<void(int64_t)>& item) = 0;
};

/// One collective invocation over a transport.
struct CollectiveRequest {
  /// Per-agent payload size in fp32 wire elements.
  int64_t elems = 0;
  /// One fp64 buffer of `elems` per agent endpoint (the param-server's
  /// server endpoint has none); empty for timing-only runs (the schedule
  /// and accounting are identical either way).
  std::vector<double*> buffers;
  /// Aggregation weights parallel to `participants` (param-server;
  /// empty = uniform).
  std::vector<double> weights;
  /// Selected agents, ascending (empty = every agent endpoint). The
  /// param-server averages over them, gossip draws partners among the live
  /// ones only, and an AllReduce runs its survivor schedule over them.
  std::vector<int64_t> participants;
  /// Randomness for randomized protocols (gossip partner draw). The draw
  /// sequence is identical with and without buffers, so a timing-only run
  /// with an equally-seeded Rng predicts the executed schedule exactly.
  tensor::Rng* rng = nullptr;
  /// Endpoints this process hosts (empty = all). Only sends from owned
  /// endpoints post, only recvs into owned endpoints fold, and the final
  /// mean scales owned rows only; non-owned buffers are never touched.
  /// Every step still closes one transport step, so per-process step
  /// histories stay aligned for merge_transport_stats().
  std::vector<char> owned;
  /// Runs the phases of each schedule step (borrowed; nullptr =
  /// core::parallel_for over the global pool). See ScheduleStep.
  StepExecutor* executor = nullptr;
};

struct CollectiveReport {
  /// Accounting snapshot of the transport after the run.
  TransportStats transport;
  /// Chosen partner per agent (gossip only; empty otherwise).
  std::vector<std::optional<int64_t>> partners;
  /// Completed mid-collective recovery cycles (endpoint deaths survived).
  int64_t recoveries = 0;
};

/// Blocking driver of one protocol: an AsyncCollective run to completion,
/// with recovery armed when the transport has endpoint faults.
class Collective {
 public:
  explicit constexpr Collective(Protocol protocol) : protocol_(protocol) {}
  [[nodiscard]] std::string_view name() const;
  CollectiveReport run(Transport& transport,
                       const CollectiveRequest& request) const;

 private:
  Protocol protocol_;
};

// ---- stepped schedules / non-blocking collectives ---------------------------

/// Contiguous element range of a collective payload.
struct Span {
  int64_t begin = 0;
  int64_t end = 0;
  [[nodiscard]] int64_t size() const noexcept { return end - begin; }
};

/// One synchronous exchange step of a stepped collective: every send in the
/// step is posted, the transport step closes (modeled span = slowest
/// message), then each receive folds its payload into the destination
/// (accumulate, with its fold weight) or overwrites it (gather).
///
/// Step fan-out. A step runs in three phases: the sends, one work item per
/// source endpoint; end_step(); the receive-and-folds, one work item per
/// destination endpoint, running its receives in schedule order. The items
/// of a phase run on the request's StepExecutor, so a big bucket's step
/// uses the whole pool. Every schedule built here moves at most one
/// message per directed edge per step (survivor schedules included), so
/// every per-edge seq, every fold order and every TransportStats sum are
/// the same however the items interleave, and the results are bit
/// identical at every thread count. The one sum a send charges to another
/// endpoint is the destination's recv_seconds, so a step where some
/// destination receives more than once (the star's upload, gossip) posts
/// its sends serially. A step runs all its items serially, in schedule
/// order, when it goes through a ReliableChannel (retransmit windows and
/// backoff), when the transport has endpoint faults (the order of the
/// global drop stream and what is accounted before an EndpointDownError
/// must stay fixed), on timing-only runs, and when the step moves too few
/// elements to pay for a fan-out. The serial case is the same loop body on
/// a different executor.
struct ScheduleStep {
  struct Send {
    int64_t src = 0;
    int64_t dst = 0;
    Span span;
  };
  struct Recv {
    int64_t dst = 0;
    int64_t src = 0;
    Span span;
    bool accumulate = false;
    /// Accumulate dst += weight * payload, a multiply then an add (no FMA);
    /// 1 * x is x for every double, so weight 1 folds with the plain add.
    double weight = 1.0;
  };
  std::vector<Send> sends;
  std::vector<Recv> recvs;
  /// Work items as start offsets plus a trailing end: sends [send_items[i],
  /// send_items[i + 1]) are one source's, recvs [recv_items[i],
  /// recv_items[i + 1]) one destination's (runs of equal src / dst).
  std::vector<int64_t> send_items;
  std::vector<int64_t> recv_items;
};

/// The full message schedule of a protocol. AsyncCollective executes this
/// one object with buffers (the executed traffic) and without them (the
/// predicted cost), so the two cannot drift.
struct SteppedSchedule {
  /// What recovery re-forms the schedule around the survivors as.
  Protocol protocol = Protocol::kRingAllReduce;
  std::vector<ScheduleStep> steps;
  /// Scale every buffer by 1/|participants| after the last step
  /// (sum -> mean).
  bool scale_to_mean = false;
  /// Endpoints the schedule runs over, ascending; empty = every endpoint
  /// of the transport. Survivor schedules fill this so the final mean
  /// divides by the live-set size, not the transport width.
  std::vector<int64_t> participants;
  /// Param-server: each participant's aggregation weight.
  std::vector<double> weights;
  /// Endpoints whose receives fold into a zeroed scratch row the executing
  /// AsyncCollective owns instead of a request buffer, ascending: the
  /// star's server, which has no request buffer and sends from its row,
  /// and gossip's receivers, whose fold items end by mixing the row into
  /// their own buffer, buf = (buf + row) * (1 / (folds + 1)).
  std::vector<int64_t> scratch;
};

/// Schedule of an AllReduce protocol (kRingAllReduce or
/// kHalvingDoublingAllReduce) over `agents` endpoints moving `elems`
/// fp32-wire elements per agent. Throws for gossip and param_server.
[[nodiscard]] SteppedSchedule allreduce_schedule(Protocol protocol,
                                                 int64_t agents,
                                                 int64_t elems);

/// Same schedule, re-formed over an explicit subset of endpoints
/// (ascending, unique): the protocol runs over |participants| virtual
/// ranks remapped onto the given endpoint ids, and the final scaling
/// averages over the live set only. The message pattern and merge order
/// are exactly those of a from-scratch |participants|-agent run, so the
/// recovered mean is bit-identical to rerunning the collective over just
/// the survivors.
[[nodiscard]] SteppedSchedule allreduce_schedule_over(
    Protocol protocol, const std::vector<int64_t>& participants,
    int64_t elems);

/// Non-blocking stepped collective: construction starts the operation (no
/// traffic yet), each poll() executes exactly one schedule step over the
/// transport, wait() drives it to completion. This is what lets a bucket
/// collective run concurrently with compute: a driver thread polls
/// in-flight buckets while training produces the next one. One
/// AsyncCollective must only be polled from one thread at a time; distinct
/// AsyncCollectives over distinct transports are independent.
class AsyncCollective {
 public:
  /// `transport` and the request's buffers must outlive the operation.
  /// Builds `protocol`'s schedule over the request's participants (with
  /// their weights); gossip draws its partners from the request's rng here.
  AsyncCollective(Protocol protocol, Transport& transport,
                  CollectiveRequest request);
  /// Borrow a prebuilt schedule (must outlive the operation and match the
  /// transport's endpoints / the request's elems) — repeated collectives
  /// over the same geometry (the round pipeline's per-bucket allreduces)
  /// build their schedules once instead of once per round.
  AsyncCollective(const SteppedSchedule& schedule, Transport& transport,
                  CollectiveRequest request);
  ~AsyncCollective();

  // Non-copyable/movable: schedule_ may point at this object's own
  // owned_ schedule, which a copy or move would leave dangling.
  AsyncCollective(const AsyncCollective&) = delete;
  AsyncCollective& operator=(const AsyncCollective&) = delete;

  [[nodiscard]] bool done() const noexcept {
    return next_step_ >= schedule_->steps.size();
  }
  /// Executes the next schedule step (and the final mean scaling after the
  /// last one); returns done(). With recovery armed, an EndpointDownError
  /// from the transport re-forms the schedule around the survivors instead
  /// of propagating (see enable_recovery()), and a DeliveryTimeoutError
  /// (an unresponsive peer under message faults) declares that peer dead
  /// and recovers the same way. When the transport injects message faults,
  /// every step's traffic automatically routes through a ReliableChannel.
  bool poll();
  /// Polls until done.
  void wait();

  /// Arm mid-collective endpoint-failure recovery (throws for a request
  /// with an owned mask: processes must agree on survivors externally).
  /// Must be called before the first poll(): it snapshots every
  /// participant's input buffer, and on EndpointDown the operation (1)
  /// drops the dead endpoints from the participant set, (2) restores the
  /// survivors' buffers from the snapshot, (3) clears undelivered
  /// transport mail and the channel's unacked copies, and (4) restarts on
  /// the schedule re-formed over the survivors (an allreduce's final
  /// scaling averages over the live set, the star re-normalizes their
  /// weights, gossip redraws from its rewound rng). The result is
  /// bit-identical to a from-scratch survivor-only run; the pre-failure
  /// traffic stays in the transport stats (those bytes really crossed the
  /// wire). Repeated failures recover repeatedly; only the last survivor
  /// standing completes with its own contribution as the "mean". Throws if
  /// every participant is dead, and when the star's server dies.
  void enable_recovery();

  /// Completed recovery cycles (0 = the collective never saw a failure).
  [[nodiscard]] int64_t recoveries() const noexcept;

  /// The schedule running now (re-formed after a recovery).
  [[nodiscard]] const SteppedSchedule& schedule() const noexcept {
    return *schedule_;
  }
  [[nodiscard]] int64_t steps_executed() const noexcept {
    return static_cast<int64_t>(next_step_);
  }
  [[nodiscard]] int64_t total_steps() const noexcept {
    return static_cast<int64_t>(schedule_->steps.size());
  }

 private:
  /// `protocol`'s schedule over `participants` (gossip draws partners).
  [[nodiscard]] SteppedSchedule build(Protocol protocol,
                                      const std::vector<int64_t>& participants,
                                      std::vector<double> weights);
  /// Validate the request, bind the scratch rows, open the channel.
  void start();
  /// Zero schedule_->scratch's rows and point fold_rows_ at them.
  void bind_rows();
  /// Post, close and fold one step (see ScheduleStep).
  void execute_schedule_step(const ScheduleStep& step);

  Transport* transport_;
  CollectiveRequest request_;
  SteppedSchedule owned_;  ///< empty when the schedule is borrowed
  const SteppedSchedule* schedule_;
  /// Reliable delivery for stepped traffic; created when the transport
  /// injects message faults.
  std::unique_ptr<ReliableChannel> channel_;
  /// One row per scratch endpoint, and where each endpoint folds (its row,
  /// else its buffer); empty without scratch endpoints or buffers.
  std::vector<double> rows_;
  std::vector<double*> fold_rows_;
  /// Gossip: the partner-draw rng's state before the draw.
  std::string rng_state_;
  size_t next_step_ = 0;
  bool finalized_ = false;
  /// Armed by enable_recovery(); see Recovery in collective.cpp.
  std::unique_ptr<Recovery> recovery_;
};

/// Registry lookup by enum (always succeeds).
[[nodiscard]] const Collective& collective(Protocol protocol);

/// Analytic cost of one AllReduce over K agents moving a `model_bytes`
/// model with the slowest participating link at `bottleneck_mbps`
/// (a SimTransport run of the real message schedule over a uniform grid).
struct CollectiveCost {
  double seconds = 0.0;
  int64_t steps = 0;
  int64_t bytes_per_agent = 0;  ///< max bytes any one agent sends
};

[[nodiscard]] CollectiveCost allreduce_cost(
    int64_t agents, int64_t model_bytes, double bottleneck_mbps,
    AllReduceAlgo algo = AllReduceAlgo::kHalvingDoubling,
    double latency_sec = kDefaultLatencySec);

}  // namespace comdml::comm
