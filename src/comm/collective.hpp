// Transport-generic collectives (one implementation per protocol family).
//
// Each protocol the repo models — decentralized AllReduce (§IV-B, ring and
// recursive halving/doubling), gossip exchange (Hegedus et al. [11]), and
// the central parameter-server round (FedAvg/FedProx baselines) — is
// written exactly once against comm::Transport. Run it over a SimTransport
// and you get the analytic cost (seconds / steps / bytes per agent); run
// the identical schedule over an InProcTransport with real buffers and the
// payloads move too. Predicted and executed traffic are the same code
// path, so the old per-protocol cost-vs-trace checks collapse into one
// parity test per protocol (tests/transport_test.cpp).
//
// Fleets, benches and backends select a protocol through the registry,
// `collective(Protocol)`, instead of hard-coding free functions. Every
// protocol survives an endpoint death mid-run the same way: armed when the
// transport has endpoint faults, it restores the survivors' inputs and
// reruns over them, bit-identical to a from-scratch survivor-only run.
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
  /// One fp64 buffer of `elems` per agent endpoint; empty for timing-only
  /// runs (the schedule and accounting are identical either way).
  std::vector<double*> buffers;
  /// Aggregation weights parallel to `participants` (param-server;
  /// empty = uniform).
  std::vector<double> weights;
  /// Selected agents, ascending (param-server and gossip; empty = every
  /// agent endpoint). Gossip draws partners among the live selected
  /// agents only.
  std::vector<int64_t> participants;
  /// Randomness for randomized protocols (gossip partner draw). The draw
  /// sequence is identical with and without buffers, so a timing-only run
  /// with an equally-seeded Rng predicts the executed schedule exactly.
  tensor::Rng* rng = nullptr;
  /// Endpoints this process hosts (stepped protocols; empty = all). Only
  /// sends from owned endpoints post, only recvs into owned endpoints fold,
  /// and the final mean scales owned rows only; non-owned buffers are never
  /// touched. Every step still closes one transport step, so per-process
  /// step histories stay aligned for merge_transport_stats().
  std::vector<char> owned;
  /// Runs the phases of each stepped-schedule step (borrowed; nullptr =
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

class Collective {
 public:
  virtual ~Collective() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual CollectiveReport run(Transport& transport,
                               const CollectiveRequest& request) const = 0;
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
/// buffer (accumulate) or overwrites it (gather).
///
/// Step fan-out. A step runs in three phases: the sends, one work item per
/// source endpoint; end_step(); the receive-and-folds, one work item per
/// destination endpoint. The items of a phase run on the request's
/// StepExecutor, so a big bucket's step uses the whole pool. Every schedule
/// built here sends at most one message from each source and into each
/// destination per step (survivor schedules included), so an endpoint's
/// per-edge seq, its mailbox order, its fold order and every TransportStats
/// sum are the same however the items interleave, and the results are bit
/// identical at every thread count. A step runs its items serially, in
/// schedule order, when it goes through a ReliableChannel (retransmit
/// windows and backoff), when the transport has endpoint faults (the order
/// of the global drop stream and what is accounted before an
/// EndpointDownError must stay fixed), on timing-only runs, and when the
/// step moves too few elements to pay for a fan-out. The serial case is
/// the same loop body on a different executor.
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
  };
  std::vector<Send> sends;
  std::vector<Recv> recvs;
};

/// The full message schedule of a deterministic stepped protocol. Both the
/// blocking Collective::run and the non-blocking AsyncCollective execute
/// this same object, so predicted and executed traffic cannot drift no
/// matter which driver runs it.
struct SteppedSchedule {
  std::vector<ScheduleStep> steps;
  /// Scale every buffer by 1/|participants| after the last step
  /// (sum -> mean).
  bool scale_to_mean = false;
  /// Endpoints the schedule runs over, ascending; empty = every endpoint
  /// of the transport. Survivor schedules built by
  /// allreduce_schedule_over() fill this so the final mean divides by the
  /// live-set size, not the transport width.
  std::vector<int64_t> participants;
};

/// Schedule of an AllReduce protocol (kRingAllReduce or
/// kHalvingDoublingAllReduce) over `agents` endpoints moving `elems`
/// fp32-wire elements per agent. Throws for protocols without a stepped
/// schedule (gossip's fan-in is data-dependent; param_server needs the
/// star's server endpoint).
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
  /// Throws for kGossip and kParamServer, which have no stepped schedule
  /// (data-dependent fan-in / star geometry): run them through
  /// collective(protocol).run().
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
  /// a schedule re-formed over the survivors via
  /// allreduce_schedule_over(protocol, ...) — whose final scaling averages
  /// over the live set. The result is bit-identical to a from-scratch
  /// survivor-only run; the pre-failure traffic stays in the transport
  /// stats (those bytes really crossed the wire). Repeated failures
  /// recover repeatedly; only the last survivor standing completes with
  /// its own contribution as the "mean". Throws only if every participant
  /// is dead. Gossip and param-server runs recover through the same steps
  /// whenever the transport has endpoint faults.
  void enable_recovery(Protocol protocol);

  /// Completed recovery cycles (0 = the collective never saw a failure).
  [[nodiscard]] int64_t recoveries() const noexcept;

  [[nodiscard]] int64_t steps_executed() const noexcept {
    return static_cast<int64_t>(next_step_);
  }
  [[nodiscard]] int64_t total_steps() const noexcept {
    return static_cast<int64_t>(schedule_->steps.size());
  }

 private:
  Transport* transport_;
  CollectiveRequest request_;
  SteppedSchedule owned_;  ///< empty when the schedule is borrowed
  const SteppedSchedule* schedule_;
  /// Reliable delivery for stepped traffic; created when the transport
  /// injects message faults.
  std::unique_ptr<ReliableChannel> channel_;
  size_t next_step_ = 0;
  bool finalized_ = false;
  Protocol recovery_protocol_ = Protocol::kRingAllReduce;
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
