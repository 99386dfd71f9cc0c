// Message-level communication substrate (the seam under every collective).
//
// The paper's claim is byte-level accounting of *every* protocol family —
// pairwise offloading, decentralized AllReduce (§IV-B), gossip, and the
// parameter-server baselines. Historically each protocol carried its own
// analytic cost function next to an ad-hoc real implementation; this header
// replaces that N-times pattern with one transport:
//
//   Collective (ring / halving-doubling / gossip / param-server)
//        |  send(src, dst, elems [, payload]) / recv / end_step
//        v
//   Transport  — per-edge LinkModel, byte/step/latency accounting,
//                optional per-message Codec, fault injection
//        |                |
//   SimTransport     InProcTransport
//   (timing-only)    (moves real payloads, thread-safe)
//
// Both transports share one accounting core, so a protocol written once
// against this interface yields *identical* predicted (SimTransport) and
// executed (InProcTransport) traffic — the cost-vs-trace parity the tests
// used to re-derive per protocol now holds by construction and is checked
// once per protocol in tests/transport_test.cpp.
//
// Wire format: payload elements are fp32 on the wire (elems * 4 bytes
// through the default codec); in-process math keeps fp64 accumulators, the
// same precision split the original AllReduce executor used.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "comm/link.hpp"
#include "sim/topology.hpp"
#include "tensor/random.hpp"

namespace comdml::comm {

/// One directed edge of the transport graph.
struct LinkModel {
  double mbps = 0.0;  ///< sustainable rate; 0 = no link
  double latency_sec = kDefaultLatencySec;

  [[nodiscard]] bool usable() const noexcept { return mbps > 0.0; }
};

/// Dense per-edge link table over `endpoints()` communication endpoints
/// (agents, plus optionally a virtual server node).
class LinkGrid {
 public:
  /// All-to-all links at one rate (collectives routed through an overlay
  /// at the bottleneck rate — the seed cost models' assumption).
  [[nodiscard]] static LinkGrid uniform(
      int64_t endpoints, double mbps,
      double latency_sec = kDefaultLatencySec);

  /// Per-edge bandwidths of a peer-to-peer topology (absent edges and
  /// disconnected endpoints become unusable links).
  [[nodiscard]] static LinkGrid from_topology(
      const sim::Topology& topology,
      double latency_sec = kDefaultLatencySec);

  /// Star: endpoints 0..K-1 are agents, endpoint K (== `server_rank()`)
  /// is a central server reachable at `agent_mbps[i]` from agent i.
  [[nodiscard]] static LinkGrid star(const std::vector<double>& agent_mbps,
                                     double latency_sec = kDefaultLatencySec);

  [[nodiscard]] int64_t endpoints() const noexcept { return n_; }
  [[nodiscard]] int64_t server_rank() const noexcept { return n_ - 1; }

  [[nodiscard]] const LinkModel& link(int64_t src, int64_t dst) const;
  /// Mutable per-edge access (lossy/per-edge-bandwidth scenarios).
  [[nodiscard]] LinkModel& link(int64_t src, int64_t dst);

 private:
  LinkGrid(int64_t n, LinkModel fill);

  int64_t n_ = 0;
  std::vector<LinkModel> links_;  // n_ * n_, row-major [src][dst]
};

/// Per-message wire codec. `wire_bytes` must return the same value for a
/// timing-only message (`data == nullptr`) as its analytic estimate, so
/// simulated and executed traffic stay comparable; `transform` applies the
/// lossy round trip to delivered payloads.
class Codec {
 public:
  virtual ~Codec() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual int64_t wire_bytes(int64_t elems,
                                           const double* data) const = 0;
  virtual void transform(double* /*data*/, int64_t /*elems*/) const {}
  /// Encode a delivered payload: applies the lossy round trip in place and
  /// returns the wire bytes (wire_bytes + transform).
  [[nodiscard]] int64_t encode(double* data, int64_t elems) const {
    const int64_t wire = wire_bytes(elems, data);
    transform(data, elems);
    return wire;
  }
  /// encode() into a separate buffer: leaves `src` untouched, writes the
  /// encoded copy of its `elems` values to `dst`, and returns the wire
  /// bytes. The result is bit for bit that of copying and then calling
  /// encode(), which is what the default does; QuantizingCodec reads `src`
  /// directly and saves the copy pass. Transport::send encodes every
  /// payload-moving message through this.
  [[nodiscard]] virtual int64_t encode_copy(const double* src, double* dst,
                                            int64_t elems) const;
  /// Error feedback on one payload: fold the carried `residual` into
  /// `data`, apply the lossy round trip, and keep the fresh error in
  /// `residual` — data' = Q(data + residual), residual' = (data +
  /// residual) - data'. The result is bit for bit that of the loop
  /// `data += residual; residual = data; transform(data); residual -=
  /// data`, which is what the default runs; QuantizingCodec fuses it into
  /// two passes.
  virtual void error_feedback(double* data, double* residual,
                              int64_t elems) const;
};

/// fp32 on the wire, lossless in fp64 accumulators: elems * 4 bytes.
[[nodiscard]] const Codec& identity_codec();

/// Dense signed int8 wire codec for model-state/gradient payloads (the
/// bucket-collective codec): one symmetric quantization scale
/// (scale = max|v| / 127) plus one int8 per element. The wire size is a
/// pure function of the element count — `quantized_wire_bytes(elems)` —
/// derived from the wire format itself rather than an assumed ratio, so a
/// timing-only SimTransport charges *exactly* the bytes an InProcTransport
/// executes. Signed values survive (unlike the sparse activation codec in
/// comm/compress.hpp, which drops negatives); the round trip is lossy at
/// int8 resolution of the payload's dynamic range, which the round
/// pipeline's per-bucket error feedback re-injects next round. On CPUs with
/// AVX2 (and COMDML_SIMD on) the round trip runs vectorized; it matches the
/// scalar loop bit for bit, so results never depend on the host CPU.
class QuantizingCodec final : public Codec {
 public:
  /// Wire bytes of `elems` quantized values: a 4-byte scale header plus
  /// one byte per element (0 elements ship an empty message).
  [[nodiscard]] static int64_t quantized_wire_bytes(int64_t elems);

  [[nodiscard]] std::string_view name() const override { return "int8"; }
  [[nodiscard]] int64_t wire_bytes(int64_t elems,
                                   const double* data) const override;
  void transform(double* data, int64_t elems) const override;
  /// Abs-max from `src`, then one round trip from `src` into `dst`.
  /// Payloads shipped unquantized (all-zero, Inf/NaN range, sub-FLT_MIN
  /// range) become plain copies.
  [[nodiscard]] int64_t encode_copy(const double* src, double* dst,
                                    int64_t elems) const override;
  /// Pass 1 folds the residual in and takes the abs-max; pass 2 quantizes
  /// and writes the new residual.
  void error_feedback(double* data, double* residual,
                      int64_t elems) const override;
};

/// Shared immutable QuantizingCodec instance (codecs are borrowed by
/// transports and must outlive them; fleets wire this one in).
[[nodiscard]] const Codec& quantized_codec();

/// Message-loss injection: each message is dropped independently with
/// `drop_prob` from a deterministic per-transport stream. Dropped messages
/// still occupy the sender's link (the bytes were transmitted) but are
/// never delivered. Lossy transports suit best-effort protocols (gossip,
/// param-server retries); the stepped AllReduce schedules assume lossless
/// delivery and throw on the missing matched receive — wrap the traffic in
/// a comm::ReliableChannel to survive loss with retransmission instead.
///
/// `message_faults` adds the remaining unreliable-network shapes on a
/// per-edge basis: delivery delay (a message matures only after extra
/// steps close), duplication (a second identical copy arrives), payload
/// corruption (detected by the message checksum), reordering (a message
/// jumps the mailbox queue), and per-edge drop. Every decision is a pure
/// hash of (seed, step, src, dst, seq, fault kind) — no shared RNG stream
/// — so a SimTransport and an InProcTransport driving the same schedule
/// misbehave on exactly the same messages regardless of thread
/// interleaving. A fault entry applies while the shared step counter is
/// inside [first_step, last_step] (last_step == -1 means forever), which
/// lets tests pin a fault to one exact message deterministically.
///
/// `endpoint_failures` adds agent-level deaths on top of message faults:
/// an endpoint is dead once the transport has closed `after_steps` steps
/// (after_steps == 0 means dead from the start). Deadness is a pure
/// function of the shared step counter, so a SimTransport and an
/// InProcTransport driving the same schedule fail at the same point and
/// keep predicted-vs-executed parity for the surviving traffic. Traffic
/// touching a dead endpoint raises EndpointDownError instead of hanging.
struct FaultPlan {
  struct EndpointFailure {
    int64_t endpoint = -1;
    int64_t after_steps = 0;  ///< dead once stats().steps >= after_steps
  };

  /// One per-edge message-fault rule. The first entry matching a message's
  /// (src, dst) edge governs it; -1 matches any endpoint.
  struct MessageFault {
    int64_t src = -1;              ///< sender filter (-1 = any)
    int64_t dst = -1;              ///< receiver filter (-1 = any)
    int64_t first_step = 0;        ///< active from this step count on
    int64_t last_step = -1;        ///< inclusive; -1 = active forever
    double drop_prob = 0.0;        ///< per-edge loss (on top of global)
    double delay_prob = 0.0;       ///< message matures 1..delay_steps_max late
    int64_t delay_steps_max = 1;
    double duplicate_prob = 0.0;   ///< a second identical copy is delivered
    double corrupt_prob = 0.0;     ///< payload bits flip; checksum catches it
    double reorder_prob = 0.0;     ///< message jumps to the mailbox front
  };

  double drop_prob = 0.0;
  uint64_t seed = 0;
  std::vector<EndpointFailure> endpoint_failures;
  std::vector<MessageFault> message_faults;
};

/// Typed condition for traffic touching a dead endpoint: a send to or a
/// matched receive from a failed agent surfaces as this exception (never a
/// hang), carrying which endpoint was down so collectives can re-form
/// around the survivors.
class EndpointDownError : public std::runtime_error {
 public:
  EndpointDownError(int64_t endpoint, const std::string& what)
      : std::runtime_error(what), endpoint_(endpoint) {}

  [[nodiscard]] int64_t endpoint() const noexcept { return endpoint_; }

 private:
  int64_t endpoint_;
};

/// One in-flight (or delivered) message.
struct Message {
  int64_t src = -1;
  int64_t dst = -1;
  int64_t elems = 0;       ///< fp32 values on the wire
  int64_t wire_bytes = 0;  ///< after the codec
  /// Per-edge sequence number (0, 1, ... for each directed src -> dst
  /// edge). Retransmits reuse the original's seq, which is how a
  /// ReliableChannel dedupes duplicated and re-sent copies.
  int64_t seq = 0;
  /// Word-wise FNV-1a over the delivered payload's 64-bit words (four
  /// independent lanes folded at the end; any single-word change alters
  /// it), computed by send() on the encoded copy before the transport lock
  /// is taken; 0 for timing-only messages. A corrupted payload no longer
  /// matches. Not the byte-wise tensor::fnv1a, which covers checkpoints.
  uint64_t checksum = 0;
  /// Set by corruption faults. Timing-only transports carry no payload to
  /// flip, so the flag is what keeps Sim/InProc corruption parity.
  bool corrupted = false;
  bool retransmit = false;  ///< re-sent by a ReliableChannel
  /// Message is invisible to recv/try_recv until the shared step counter
  /// reaches this value (-1 = deliverable immediately). Delay faults set it.
  int64_t deliver_after_step = -1;
  std::vector<double> payload;  ///< empty on timing-only transports

  [[nodiscard]] bool has_payload() const noexcept { return !payload.empty(); }
  /// Payload survived the wire: checksum matches (payload-moving) and no
  /// corruption fault hit it (timing-only parity flag).
  [[nodiscard]] bool intact() const;
};

/// Byte/step/latency accounting shared by every transport.
struct TransportStats {
  int64_t steps = 0;     ///< synchronous steps closed by end_step()
  int64_t messages = 0;
  int64_t dropped_messages = 0;
  int64_t total_wire_bytes = 0;
  /// Modeled wall clock: sum over steps of the slowest transfer in the
  /// step (messages within a step run concurrently).
  double seconds = 0.0;
  std::vector<int64_t> bytes_sent;      ///< per endpoint
  std::vector<int64_t> bytes_received;  ///< per endpoint (delivered only)
  std::vector<double> send_seconds;     ///< per endpoint, own sends
  std::vector<double> recv_seconds;     ///< per endpoint, delivered inbound
  /// Per-edge drop counts, row-major [src][dst] over endpoints; sums to
  /// dropped_messages. Fault-injection tests assert *where* losses landed.
  std::vector<int64_t> dropped_per_edge;
  // -- unreliable-delivery accounting. Retransmit and duplicate bytes are
  // tracked apart from the schedule's own traffic so goodput (the bytes a
  // fault-free run would move) stays comparable across fault plans and
  // across the Sim/InProc pair.
  int64_t retransmit_messages = 0;
  int64_t retransmit_wire_bytes = 0;
  int64_t duplicated_messages = 0;
  int64_t duplicated_wire_bytes = 0;
  int64_t corrupt_messages = 0;
  int64_t delayed_messages = 0;
  int64_t reordered_messages = 0;
  /// Modeled seconds spent in retry backoff (charged into `seconds` too).
  double backoff_seconds = 0.0;
  /// Per-closed-step history: the modeled span and message count of every
  /// end_step() call, *including* empty steps (which record 0/0 without
  /// touching `steps`/`seconds`). Multi-process runs drive the same
  /// schedule in lockstep, so index i of every process's history is the
  /// same global step — merge_transport_stats() folds them positionally.
  std::vector<double> step_spans;
  std::vector<int64_t> step_message_counts;

  [[nodiscard]] int64_t max_bytes_sent() const;
  [[nodiscard]] double mean_bytes_sent() const;
  /// Dropped messages on the directed edge src -> dst.
  [[nodiscard]] int64_t dropped_on(int64_t src, int64_t dst) const;
  /// Schedule-intent bytes: total wire traffic minus retransmits and
  /// duplicates. Under any fault plan this equals the fault-free run's
  /// total_wire_bytes, and Sim == InProc by construction.
  [[nodiscard]] int64_t goodput_bytes() const {
    return total_wire_bytes - retransmit_wire_bytes - duplicated_wire_bytes;
  }
};

/// Fold the per-process stats of one multi-process run into the stats the
/// equivalent single-transport run would have produced. Counters and
/// per-endpoint vectors sum (each process only accounts traffic touching
/// its own endpoints); the step history merges positionally — per global
/// step, the span is the max over processes (messages within a step run
/// concurrently) and the message count is the sum — and `steps`/`seconds`
/// are rebuilt from the merged history plus the summed backoff. Exact for
/// fault-free lockstep schedules: max over doubles is order-independent.
[[nodiscard]] TransportStats merge_transport_stats(
    const std::vector<TransportStats>& parts);

/// Message-level transport. Thread-safe: send/recv/try_recv/end_step may be
/// called concurrently. Stepped collectives post a step's sends from
/// several threads at once and fold its receives the same way (see
/// comm/collective.hpp for why the accounting stays interleaving-free).
///
/// Payload buffers are recycled: send() draws the buffer for its encoded
/// copy from a bounded per-transport free list (2 x endpoints entries), and
/// a receiver that is done with a delivered Message hands its payload back
/// through recycle(). Steady-state rounds over one transport then stop
/// allocating a vector per message.
class Transport {
 public:
  /// `codec` is borrowed (nullptr = identity) and must outlive the
  /// transport.
  explicit Transport(LinkGrid grid, const Codec* codec = nullptr,
                     FaultPlan faults = {});
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] int64_t endpoints() const noexcept {
    return grid_.endpoints();
  }
  [[nodiscard]] const LinkGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] bool linked(int64_t src, int64_t dst) const {
    return grid_.link(src, dst).usable();
  }
  /// Endpoints with a usable outbound link from `i`, ascending.
  [[nodiscard]] std::vector<int64_t> neighbors(int64_t i) const;

  /// Retransmission metadata for send(): a ReliableChannel re-sends a lost
  /// message under its original sequence number with the retransmit flag,
  /// so receivers can dedupe and accounting can separate retry traffic.
  struct SendOptions {
    bool retransmit = false;
    int64_t seq = -1;  ///< -1 = assign the edge's next sequence number
  };

  /// Post `elems` fp32-wire values from src to dst. `data` (fp64, length
  /// `elems`) may be null for timing-only traffic; payload-moving
  /// transports copy it through the codec. Zero-element messages are legal
  /// and still pay the link latency. Throws on an unusable link. Returns
  /// the message's per-edge sequence number.
  int64_t send(int64_t src, int64_t dst, int64_t elems,
               const double* data = nullptr);
  int64_t send(int64_t src, int64_t dst, int64_t elems, const double* data,
               const SendOptions& opts);

  /// Matched receive: the oldest deliverable in-flight message src -> dst
  /// (delay faults hide a message until it matures). Throws if none is
  /// pending (a protocol schedule bug, or a dropped/delayed message under
  /// fault injection). Virtual so a wire-backed transport can block until
  /// the frame actually arrives instead of treating "not here yet" as a
  /// schedule bug.
  [[nodiscard]] virtual Message recv(int64_t dst, int64_t src);

  /// Non-throwing matched receive: nullopt instead of the schedule-bug
  /// failure when nothing deliverable from src is pending. Still raises
  /// EndpointDownError for a dead receiver, or a dead sender with nothing
  /// in flight (the message will never arrive — recover, don't retry).
  /// Reliable delivery polls through this. Virtual so a wire-backed
  /// transport can grant in-flight frames a real-time grace window before
  /// reporting a loss.
  [[nodiscard]] virtual std::optional<Message> try_recv_from(int64_t dst,
                                                             int64_t src);

  /// Ask the process owning `src` to retransmit its oldest unacked message
  /// on the src -> dst edge (everything past `last_delivered_seq`). An
  /// in-process transport has no remote senders, so the base returns false
  /// and the caller (ReliableChannel) retransmits from its own window; a
  /// wire-backed transport ships a NACK control frame to the owning
  /// process and returns true.
  [[nodiscard]] virtual bool nack(int64_t src, int64_t dst,
                                  int64_t last_delivered_seq);

  /// Any-source receive in arrival order; nullopt when dst's mailbox holds
  /// nothing deliverable. Used by protocols with data-dependent fan-in
  /// (gossip).
  [[nodiscard]] std::optional<Message> try_recv(int64_t dst);

  /// Hand a delivered payload's storage back for a later send() to reuse.
  /// Kept while the free list holds fewer than payload_pool_bound()
  /// buffers, freed otherwise. Thread-safe; the contents are ignored.
  void recycle(std::vector<double>&& buffer);
  /// Buffers on the free list right now (never above payload_pool_bound()).
  [[nodiscard]] size_t pooled_payloads() const;
  [[nodiscard]] size_t payload_pool_bound() const noexcept {
    return 2 * static_cast<size_t>(endpoints());
  }

  /// Charge modeled retry-backoff wait time into the transport clock (both
  /// `seconds` and the `backoff_seconds` breakdown).
  void charge_backoff(double seconds);

  /// Close a synchronous step: everything posted since the last end_step
  /// ran concurrently, so the modeled clock advances by the span of the
  /// slowest message. A step with no traffic is not counted.
  void end_step();

  /// Accounting view. Not synchronized against concurrent sends; read it
  /// from the coordinating thread between phases only. Cross-thread
  /// readers (the daemon's stats RPC answers while socket reader threads
  /// are still injecting inbound traffic) must use stats_snapshot().
  [[nodiscard]] const TransportStats& stats() const noexcept {
    return stats_;
  }
  /// Locked copy of the accounting — safe to call from any thread while
  /// sends, receives, and remote injections are in flight. Every stats_
  /// mutation happens under mutex_, so the copy is a consistent point-in-
  /// time snapshot (this is the contract the fleetd stats RPC relies on).
  [[nodiscard]] TransportStats stats_snapshot() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_;
  }
  /// Locked read of one per-edge drop counter — what an adaptive
  /// RetryPolicy sizes its budget from, without copying the whole
  /// snapshot on every retry attempt.
  [[nodiscard]] int64_t dropped_on_edge(int64_t src, int64_t dst) const {
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_.dropped_on(src, dst);
  }
  /// Clears stats and undelivered mail; fault schedules and manual
  /// endpoint deaths survive (reset() is "new round", not "new fleet" —
  /// note a step-scheduled failure re-arms because the step counter
  /// restarts).
  void reset();

  // ---- endpoint liveness ----------------------------------------------------

  /// Kill `endpoint` immediately (manual churn, as opposed to the
  /// FaultPlan's step-scheduled deaths). Idempotent.
  void fail_endpoint(int64_t endpoint);
  /// Bring `endpoint` back: clears both a manual death and any scheduled
  /// failure entries for it. Idempotent.
  void revive_endpoint(int64_t endpoint);
  /// Schedule `endpoint` to die once `after_steps` steps have closed
  /// (0 = dead now). Deterministic: both transport flavors observing the
  /// same schedule fail at the same step.
  void schedule_endpoint_failure(int64_t endpoint, int64_t after_steps);
  /// Revive every endpoint (drops all manual and scheduled failures).
  void clear_endpoint_failures();

  [[nodiscard]] bool endpoint_alive(int64_t endpoint) const;
  /// Currently-alive endpoints, ascending.
  [[nodiscard]] std::vector<int64_t> live_endpoints() const;
  /// True when any endpoint failure is configured (manual or scheduled) —
  /// callers use this to decide whether a collective should arm recovery.
  [[nodiscard]] bool has_endpoint_faults() const;
  /// True when messages can be lost, delayed, duplicated, or corrupted —
  /// callers use this to decide whether to route traffic through a
  /// ReliableChannel.
  [[nodiscard]] bool has_message_faults() const;
  /// Drop every undelivered message (mid-collective recovery restarts the
  /// survivor schedule from clean mailboxes). Stats are untouched: the
  /// wasted traffic really crossed the wire.
  void clear_pending();

 protected:
  /// Payload-moving transports return true; timing-only ones false.
  [[nodiscard]] virtual bool delivers_payload() const noexcept = 0;

  // ---- multi-process seam ---------------------------------------------------
  //
  // send() splits accounting at the process boundary: the sender charges
  // messages/bytes_sent/send_seconds (and the drop, if any), while
  // bytes_received/recv_seconds are charged by the process owning the
  // destination when the frame arrives. In-process transports own every
  // endpoint, so the split is invisible and the legacy accounting order is
  // unchanged.

  /// One message bound for an endpoint owned by another process, plus the
  /// sidecar state a wire backend needs to deliver and re-deliver it.
  struct RemoteFrame {
    Message msg;
    double span = 0.0;   ///< modeled transfer seconds (receiver charges it)
    bool reorder = false;   ///< receiver pushes to the mailbox front
    bool dup_copy = false;  ///< duplicate: bytes count, the clock does not
    /// Sender-side drop: the frame never crosses the wire; the backend may
    /// still park a copy so a later NACK can trigger a retransmission.
    bool dropped = false;
    /// Pre-codec payload for NACK retransmits (retransmitting the encoded
    /// payload through send() would re-encode it). Populated only when the
    /// transport has message faults configured.
    std::vector<double> original;
  };

  /// Does this process own `endpoint` (deliver locally) or must a send be
  /// forwarded to another process? Base transports own everything.
  [[nodiscard]] virtual bool local_endpoint(int64_t /*endpoint*/) const {
    return true;
  }
  /// Ship a frame to the process owning msg.dst. Called by send() outside
  /// the transport lock (wire writes must not serialize local accounting).
  /// Base transports never produce remote frames, so the default throws.
  virtual void forward_remote(RemoteFrame&& frame);
  /// Receiver-side delivery of a forwarded frame: charges
  /// bytes_received/recv_seconds (the halves send() skipped for a remote
  /// destination) and deposits into the destination mailbox. Thread-safe —
  /// wire reader threads call this concurrently with local traffic.
  void inject_remote(RemoteFrame&& frame);

 private:
  /// Endpoint dead right now? Caller holds mutex_ (deadness depends on the
  /// shared step counter, which is what keeps Sim/InProc failure points
  /// identical).
  [[nodiscard]] bool dead_locked(int64_t endpoint) const;
  /// First message-fault rule matching the edge at the current step, or
  /// nullptr. Caller holds mutex_.
  [[nodiscard]] const FaultPlan::MessageFault* message_fault_locked(
      int64_t src, int64_t dst) const;
  /// Deterministic fault decision: pure hash of (seed, step, edge, seq,
  /// salt) mapped to [0, 1) and compared against `prob`. Caller holds
  /// mutex_ (reads the shared step counter).
  [[nodiscard]] bool fault_fires_locked(double prob, int64_t src, int64_t dst,
                                        int64_t seq, uint64_t salt) const;
  /// Deliverable at the current step count? Caller holds mutex_.
  [[nodiscard]] bool mature_locked(const Message& m) const {
    return m.deliver_after_step < 0 || stats_.steps >= m.deliver_after_step;
  }
  /// A free-list buffer resized to `elems` (a fresh one when the list is
  /// empty). Prefers a buffer already holding at least `elems` values, so
  /// the resize neither reallocates nor zero-fills.
  [[nodiscard]] std::vector<double> draw_payload(int64_t elems);

  LinkGrid grid_;
  const Codec* codec_;  // never null after construction
  FaultPlan faults_;
  tensor::Rng fault_rng_;
  TransportStats stats_;
  double step_span_ = 0.0;
  int64_t step_messages_ = 0;
  std::vector<char> manual_dead_;  // per endpoint, fail_endpoint() deaths
  std::vector<int64_t> next_seq_;  // per directed edge [src][dst]
  std::vector<std::deque<Message>> mailboxes_;  // per dst, arrival order
  mutable std::mutex mutex_;
  /// Recycled payload buffers; own lock so draws and returns never wait on
  /// the accounting lock.
  std::vector<std::vector<double>> free_payloads_;
  mutable std::mutex free_mutex_;
};

/// Analytic clock only: accounts every byte/step/second of the schedule,
/// never moves data. comm::allreduce_cost and the paper-scale simulators'
/// parameter-server and gossip rounds run on it.
class SimTransport final : public Transport {
 public:
  using Transport::Transport;

 protected:
  [[nodiscard]] bool delivers_payload() const noexcept override {
    return false;
  }
};

/// Moves real payloads between in-process agents through per-destination
/// mailboxes while keeping the exact same accounting as SimTransport.
class InProcTransport final : public Transport {
 public:
  using Transport::Transport;

 protected:
  [[nodiscard]] bool delivers_payload() const noexcept override {
    return true;
  }
};

}  // namespace comdml::comm
