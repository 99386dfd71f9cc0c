#include "comm/collective.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>

#include "comm/reliable.hpp"
#include "core/parallel.hpp"
#include "tensor/simd.hpp"

namespace comdml::comm {

namespace {

using Segment = Span;

/// Split [0, n) into `parts` nearly equal chunks.
std::vector<Segment> chunk(int64_t n, int64_t parts) {
  std::vector<Segment> segs(static_cast<size_t>(parts));
  const int64_t base = n / parts, extra = n % parts;
  int64_t cur = 0;
  for (int64_t i = 0; i < parts; ++i) {
    const int64_t len = base + (i < extra ? 1 : 0);
    segs[static_cast<size_t>(i)] = {cur, cur + len};
    cur += len;
  }
  return segs;
}

int64_t floor_log2(int64_t v) {
  int64_t l = 0;
  while ((int64_t{1} << (l + 1)) <= v) ++l;
  return l;
}

/// Buffer of agent `a`, or nullptr on a timing-only run.
double* buffer_of(const CollectiveRequest& req, int64_t a) {
  if (req.buffers.empty()) return nullptr;
  return req.buffers[static_cast<size_t>(a)];
}

/// Does this process host endpoint `e` (see CollectiveRequest::owned)?
bool owns(const CollectiveRequest& req, int64_t e) {
  return req.owned.empty() || req.owned[static_cast<size_t>(e)] != 0;
}

// The fold and the mean's scale, scalar (the reference) and AVX2: one add
// or one multiply per element either way, so the results are bit-identical.

void add_into_scalar(double* dst, const double* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void scale_scalar(double* data, int64_t n, double s) {
  for (int64_t i = 0; i < n; ++i) data[i] *= s;
}

#if COMDML_SIMD_X86
__attribute__((target("avx2"))) void add_into_avx2(double* dst,
                                                   const double* src,
                                                   int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  add_into_scalar(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void scale_avx2(double* data, int64_t n,
                                                double s) {
  const __m256d vs = _mm256_set1_pd(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(data + i, _mm256_mul_pd(_mm256_loadu_pd(data + i), vs));
  scale_scalar(data + i, n - i, s);
}
#endif  // COMDML_SIMD_X86

void add_into(double* dst, const double* src, int64_t n) {
#if COMDML_SIMD_X86
  if (simd::kAvx2) return add_into_avx2(dst, src, n);
#endif
  add_into_scalar(dst, src, n);
}

/// The star's weighted fold (scalar: the star is not on a hot path).
void add_scaled_into(double* dst, const double* src, int64_t n, double w) {
  for (int64_t i = 0; i < n; ++i) dst[i] += w * src[i];
}

void scale(double* data, int64_t n, double s) {
#if COMDML_SIMD_X86
  if (simd::kAvx2) return scale_avx2(data, n, s);
#endif
  scale_scalar(data, n, s);
}

/// Fold a delivered payload into `dst + r.span.begin` (weighted add or
/// overwrite); false when there was nothing to fold.
bool merge_segment(const Message& msg, double* dst,
                   const ScheduleStep::Recv& r) {
  if (dst == nullptr || !msg.has_payload()) return false;
  COMDML_REQUIRE(static_cast<int64_t>(msg.payload.size()) == r.span.size(),
                 "message " << msg.src << " -> " << msg.dst << " carries "
                            << msg.payload.size() << " values for a "
                            << r.span.size() << "-element segment");
  double* at = dst + r.span.begin;
  if (!r.accumulate)
    std::memcpy(at, msg.payload.data(),
                static_cast<size_t>(r.span.size()) * sizeof(double));
  else if (r.weight == 1.0)
    add_into(at, msg.payload.data(), r.span.size());
  else
    add_scaled_into(at, msg.payload.data(), r.span.size(), r.weight);
  return true;
}

/// Work items of a built step: runs of equal src (sends) and dst (recvs).
void close_items(ScheduleStep& step) {
  step.send_items.clear();
  step.recv_items.clear();
  for (size_t i = 0; i < step.sends.size(); ++i)
    if (i == 0 || step.sends[i].src != step.sends[i - 1].src)
      step.send_items.push_back(static_cast<int64_t>(i));
  step.send_items.push_back(static_cast<int64_t>(step.sends.size()));
  for (size_t i = 0; i < step.recvs.size(); ++i)
    if (i == 0 || step.recvs[i].dst != step.recvs[i - 1].dst)
      step.recv_items.push_back(static_cast<int64_t>(i));
  step.recv_items.push_back(static_cast<int64_t>(step.recvs.size()));
}

// ---- schedule builders ------------------------------------------------------
//
// Ring and halving/doubling are *deterministic* message patterns: every
// send/recv is known from (k, elems) alone, so a schedule built once serves
// every round over the same geometry.

/// Ring: reduce-scatter then all-gather. At step s agent a ships chunk
/// (a - s) (reduce) or (a + 1 - s) (gather) one hop clockwise. The two
/// phases differ only in the chunk rotation and whether the receiver
/// accumulates or overwrites.
SteppedSchedule ring_schedule(int64_t k, int64_t elems) {
  SteppedSchedule sched;
  if (k == 1) return sched;
  sched.scale_to_mean = true;
  const auto segs = chunk(elems, k);
  for (const bool gather : {false, true}) {
    const int64_t rot = gather ? 1 : 0;
    for (int64_t s = 0; s < k - 1; ++s) {
      ScheduleStep step;
      for (int64_t a = 0; a < k; ++a) {
        const Segment& seg = segs[static_cast<size_t>((a + rot + k - s) % k)];
        step.sends.push_back({a, (a + 1) % k, seg});
      }
      for (int64_t a = 0; a < k; ++a) {
        const int64_t prev = (a + k - 1) % k;
        const Segment& seg =
            segs[static_cast<size_t>((prev + rot + k - s) % k)];
        step.recvs.push_back({a, prev, seg, /*accumulate=*/!gather});
      }
      sched.steps.push_back(std::move(step));
    }
  }
  return sched;
}

/// Recursive halving/doubling with the non-power-of-two pre/post phases:
/// extras fold into a partner first, the 2^l core reduce-scatters by
/// recursive halving and all-gathers by recursive doubling, then partners
/// push the final vector back to the extras. Note the element-wise sum is
/// a balanced binary tree over agent-index blocks regardless of where the
/// segment boundaries fall — which is why a bucketed halving/doubling
/// allreduce is bit-identical to one flat collective (nn/bucket.hpp relies
/// on this).
SteppedSchedule halving_doubling_schedule(int64_t k, int64_t elems) {
  SteppedSchedule sched;
  if (k == 1) return sched;
  sched.scale_to_mean = true;
  const int64_t n = elems;
  const int64_t l = floor_log2(k);
  const int64_t p2 = int64_t{1} << l;
  const int64_t rem = k - p2;

  if (rem > 0) {
    ScheduleStep pre;
    for (int64_t e = p2; e < k; ++e)
      pre.sends.push_back({e, e - p2, Segment{0, n}});
    for (int64_t e = p2; e < k; ++e)
      pre.recvs.push_back({e - p2, e, Segment{0, n}, /*accumulate=*/true});
    sched.steps.push_back(std::move(pre));
  }

  // One pairwise exchange step; each side ships the half the *other* side
  // keeps (and therefore receives into).
  struct Exchange {
    int64_t a = 0, peer = 0;
    Segment a_keeps, peer_keeps;
  };
  std::vector<Exchange> plan;
  const auto exchange_step = [&](bool accumulate) {
    ScheduleStep step;
    for (const Exchange& x : plan) {
      step.sends.push_back({x.a, x.peer, x.peer_keeps});
      step.sends.push_back({x.peer, x.a, x.a_keeps});
    }
    for (const Exchange& x : plan) {
      step.recvs.push_back({x.a, x.peer, x.a_keeps, accumulate});
      step.recvs.push_back({x.peer, x.a, x.peer_keeps, accumulate});
    }
    sched.steps.push_back(std::move(step));
  };

  // Reduce-scatter among the p2 core agents by recursive halving.
  std::vector<Segment> live(static_cast<size_t>(p2), Segment{0, n});
  for (int64_t step = 0; step < l; ++step) {
    const int64_t mask = int64_t{1} << step;
    plan.clear();
    for (int64_t a = 0; a < p2; ++a) {
      const int64_t peer = a ^ mask;
      if (peer < a) continue;
      const Segment range = live[static_cast<size_t>(a)];
      const int64_t mid = range.begin + range.size() / 2;
      plan.push_back(
          {a, peer, Segment{range.begin, mid}, Segment{mid, range.end}});
      live[static_cast<size_t>(a)] = {range.begin, mid};
      live[static_cast<size_t>(peer)] = {mid, range.end};
    }
    exchange_step(/*accumulate=*/true);
  }
  // All-gather by recursive doubling (reverse order): peers swap their
  // live segments wholesale and keep the union.
  for (int64_t step = l - 1; step >= 0; --step) {
    const int64_t mask = int64_t{1} << step;
    plan.clear();
    for (int64_t a = 0; a < p2; ++a) {
      const int64_t peer = a ^ mask;
      if (peer < a) continue;
      const Segment sa = live[static_cast<size_t>(a)];
      const Segment sp = live[static_cast<size_t>(peer)];
      // a receives (keeps) peer's segment and vice versa.
      plan.push_back({a, peer, sp, sa});
      const Segment merged{std::min(sa.begin, sp.begin),
                           std::max(sa.end, sp.end)};
      live[static_cast<size_t>(a)] = merged;
      live[static_cast<size_t>(peer)] = merged;
    }
    exchange_step(/*accumulate=*/false);
  }
  if (rem > 0) {
    ScheduleStep post;
    for (int64_t e = p2; e < k; ++e)
      post.sends.push_back({e - p2, e, Segment{0, n}});
    for (int64_t e = p2; e < k; ++e)
      post.recvs.push_back({e, e - p2, Segment{0, n}, /*accumulate=*/false});
    sched.steps.push_back(std::move(post));
  }
  return sched;
}

/// Param-server round on a star `grid` (endpoint K = grid.endpoints() - 1
/// is the server) over `participants` (ascending; empty = agents 0..K-1)
/// with `weights` parallel to them (empty = uniform). Two steps: every
/// participant uploads and the server folds weights[s] / sum(weights)
/// times each payload, in participant order, into its zeroed row; then the
/// server sends the row back and every participant overwrites its buffer.
/// Throws if a participant has no uplink or every weight is zero.
SteppedSchedule param_server_schedule(const LinkGrid& grid,
                                      std::vector<int64_t> participants,
                                      std::vector<double> weights,
                                      int64_t elems) {
  const int64_t server = grid.endpoints() - 1;
  COMDML_REQUIRE(server >= 1,
                 "param-server transport needs a server endpoint "
                 "(LinkGrid::star)");
  if (participants.empty()) {
    participants.resize(static_cast<size_t>(server));
    std::iota(participants.begin(), participants.end(), int64_t{0});
  }
  for (const int64_t id : participants) {
    COMDML_CHECK(id >= 0 && id < server);
    COMDML_REQUIRE(grid.link(id, server).usable(),
                   "selected agent " << id << " has no uplink");
  }
  if (weights.empty()) weights.assign(participants.size(), 1.0);
  COMDML_CHECK(weights.size() == participants.size());
  double wsum = 0.0;
  for (const double w : weights) {
    COMDML_CHECK(w >= 0.0);
    wsum += w;
  }
  COMDML_REQUIRE(wsum > 0.0, "all aggregation weights are zero");

  SteppedSchedule sched;
  sched.protocol = Protocol::kParamServer;
  sched.scratch = {server};
  // Upload: every participant ships its state over its own uplink, and the
  // server folds the weighted payloads into its zeroed row in participant
  // order. Download: the refreshed model returns the same way.
  const Segment all{0, elems};
  ScheduleStep up, down;
  for (size_t s = 0; s < participants.size(); ++s) {
    up.sends.push_back({participants[s], server, all});
    up.recvs.push_back({server, participants[s], all, /*accumulate=*/true,
                        weights[s] / wsum});
    down.sends.push_back({server, participants[s], all});
    down.recvs.push_back({participants[s], server, all, /*accumulate=*/false});
  }
  close_items(up);
  close_items(down);
  sched.steps.push_back(std::move(up));
  sched.steps.push_back(std::move(down));
  sched.participants = std::move(participants);
  sched.weights = std::move(weights);
  return sched;
}

/// Gossip round over `transport`'s links: every live endpoint of
/// `participants` (empty = every endpoint) draws one live neighbour with
/// one rng.below() in ascending endpoint order (isolated ones sit the
/// round out) and pushes its state to it in one step. Each receiver folds
/// its pushes in ascending sender order into a zeroed scratch row.
SteppedSchedule gossip_schedule(const Transport& transport,
                                const std::vector<int64_t>& participants,
                                tensor::Rng& rng, int64_t elems) {
  const int64_t k = transport.endpoints();
  // The selected endpoints still alive; the rest sit the round out.
  std::vector<int64_t> live;
  if (participants.empty()) {
    live = transport.live_endpoints();
  } else {
    for (const int64_t e : participants) {
      COMDML_CHECK(e >= 0 && e < k);
      if (transport.endpoint_alive(e)) live.push_back(e);
    }
  }

  SteppedSchedule sched;
  sched.protocol = Protocol::kGossip;
  sched.participants = participants;
  const Segment all{0, elems};
  ScheduleStep step;
  // (receiver, pusher) of every push; pushes use round-start states.
  std::vector<std::pair<int64_t, int64_t>> pushes;
  for (const int64_t i : live) {
    std::vector<int64_t> nbrs;
    for (const int64_t n : transport.neighbors(i))
      if (std::binary_search(live.begin(), live.end(), n)) nbrs.push_back(n);
    if (nbrs.empty()) continue;  // isolated agents sit the round out
    const int64_t partner = nbrs[static_cast<size_t>(
        rng.below(static_cast<int64_t>(nbrs.size())))];
    step.sends.push_back({i, partner, all});
    pushes.emplace_back(partner, i);
  }
  // Each receiver folds its pushes in ascending sender order.
  std::sort(pushes.begin(), pushes.end());
  for (const auto& [dst, src] : pushes) {
    if (sched.scratch.empty() || sched.scratch.back() != dst)
      sched.scratch.push_back(dst);
    step.recvs.push_back({dst, src, all, /*accumulate=*/true});
  }
  close_items(step);
  sched.steps.push_back(std::move(step));
  return sched;
}

// ---- step executors ---------------------------------------------------------

/// Items one after another on the calling thread, in schedule order.
class SerialExecutor final : public StepExecutor {
 public:
  void run(int64_t items, const std::function<void(int64_t)>& item) override {
    for (int64_t i = 0; i < items; ++i) item(i);
  }
};

/// Items fanned over the global pool (inline when nested in a pool task).
class PoolExecutor final : public StepExecutor {
 public:
  void run(int64_t items, const std::function<void(int64_t)>& item) override {
    core::parallel_for(0, items, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) item(i);
    });
  }
};

SerialExecutor g_serial_executor;
PoolExecutor g_pool_executor;

/// Below this many payload elements per step a fan-out costs more in
/// wake-ups than the copies, encodes and folds it would spread.
constexpr int64_t kMinFanOutElems = 4096;

/// Sum -> mean after the last step, over the schedule's owned participants
/// (all endpoints when unset), one item per participant on the request's
/// executor (serially when the buffers are too small to pay for a
/// fan-out). Survivor schedules divide by the live-set size.
void finalize_mean(const CollectiveRequest& req, const SteppedSchedule& sched,
                   int64_t endpoints) {
  if (req.buffers.empty()) return;
  const int64_t k = sched.participants.empty()
                        ? endpoints
                        : static_cast<int64_t>(sched.participants.size());
  const double inv_k = 1.0 / static_cast<double>(k);
  const auto scale_one = [&](int64_t i) {
    const int64_t a = sched.participants.empty()
                          ? i
                          : sched.participants[static_cast<size_t>(i)];
    if (owns(req, a)) scale(buffer_of(req, a), req.elems, inv_k);
  };
  StepExecutor* exec = &g_serial_executor;
  if (k * req.elems >= kMinFanOutElems)
    exec = req.executor != nullptr ? req.executor : &g_pool_executor;
  exec->run(k, std::cref(scale_one));
}

}  // namespace

// ---- recovery ---------------------------------------------------------------

/// The one mid-run recovery path of every protocol. Built before the first
/// message moves, it copies the participants' inputs; after an attempt
/// dies on a dead or silent endpoint, survive() puts the live participants
/// back to those inputs on a clean transport, so the protocol's rerun over
/// them is bit-identical to a from-scratch run without the dead. Dead
/// endpoints' buffers are left as the aborted attempt left them.
class Recovery {
 public:
  /// `t` and `req` must outlive the recovery. Empty `participants` means
  /// every endpoint of `t`.
  Recovery(Transport& t, const CollectiveRequest& req,
           std::vector<int64_t> participants)
      : transport_(&t),
        request_(&req),
        participants_(std::move(participants)) {
    if (participants_.empty()) {
      participants_.resize(static_cast<size_t>(t.endpoints()));
      std::iota(participants_.begin(), participants_.end(), int64_t{0});
    }
    if (req.buffers.empty()) return;
    snapshot_.resize(static_cast<size_t>(t.endpoints()));
    for (const int64_t a : participants_) {
      const double* buf = buffer_of(req, a);
      snapshot_[static_cast<size_t>(a)].assign(buf, buf + req.elems);
    }
  }

  /// Call from the handler of a failed attempt. Rethrows the error unless
  /// it is an EndpointDownError, or a DeliveryTimeoutError (whose silent
  /// sender is then failed), naming an endpoint other than `fatal`. Then
  /// drops the dead from the participants, restores the survivors'
  /// inputs, drops undelivered mail and `channel`'s unacked copies, and
  /// returns the survivors in participant order. Throws if none is left.
  const std::vector<int64_t>& survive(ReliableChannel* channel,
                                      int64_t fatal = -1) {
    try {
      throw;
    } catch (const EndpointDownError& e) {
      if (e.endpoint() == fatal) throw;
    } catch (const DeliveryTimeoutError& e) {
      if (e.src() == fatal) throw;
      transport_->fail_endpoint(e.src());
    }
    std::vector<int64_t> survivors;
    for (const int64_t a : participants_)
      if (transport_->endpoint_alive(a)) survivors.push_back(a);
    COMDML_REQUIRE(!survivors.empty(),
                   "collective cannot recover: every participant is dead");
    participants_ = std::move(survivors);
    if (!snapshot_.empty()) {
      for (const int64_t a : participants_) {
        const std::vector<double>& snap = snapshot_[static_cast<size_t>(a)];
        std::copy(snap.begin(), snap.end(), buffer_of(*request_, a));
      }
    }
    transport_->clear_pending();
    if (channel != nullptr) channel->clear_unacked();
    ++count_;
    return participants_;
  }

  /// Completed recoveries.
  [[nodiscard]] int64_t count() const noexcept { return count_; }

 private:
  Transport* transport_;
  const CollectiveRequest* request_;
  std::vector<int64_t> participants_;
  /// Input copies by endpoint id; empty rows for non-participants, and
  /// no rows on a timing-only run.
  std::vector<std::vector<double>> snapshot_;
  int64_t count_ = 0;
};

Protocol allreduce_protocol(AllReduceAlgo algo) {
  switch (algo) {
    case AllReduceAlgo::kRing:
      return Protocol::kRingAllReduce;
    case AllReduceAlgo::kHalvingDoubling:
      return Protocol::kHalvingDoublingAllReduce;
  }
  COMDML_CHECK(false);
  return Protocol::kRingAllReduce;
}

SteppedSchedule allreduce_schedule(Protocol protocol, int64_t agents,
                                   int64_t elems) {
  COMDML_CHECK(agents > 0 && elems >= 0);
  COMDML_REQUIRE(protocol == Protocol::kRingAllReduce ||
                     protocol == Protocol::kHalvingDoublingAllReduce,
                 "protocol '" << collective(protocol).name()
                              << "' is not an allreduce");
  SteppedSchedule sched = protocol == Protocol::kRingAllReduce
                              ? ring_schedule(agents, elems)
                              : halving_doubling_schedule(agents, elems);
  sched.protocol = protocol;
  for (ScheduleStep& step : sched.steps) close_items(step);
  return sched;
}

SteppedSchedule allreduce_schedule_over(
    Protocol protocol, const std::vector<int64_t>& participants,
    int64_t elems) {
  COMDML_REQUIRE(!participants.empty(),
                 "survivor schedule needs at least one participant");
  for (size_t i = 0; i < participants.size(); ++i) {
    COMDML_CHECK(participants[i] >= 0);
    COMDML_CHECK(i == 0 || participants[i - 1] < participants[i]);
  }
  const auto m = static_cast<int64_t>(participants.size());
  SteppedSchedule sched = allreduce_schedule(protocol, m, elems);
  // The m-rank schedule speaks in virtual ranks 0..m-1; remap every message
  // endpoint onto the surviving ids. Merge order, spans and work items are
  // untouched, so the result is bit-identical to a from-scratch m-agent
  // run.
  for (ScheduleStep& step : sched.steps) {
    for (ScheduleStep::Send& s : step.sends) {
      s.src = participants[static_cast<size_t>(s.src)];
      s.dst = participants[static_cast<size_t>(s.dst)];
    }
    for (ScheduleStep::Recv& r : step.recvs) {
      r.dst = participants[static_cast<size_t>(r.dst)];
      r.src = participants[static_cast<size_t>(r.src)];
    }
  }
  sched.participants = participants;
  return sched;
}

// ---- AsyncCollective --------------------------------------------------------

AsyncCollective::AsyncCollective(Protocol protocol, Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&owned_) {
  if (protocol == Protocol::kGossip) {
    COMDML_REQUIRE(request_.rng != nullptr,
                   "gossip needs a partner-draw Rng");
    // Snapshot before the draw: a survivor rerun redraws from here, so it
    // is bit-identical to a from-scratch run where the dead never existed.
    rng_state_ = request_.rng->state();
  }
  owned_ = build(protocol, request_.participants, request_.weights);
  start();
}

AsyncCollective::AsyncCollective(const SteppedSchedule& schedule,
                                 Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&schedule) {
  start();
}

AsyncCollective::~AsyncCollective() = default;

void AsyncCollective::start() {
  const int64_t k = transport_->endpoints();
  COMDML_REQUIRE(request_.owned.empty() ||
                     static_cast<int64_t>(request_.owned.size()) == k,
                 "owned mask covers " << request_.owned.size()
                                      << " endpoints, transport has " << k);
  // The star's server, the last endpoint, has no request buffer.
  const int64_t buffered =
      schedule_->protocol == Protocol::kParamServer ? k - 1 : k;
  COMDML_REQUIRE(request_.buffers.empty() ||
                     static_cast<int64_t>(request_.buffers.size()) ==
                         buffered,
                 "collective got " << request_.buffers.size()
                                   << " buffers for " << buffered
                                   << " agents");
  bind_rows();
  if (schedule_->steps.empty()) finalized_ = true;  // k == 1: nothing to do
  if (transport_->has_message_faults())
    channel_ = std::make_unique<ReliableChannel>(*transport_);
}

void AsyncCollective::bind_rows() {
  fold_rows_.clear();
  const std::vector<int64_t>& scratch = schedule_->scratch;
  if (scratch.empty() || request_.buffers.empty()) return;
  const auto n = static_cast<size_t>(request_.elems);
  rows_.assign(scratch.size() * n, 0.0);
  fold_rows_.assign(static_cast<size_t>(transport_->endpoints()), nullptr);
  std::copy(request_.buffers.begin(), request_.buffers.end(),
            fold_rows_.begin());
  for (size_t i = 0; i < scratch.size(); ++i)
    fold_rows_[static_cast<size_t>(scratch[i])] = rows_.data() + i * n;
}

int64_t AsyncCollective::recoveries() const noexcept {
  return recovery_ != nullptr ? recovery_->count() : 0;
}

void AsyncCollective::enable_recovery() {
  COMDML_REQUIRE(request_.owned.empty(),
                 "recovery needs every endpoint owned: processes of a "
                 "multi-process run agree on survivors through a barrier");
  COMDML_REQUIRE(next_step_ == 0,
                 "enable_recovery() must precede the first poll()");
  recovery_ = std::make_unique<Recovery>(*transport_, request_,
                                         schedule_->participants);
}

void AsyncCollective::execute_schedule_step(const ScheduleStep& step) {
  Transport& t = *transport_;
  const CollectiveRequest& req = request_;
  ReliableChannel* ch = channel_.get();
  int64_t moved = 0;
  for (const ScheduleStep::Send& s : step.sends) moved += s.span.size();
  const bool serial = ch != nullptr || req.buffers.empty() ||
                      moved < kMinFanOutElems || t.has_endpoint_faults();
  StepExecutor* exec = &g_pool_executor;
  if (serial)
    exec = &g_serial_executor;
  else if (req.executor != nullptr)
    exec = req.executor;
  // A send charges its destination's recv_seconds, a float sum: when some
  // destination receives more than once, the sends keep schedule order.
  const bool fan_in = step.recv_items.size() <= step.recvs.size();
  StepExecutor* send_exec = fan_in ? &g_serial_executor : exec;
  const auto send_item = [&](int64_t i) {
    const auto item = static_cast<size_t>(i);
    const auto lo = static_cast<size_t>(step.send_items[item]);
    const auto hi = static_cast<size_t>(step.send_items[item + 1]);
    const int64_t src = step.sends[lo].src;
    if (!owns(req, src)) return;
    const double* data = nullptr;
    if (src < static_cast<int64_t>(req.buffers.size()))
      data = req.buffers[static_cast<size_t>(src)];
    else if (!fold_rows_.empty())  // the star's server sends its row
      data = fold_rows_[static_cast<size_t>(src)];
    for (size_t x = lo; x < hi; ++x) {
      const ScheduleStep::Send& s = step.sends[x];
      const double* payload = data != nullptr ? data + s.span.begin : nullptr;
      if (ch != nullptr)
        ch->send(s.src, s.dst, s.span.size(), payload);
      else
        t.send(s.src, s.dst, s.span.size(), payload);
    }
  };
  // Gossip without reliable delivery merges best-effort: a lost or
  // corrupted push makes a quieter round, and a receiver that died after
  // the pushes went out still takes them.
  const bool gossip = schedule_->protocol == Protocol::kGossip;
  const bool best_effort = gossip && ch == nullptr;
  const auto fold_item = [&](int64_t i) {
    const auto item = static_cast<size_t>(i);
    const auto lo = static_cast<size_t>(step.recv_items[item]);
    const auto hi = static_cast<size_t>(step.recv_items[item + 1]);
    const int64_t dst = step.recvs[lo].dst;
    if (!owns(req, dst)) return;
    double* into = fold_rows_.empty() ? buffer_of(req, dst)
                                      : fold_rows_[static_cast<size_t>(dst)];
    int64_t folded = 0;
    for (size_t x = lo; x < hi; ++x) {
      const ScheduleStep::Recv& r = step.recvs[x];
      Message msg;
      if (ch != nullptr) {
        msg = ch->recv(dst, r.src);
      } else if (best_effort) {
        std::optional<Message> got = t.try_recv(dst, r.src);
        if (!got || !got->intact()) continue;
        msg = std::move(*got);
      } else {
        msg = t.recv(dst, r.src);
      }
      folded += merge_segment(msg, into, r) ? 1 : 0;
      t.recycle(std::move(msg.payload));
    }
    if (gossip && folded > 0) {
      double* mine = buffer_of(req, dst);
      add_into(mine, into, req.elems);
      scale(mine, req.elems, 1.0 / static_cast<double>(folded + 1));
    }
  };
  send_exec->run(static_cast<int64_t>(step.send_items.size()) - 1,
                 std::cref(send_item));
  // Close the step even when this process posted nothing: the positional
  // step history must line up across processes.
  t.end_step();
  exec->run(static_cast<int64_t>(step.recv_items.size()) - 1,
            std::cref(fold_item));
}

SteppedSchedule AsyncCollective::build(
    Protocol protocol, const std::vector<int64_t>& participants,
    std::vector<double> weights) {
  switch (protocol) {
    case Protocol::kRingAllReduce:
    case Protocol::kHalvingDoublingAllReduce:
      return participants.empty()
                 ? allreduce_schedule(protocol, transport_->endpoints(),
                                      request_.elems)
                 : allreduce_schedule_over(protocol, participants,
                                           request_.elems);
    case Protocol::kParamServer:
      return param_server_schedule(transport_->grid(), participants,
                                   std::move(weights), request_.elems);
    case Protocol::kGossip:
      return gossip_schedule(*transport_, participants, *request_.rng,
                             request_.elems);
  }
  COMDML_CHECK(false);
  return {};
}

bool AsyncCollective::poll() {
  if (next_step_ < schedule_->steps.size()) {
    try {
      execute_schedule_step(schedule_->steps[next_step_]);
      ++next_step_;
    } catch (...) {
      if (recovery_ == nullptr) throw;
      // Partially-reduced buffers are poisoned by the aborted step: restart
      // the survivors from their inputs on a schedule re-formed over them.
      // The star has no one left to aggregate once its server is gone.
      const SteppedSchedule& failed = *schedule_;
      const std::vector<int64_t>& survivors = recovery_->survive(
          channel_.get(), failed.protocol == Protocol::kParamServer
                              ? transport_->endpoints() - 1
                              : -1);
      // The star re-normalizes over the survivors' weights; gossip redraws
      // from the rewound rng.
      std::vector<double> weights;
      for (size_t s = 0; s < failed.weights.size(); ++s)
        if (transport_->endpoint_alive(failed.participants[s]))
          weights.push_back(failed.weights[s]);
      if (failed.protocol == Protocol::kGossip)
        request_.rng->set_state(rng_state_);
      SteppedSchedule next =
          build(failed.protocol, survivors, std::move(weights));
      next.scale_to_mean = failed.scale_to_mean;
      owned_ = std::move(next);
      schedule_ = &owned_;
      bind_rows();
      next_step_ = 0;
      finalized_ = false;
      return done();
    }
  }
  if (done() && !finalized_) {
    if (schedule_->scale_to_mean)
      finalize_mean(request_, *schedule_, transport_->endpoints());
    finalized_ = true;
  }
  return done();
}

void AsyncCollective::wait() {
  while (!poll()) {
  }
}

// ---- registry ---------------------------------------------------------------

std::string_view Collective::name() const {
  static constexpr std::string_view kNames[] = {
      "ring_allreduce", "halving_doubling_allreduce", "gossip",
      "param_server"};
  return kNames[static_cast<size_t>(protocol_)];
}

CollectiveReport Collective::run(Transport& transport,
                                 const CollectiveRequest& request) const {
  AsyncCollective op(protocol_, transport, request);
  if (transport.has_endpoint_faults()) op.enable_recovery();
  op.wait();
  CollectiveReport rep;
  rep.transport = transport.stats();
  rep.recoveries = op.recoveries();
  if (protocol_ == Protocol::kGossip) {
    rep.partners.assign(static_cast<size_t>(transport.endpoints()),
                        std::nullopt);
    for (const ScheduleStep::Send& s : op.schedule().steps.front().sends)
      rep.partners[static_cast<size_t>(s.src)] = s.dst;
  }
  return rep;
}

const Collective& collective(Protocol protocol) {
  static constexpr Collective kRegistry[] = {
      Collective(Protocol::kRingAllReduce),
      Collective(Protocol::kHalvingDoublingAllReduce),
      Collective(Protocol::kGossip), Collective(Protocol::kParamServer)};
  const auto idx = static_cast<size_t>(protocol);
  COMDML_CHECK(idx < std::size(kRegistry));
  return kRegistry[idx];
}

CollectiveCost allreduce_cost(int64_t agents, int64_t model_bytes,
                              double bottleneck_mbps, AllReduceAlgo algo,
                              double latency_sec) {
  COMDML_CHECK(agents > 0 && model_bytes >= 0);
  if (agents == 1) return {};
  SimTransport transport(
      LinkGrid::uniform(agents, bottleneck_mbps, latency_sec));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(model_bytes);
  (void)collective(allreduce_protocol(algo)).run(transport, req);
  const TransportStats& stats = transport.stats();
  return {stats.seconds, stats.steps, stats.max_bytes_sent()};
}

}  // namespace comdml::comm
