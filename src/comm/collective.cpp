#include "comm/collective.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "comm/reliable.hpp"
#include "core/parallel.hpp"
#include "core/workspace.hpp"
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

void validate_buffers(const CollectiveRequest& req, int64_t agents) {
  COMDML_REQUIRE(req.owned.empty() ||
                     static_cast<int64_t>(req.owned.size()) == agents,
                 "owned mask covers " << req.owned.size() << " endpoints, "
                                      << "transport has " << agents);
  if (req.buffers.empty()) return;
  COMDML_REQUIRE(static_cast<int64_t>(req.buffers.size()) == agents,
                 "collective got " << req.buffers.size() << " buffers for "
                                   << agents << " agents");
}

/// Does this process host endpoint `e` (see CollectiveRequest::owned)?
bool owns(const CollectiveRequest& req, int64_t e) {
  return req.owned.empty() || req.owned[static_cast<size_t>(e)] != 0;
}

CollectiveReport report_of(const Transport& t) {
  CollectiveReport rep;
  rep.transport = t.stats();
  return rep;
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

void scale(double* data, int64_t n, double s) {
#if COMDML_SIMD_X86
  if (simd::kAvx2) return scale_avx2(data, n, s);
#endif
  scale_scalar(data, n, s);
}

/// Fold a delivered payload into `dst + seg.begin` (add or overwrite).
void merge_segment(const Message& msg, double* dst, const Segment& seg,
                   bool accumulate) {
  if (dst == nullptr || !msg.has_payload()) return;
  COMDML_REQUIRE(static_cast<int64_t>(msg.payload.size()) == seg.size(),
                 "message " << msg.src << " -> " << msg.dst << " carries "
                            << msg.payload.size() << " values for a "
                            << seg.size() << "-element segment");
  if (accumulate)
    add_into(dst + seg.begin, msg.payload.data(), seg.size());
  else
    std::memcpy(dst + seg.begin, msg.payload.data(),
                static_cast<size_t>(seg.size()) * sizeof(double));
}

// ---- stepped allreduce schedules --------------------------------------------
//
// Ring and halving/doubling are *deterministic* message patterns: every
// send/recv is known from (k, elems) alone. Each protocol therefore builds
// a SteppedSchedule once, and both the blocking Collective::run and the
// non-blocking AsyncCollective execute that same object step by step —
// predicted (SimTransport) and executed (InProcTransport) traffic remain
// one code path no matter which driver runs the schedule.

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

/// Execute one schedule step: post every owned send, close the transport
/// step, fold every delivered payload into its owned destination (and hand
/// its buffer back to the transport). The two phases run on the request's
/// executor unless the step must stay serial (see ScheduleStep). With a
/// channel, sends park retransmit copies and receives retry through backoff
/// — the schedule completes over lossy/corrupting links exactly as it would
/// over clean ones.
void execute_schedule_step(Transport& t, const CollectiveRequest& req,
                           const ScheduleStep& step, ReliableChannel* ch) {
  int64_t moved = 0;
  for (const ScheduleStep::Send& s : step.sends) moved += s.span.size();
  const bool serial = ch != nullptr || req.buffers.empty() ||
                      moved < kMinFanOutElems || t.has_endpoint_faults();
  StepExecutor* exec = &g_pool_executor;
  if (serial)
    exec = &g_serial_executor;
  else if (req.executor != nullptr)
    exec = req.executor;
  // One item per send: a step has at most one send per source endpoint.
  const auto send_one = [&](int64_t i) {
    const ScheduleStep::Send& s = step.sends[static_cast<size_t>(i)];
    if (!owns(req, s.src)) return;
    const double* data = buffer_of(req, s.src);
    const double* payload = data != nullptr ? data + s.span.begin : nullptr;
    if (ch != nullptr)
      ch->send(s.src, s.dst, s.span.size(), payload);
    else
      t.send(s.src, s.dst, s.span.size(), payload);
  };
  // One item per receive: a step has at most one receive per destination.
  const auto fold_one = [&](int64_t i) {
    const ScheduleStep::Recv& r = step.recvs[static_cast<size_t>(i)];
    if (!owns(req, r.dst)) return;
    Message msg =
        ch != nullptr ? ch->recv(r.dst, r.src) : t.recv(r.dst, r.src);
    merge_segment(msg, buffer_of(req, r.dst), r.span, r.accumulate);
    t.recycle(std::move(msg.payload));
  };
  exec->run(static_cast<int64_t>(step.sends.size()), std::cref(send_one));
  // Close the step even when this process posted nothing: the positional
  // step history must line up across processes.
  t.end_step();
  exec->run(static_cast<int64_t>(step.recvs.size()), std::cref(fold_one));
}

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

/// Blocking allreduce over a prebuilt schedule (ring and halving/doubling
/// share everything but the schedule builder). Drives an AsyncCollective
/// so the blocking path inherits survivor recovery (armed when the
/// transport has endpoint faults) and reliable delivery (when it has
/// message faults) — one behavior for both drivers.
CollectiveReport run_stepped(SteppedSchedule sched, Protocol protocol,
                             Transport& t, const CollectiveRequest& req) {
  validate_buffers(req, t.endpoints());
  AsyncCollective op(sched, t, req);
  if (t.has_endpoint_faults()) op.enable_recovery(protocol);
  op.wait();
  CollectiveReport rep = report_of(t);
  rep.recoveries = op.recoveries();
  return rep;
}

// ---- ring -------------------------------------------------------------------

class RingAllReduce final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "ring_allreduce";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    return run_stepped(ring_schedule(t.endpoints(), req.elems),
                       Protocol::kRingAllReduce, t, req);
  }
};

// ---- recursive halving/doubling ---------------------------------------------

class HalvingDoublingAllReduce final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "halving_doubling_allreduce";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    return run_stepped(halving_doubling_schedule(t.endpoints(), req.elems),
                       Protocol::kHalvingDoublingAllReduce, t, req);
  }
};

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

namespace {

// ---- gossip -----------------------------------------------------------------

class GossipExchange final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override { return "gossip"; }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    const int64_t k = t.endpoints();
    validate_buffers(req, k);
    COMDML_REQUIRE(req.rng != nullptr, "gossip needs a partner-draw Rng");
    std::unique_ptr<ReliableChannel> ch;
    if (t.has_message_faults()) ch = std::make_unique<ReliableChannel>(t);
    // A survivor rerun also rewinds the partner-draw RNG, so it is
    // bit-identical to a from-scratch run where the dead never existed.
    std::optional<Recovery> recovery;
    std::string rng_state;
    if (t.has_endpoint_faults()) {
      recovery.emplace(t, req, req.participants);
      rng_state = req.rng->state();
    }
    for (;;) {
      try {
        CollectiveReport rep = run_once(t, req, ch.get());
        rep.recoveries = recovery ? recovery->count() : 0;
        return rep;
      } catch (...) {
        if (!recovery) throw;
        (void)recovery->survive(ch.get());
        req.rng->set_state(rng_state);
      }
    }
  }

 private:
  static CollectiveReport run_once(Transport& t, const CollectiveRequest& req,
                                   ReliableChannel* ch) {
    const int64_t k = t.endpoints();
    // The selected endpoints still alive; the rest sit the round out.
    std::vector<int64_t> live;
    if (req.participants.empty()) {
      live = t.live_endpoints();
    } else {
      for (const int64_t e : req.participants) {
        COMDML_CHECK(e >= 0 && e < k);
        if (t.endpoint_alive(e)) live.push_back(e);
      }
    }
    std::vector<char> is_live(static_cast<size_t>(k), 0);
    for (const int64_t e : live) is_live[static_cast<size_t>(e)] = 1;

    CollectiveReport rep;
    rep.partners.assign(static_cast<size_t>(k), std::nullopt);
    for (const int64_t i : live) {
      std::vector<int64_t> nbrs;
      for (const int64_t n : t.neighbors(i))
        if (is_live[static_cast<size_t>(n)]) nbrs.push_back(n);
      if (nbrs.empty()) continue;  // isolated agents sit the round out
      rep.partners[static_cast<size_t>(i)] =
          nbrs[static_cast<size_t>(req.rng->below(
              static_cast<int64_t>(nbrs.size())))];
    }
    // All pushes use round-start states: sends snapshot payloads before
    // any receiver merges.
    for (const int64_t i : live) {
      if (!rep.partners[static_cast<size_t>(i)]) continue;
      const int64_t dst = *rep.partners[static_cast<size_t>(i)];
      if (ch != nullptr)
        ch->send(i, dst, req.elems, buffer_of(req, i));
      else
        t.send(i, dst, req.elems, buffer_of(req, i));
    }
    t.end_step();
    const bool real = !req.buffers.empty();
    if (ch != nullptr) {
      // Reliable merge: the push fan-in is known from the partner draws,
      // so each receiver runs matched reliable receives in ascending
      // sender order — the same fp summation order as the lossless
      // arrival-order path. Runs on timing-only transports too, so Sim
      // and InProc charge identical retransmission traffic.
      core::Scratch<double> acc(req.elems);
      for (const int64_t i : live) {
        if (real) std::fill(acc.data(), acc.data() + req.elems, 0.0);
        int64_t pushes = 0;
        for (const int64_t j : live) {
          if (!rep.partners[static_cast<size_t>(j)] ||
              *rep.partners[static_cast<size_t>(j)] != i)
            continue;
          const Message msg = ch->recv(i, j);
          if (!real || !msg.has_payload()) continue;
          for (int64_t x = 0; x < req.elems; ++x)
            acc[x] += msg.payload[static_cast<size_t>(x)];
          ++pushes;
        }
        if (!real || pushes == 0) continue;
        double* mine = buffer_of(req, i);
        const double inv = 1.0 / static_cast<double>(pushes + 1);
        for (int64_t x = 0; x < req.elems; ++x)
          mine[x] = (mine[x] + acc[x]) * inv;
      }
    } else if (real) {
      // Best-effort merge: receiver i averages its own state with every
      // delivered, intact push (a lost or corrupted push is simply a
      // quieter round — gossip's tolerance, not an error).
      core::Scratch<double> acc(req.elems);
      for (const int64_t i : live) {
        std::fill(acc.data(), acc.data() + req.elems, 0.0);
        int64_t pushes = 0;
        while (auto msg = t.try_recv(i)) {
          if (!msg->has_payload() || !msg->intact()) continue;
          for (int64_t x = 0; x < req.elems; ++x)
            acc[x] += msg->payload[static_cast<size_t>(x)];
          ++pushes;
        }
        if (pushes == 0) continue;
        double* mine = buffer_of(req, i);
        const double inv = 1.0 / static_cast<double>(pushes + 1);
        for (int64_t x = 0; x < req.elems; ++x)
          mine[x] = (mine[x] + acc[x]) * inv;
      }
    }
    rep.transport = t.stats();
    return rep;
  }
};

// ---- parameter server -------------------------------------------------------

class ParamServerRound final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "param_server";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    const int64_t server = t.endpoints() - 1;
    COMDML_REQUIRE(server >= 1,
                   "param-server transport needs a server endpoint "
                   "(LinkGrid::star)");
    validate_buffers(req, server);
    std::vector<int64_t> selected = req.participants;
    if (selected.empty()) {
      selected.resize(static_cast<size_t>(server));
      for (int64_t i = 0; i < server; ++i)
        selected[static_cast<size_t>(i)] = i;
    }
    for (const int64_t id : selected) {
      COMDML_CHECK(id >= 0 && id < server);
      COMDML_REQUIRE(t.linked(id, server),
                     "selected agent " << id << " has no uplink");
    }
    std::vector<double> weights = req.weights;
    if (weights.empty()) weights.assign(selected.size(), 1.0);
    COMDML_CHECK(weights.size() == selected.size());
    for (const double w : weights) COMDML_CHECK(w >= 0.0);

    std::unique_ptr<ReliableChannel> ch;
    if (t.has_message_faults()) ch = std::make_unique<ReliableChannel>(t);
    // A dead *agent* is survivable: the round re-forms over the remaining
    // clients and the weight normalization re-derives from the survivor
    // weights, so the rerun is exactly a from-scratch round over the
    // survivors. A dead *server* is fatal by design — the star has no one
    // left to aggregate.
    std::optional<Recovery> recovery;
    if (t.has_endpoint_faults()) recovery.emplace(t, req, selected);
    for (;;) {
      try {
        CollectiveReport rep =
            run_round(t, req, selected, weights, server, ch.get());
        rep.recoveries = recovery ? recovery->count() : 0;
        return rep;
      } catch (...) {
        if (!recovery) throw;
        const std::vector<int64_t>& survivors =
            recovery->survive(ch.get(), server);
        std::vector<double> kept;
        for (size_t s = 0; s < selected.size(); ++s)
          if (t.endpoint_alive(selected[s])) kept.push_back(weights[s]);
        weights = std::move(kept);
        selected = survivors;
      }
    }
  }

 private:
  static CollectiveReport run_round(Transport& t, const CollectiveRequest& req,
                                    const std::vector<int64_t>& selected,
                                    const std::vector<double>& weights,
                                    int64_t server, ReliableChannel* ch) {
    double wsum = 0.0;
    for (const double w : weights) wsum += w;
    COMDML_REQUIRE(wsum > 0.0, "all aggregation weights are zero");
    const auto send = [&](int64_t src, int64_t dst, const double* data) {
      if (ch != nullptr)
        ch->send(src, dst, req.elems, data);
      else
        t.send(src, dst, req.elems, data);
    };
    const auto recv = [&](int64_t dst, int64_t src) {
      return ch != nullptr ? ch->recv(dst, src) : t.recv(dst, src);
    };

    // Upload: every selected agent ships its state over its own uplink.
    for (const int64_t id : selected)
      send(id, server, buffer_of(req, id));
    t.end_step();
    core::Scratch<double> mean(req.elems);
    const bool real = !req.buffers.empty();
    if (real) std::fill(mean.data(), mean.data() + req.elems, 0.0);
    for (size_t s = 0; s < selected.size(); ++s) {
      const Message msg = recv(server, selected[s]);
      if (!real || !msg.has_payload()) continue;
      const double w = weights[s] / wsum;
      for (int64_t j = 0; j < req.elems; ++j)
        mean[j] += w * msg.payload[static_cast<size_t>(j)];
    }
    // Download: the refreshed model returns the same way.
    for (const int64_t id : selected)
      send(server, id, real ? mean.data() : nullptr);
    t.end_step();
    for (const int64_t id : selected) {
      const Message msg = recv(id, server);
      if (!msg.has_payload()) continue;
      double* mine = buffer_of(req, id);
      for (int64_t j = 0; j < req.elems; ++j)
        mine[j] = msg.payload[static_cast<size_t>(j)];
    }
    return report_of(t);
  }
};

// ---- registry ---------------------------------------------------------------

const RingAllReduce kRing;
const HalvingDoublingAllReduce kHalvingDoubling;
const GossipExchange kGossip;
const ParamServerRound kParamServer;

constexpr size_t kProtocols = 4;
const Collective* const kRegistry[kProtocols] = {&kRing, &kHalvingDoubling,
                                                 &kGossip, &kParamServer};

}  // namespace

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
  switch (protocol) {
    case Protocol::kRingAllReduce:
      return ring_schedule(agents, elems);
    case Protocol::kHalvingDoublingAllReduce:
      return halving_doubling_schedule(agents, elems);
    case Protocol::kGossip:
    case Protocol::kParamServer:
      break;
  }
  COMDML_REQUIRE(false, "protocol '" << collective(protocol).name()
                                     << "' has no stepped schedule");
  return {};
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
  // endpoint onto the surviving ids. Merge order and spans are untouched, so
  // the result is bit-identical to a from-scratch m-agent run.
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

AsyncCollective::AsyncCollective(Protocol protocol, Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&owned_) {
  owned_ = allreduce_schedule(protocol, transport.endpoints(), request_.elems);
  validate_buffers(request_, transport.endpoints());
  if (schedule_->steps.empty()) finalized_ = true;  // k == 1: nothing to do
  if (transport.has_message_faults())
    channel_ = std::make_unique<ReliableChannel>(transport);
}

AsyncCollective::AsyncCollective(const SteppedSchedule& schedule,
                                 Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&schedule) {
  validate_buffers(request_, transport.endpoints());
  if (schedule_->steps.empty()) finalized_ = true;  // k == 1: nothing to do
  if (transport.has_message_faults())
    channel_ = std::make_unique<ReliableChannel>(transport);
}

AsyncCollective::~AsyncCollective() = default;

int64_t AsyncCollective::recoveries() const noexcept {
  return recovery_ != nullptr ? recovery_->count() : 0;
}

void AsyncCollective::enable_recovery(Protocol protocol) {
  COMDML_REQUIRE(request_.owned.empty(),
                 "recovery needs every endpoint owned: processes of a "
                 "multi-process run agree on survivors through a barrier");
  COMDML_REQUIRE(next_step_ == 0,
                 "enable_recovery() must precede the first poll()");
  recovery_protocol_ = protocol;
  recovery_ = std::make_unique<Recovery>(*transport_, request_,
                                         schedule_->participants);
}

bool AsyncCollective::poll() {
  if (next_step_ < schedule_->steps.size()) {
    try {
      execute_schedule_step(*transport_, request_,
                            schedule_->steps[next_step_], channel_.get());
      ++next_step_;
    } catch (...) {
      if (recovery_ == nullptr) throw;
      // Partially-reduced buffers are poisoned by the aborted step: restart
      // the survivors from their inputs on a schedule re-formed over them.
      const bool scale = schedule_->scale_to_mean;
      owned_ = allreduce_schedule_over(
          recovery_protocol_, recovery_->survive(channel_.get()),
          request_.elems);
      owned_.scale_to_mean = scale;
      schedule_ = &owned_;
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

const Collective& collective(Protocol protocol) {
  const auto idx = static_cast<size_t>(protocol);
  COMDML_CHECK(idx < kProtocols);
  return *kRegistry[idx];
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
