#include "comm/reliable.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "tensor/tensor.hpp"

namespace comdml::comm {

int64_t RetryPolicy::extra_retries(int64_t observed_drops) const {
  if (observed_drops <= 0) return 0;
  int64_t bonus = 0;
  // floor(log2(drops + 1)) without touching floating point: monotone,
  // saturating, and cheap enough to recompute per retry attempt.
  for (int64_t v = observed_drops + 1; v > 1; v >>= 1) ++bonus;
  return std::min(bonus, adaptive_extra_max);
}

RetryPolicy RetryPolicy::from_env() {
  RetryPolicy policy;
  if (const char* retries = std::getenv("COMDML_RETRY_MAX")) {
    const long long v = std::atoll(retries);
    if (v >= 0) policy.max_retries = static_cast<int64_t>(v);
  }
  if (const char* base_ms = std::getenv("COMDML_BACKOFF_BASE_MS")) {
    const double v = std::atof(base_ms);
    if (v > 0.0) policy.backoff_base_sec = v * 1e-3;
  }
  if (const char* adaptive = std::getenv("COMDML_RETRY_ADAPTIVE"))
    policy.adaptive = std::atoll(adaptive) != 0;
  if (const char* extra = std::getenv("COMDML_RETRY_ADAPTIVE_MAX")) {
    const long long v = std::atoll(extra);
    if (v >= 0) policy.adaptive_extra_max = static_cast<int64_t>(v);
  }
  return policy;
}

ReliableChannel::ReliableChannel(Transport& transport)
    : ReliableChannel(transport, RetryPolicy::from_env()) {}

ReliableChannel::ReliableChannel(Transport& transport,
                                 const RetryPolicy& policy)
    : transport_(&transport), policy_(policy) {
  COMDML_CHECK(policy_.max_retries >= 0);
  COMDML_CHECK(policy_.backoff_base_sec >= 0.0);
  const auto edges = static_cast<size_t>(transport.endpoints()) *
                     static_cast<size_t>(transport.endpoints());
  last_delivered_.assign(edges, -1);
  sent_.resize(edges);
}

void ReliableChannel::send(int64_t src, int64_t dst, int64_t elems,
                           const double* data) {
  const int64_t seq = transport_->send(src, dst, elems, data);
  Unacked u;
  u.seq = seq;
  u.elems = elems;
  // Park the pre-codec copy: the schedule's recv phase folds into the very
  // buffers that were sent, so a later retransmit cannot reread them.
  if (data != nullptr && elems > 0) u.data.assign(data, data + elems);
  sent_[edge(src, dst)].push_back(std::move(u));
}

Message ReliableChannel::recv(int64_t dst, int64_t src) {
  const size_t e = edge(src, dst);
  for (int64_t attempt = 0;; ++attempt) {
    // Drain the edge until something usable arrives: stale duplicates
    // (seq already delivered) and corrupted copies are discarded — the
    // latter get re-requested below.
    while (auto m = transport_->try_recv_from(dst, src)) {
      if (m->seq <= last_delivered_[e]) continue;
      if (!m->intact()) continue;
      last_delivered_[e] = m->seq;
      auto& window = sent_[e];
      while (!window.empty() && window.front().seq <= m->seq)
        window.pop_front();  // cumulative ack
      return std::move(*m);
    }
    // Recomputed per attempt: drops charged by this very receive's
    // retransmits keep counting, so a lossy edge earns patience even
    // within one delivery. Deterministic — drop decisions are hashes of
    // the shared step counter, identical across transport flavors.
    const int64_t budget =
        policy_.adaptive
            ? policy_.budget(transport_->dropped_on_edge(src, dst))
            : policy_.max_retries;
    if (attempt >= budget)
      throw DeliveryTimeoutError(
          src, dst, attempt,
          "delivery timeout " + std::to_string(src) + " -> " +
              std::to_string(dst) + " after " + std::to_string(attempt) +
              " retransmissions");
    // Nothing usable in flight: wait out the (modeled, exponential)
    // backoff, re-send the oldest unacked copy, and close the retry step
    // so delayed originals mature.
    const int shift = static_cast<int>(std::min<int64_t>(attempt, 30));
    transport_->charge_backoff(policy_.backoff_base_sec *
                               static_cast<double>(1ll << shift));
    // A sender living in another process holds the unacked copy, not this
    // channel: the transport ships a NACK to the owning process, which
    // retransmits from its own parked payload.
    if (transport_->nack(src, dst, last_delivered_[e])) {
      ++retransmits_;
      transport_->end_step();
      continue;
    }
    auto& window = sent_[e];
    COMDML_REQUIRE(!window.empty(),
                   "reliable recv " << src << " -> " << dst
                                    << " has no unacked send to retransmit "
                                       "(raw transport traffic mixed onto "
                                       "the edge?)");
    const Unacked& u = window.front();
    Transport::SendOptions opts;
    opts.retransmit = true;
    opts.seq = u.seq;
    transport_->send(src, dst, u.elems,
                     u.data.empty() ? nullptr : u.data.data(), opts);
    ++retransmits_;
    transport_->end_step();
  }
}

void ReliableChannel::clear_unacked() {
  for (auto& window : sent_) window.clear();
}

}  // namespace comdml::comm
