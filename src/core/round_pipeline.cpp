#include "core/round_pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "core/parallel.hpp"

namespace comdml::core {

OverlapTimeline compose_overlap_timeline(
    const std::vector<double>& ready_seconds,
    const std::vector<double>& bucket_seconds) {
  COMDML_CHECK(ready_seconds.size() == bucket_seconds.size());
  const size_t n = ready_seconds.size();
  OverlapTimeline tl;
  tl.start.assign(n, 0.0);
  tl.finish.assign(n, 0.0);
  // Link order = ready order, ties broken by bucket index (stable sort).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ready_seconds[a] < ready_seconds[b];
  });
  double link_free = 0.0;
  for (const size_t b : order) {
    tl.start[b] = std::max(ready_seconds[b], link_free);
    tl.finish[b] = tl.start[b] + bucket_seconds[b];
    link_free = tl.finish[b];
    tl.span = std::max(tl.span, tl.finish[b]);
  }
  return tl;
}

comm::LinkGrid bottleneck_grid(const sim::Topology& topology,
                               double latency_sec) {
  const auto min_bw = topology.min_link_bandwidth();
  COMDML_REQUIRE(min_bw.has_value() || topology.agents() == 1,
                 "topology has no usable link");
  return comm::LinkGrid::uniform(topology.agents(), min_bw.value_or(100.0),
                                 latency_sec);
}

comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected,
    const FleetOptions::CommOptions& comms) {
  COMDML_CHECK(!selected.empty());
  COMDML_CHECK(comms.server_mbps > 0.0);
  const double share =
      comms.server_mbps / static_cast<double>(selected.size());
  std::vector<double> rates(profiles.size(), 0.0);
  for (const int64_t idx : selected) {
    COMDML_CHECK(idx >= 0 && idx < static_cast<int64_t>(profiles.size()));
    const auto& p = profiles[static_cast<size_t>(idx)];
    COMDML_REQUIRE(p.connected(), "selected agent " << idx
                                                    << " has no uplink");
    rates[static_cast<size_t>(idx)] = std::min(p.mbps, share);
  }
  return comm::LinkGrid::star(rates, comms.latency_sec);
}

RoundPipeline::RoundPipeline(int64_t agents, const nn::BucketPlan& plan,
                             const comm::LinkGrid& grid,
                             comm::Protocol protocol,
                             const comm::Codec* codec, bool error_feedback,
                             comm::FaultPlan faults, bool straggler_support,
                             std::vector<double> weights, tensor::Rng* rng)
    : plan_(&plan),
      agents_(agents),
      protocol_(protocol),
      codec_(codec),
      weights_(std::move(weights)),
      rng_(rng),
      pending_(static_cast<size_t>(plan.buckets())),
      contributed_(static_cast<size_t>(agents * plan.buckets())) {
  COMDML_CHECK(agents > 0);
  const bool star = protocol_ == comm::Protocol::kParamServer;
  COMDML_REQUIRE(grid.endpoints() == agents + (star ? 1 : 0),
                 "a " << comm::collective(protocol_).name() << " grid for "
                      << agents << " agents has "
                      << agents + (star ? 1 : 0) << " endpoints, got "
                      << grid.endpoints());
  COMDML_REQUIRE(weights_.empty() ||
                     static_cast<int64_t>(weights_.size()) == agents,
                 "aggregation weights cover " << weights_.size()
                                              << " agents of " << agents);
  COMDML_REQUIRE(protocol_ != comm::Protocol::kGossip || rng_ != nullptr,
                 "gossip needs a partner-draw Rng");
  live_.assign(static_cast<size_t>(agents_), 1);
  slab_.resize(static_cast<size_t>(agents_ * plan.total_elems()));
  if ((error_feedback && codec_ != nullptr) || straggler_support)
    residual_.assign(slab_.size(), 0.0);
  transports_.reserve(static_cast<size_t>(plan.buckets()));
  for (int64_t b = 0; b < plan.buckets(); ++b)
    transports_.push_back(
        std::make_unique<comm::InProcTransport>(grid, codec_, faults));
  // A full round's allreduce depends on the bucket geometry alone.
  if (!star && protocol_ != comm::Protocol::kGossip) {
    schedules_.reserve(static_cast<size_t>(plan.buckets()));
    for (int64_t b = 0; b < plan.buckets(); ++b)
      schedules_.push_back(
          comm::allreduce_schedule(protocol_, agents_, plan.bucket(b).elems));
  }
  begin_round();
}

void RoundPipeline::begin_round() {
  for (auto& t : transports_) t->reset();
  const int64_t k = live_count();
  COMDML_REQUIRE(k > 0, "cannot begin a round with no live agents");
  for (auto& p : pending_) p.store(k, std::memory_order_relaxed);
  for (auto& c : contributed_) c.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  ready_.clear();
  reduced_ = 0;
  aborted_ = false;
}

void RoundPipeline::set_mesh(comm::Transport* mesh, std::vector<char> owned) {
  // RealFleet::set_dist_context refuses the star and gossip.
  COMDML_CHECK(protocol_ != comm::Protocol::kParamServer &&
               protocol_ != comm::Protocol::kGossip);
  COMDML_CHECK(mesh != nullptr && mesh->endpoints() == agents_);
  COMDML_CHECK(owned.empty() || static_cast<int64_t>(owned.size()) == agents_);
  mesh_ = mesh;
  owned_ = std::move(owned);
}

int64_t RoundPipeline::live_count() const {
  int64_t k = 0;
  for (const char l : live_) k += (l != 0);
  return k;
}

std::atomic<char>& RoundPipeline::mark(int64_t agent, int64_t bucket) {
  return contributed_[static_cast<size_t>(agent * plan_->buckets() + bucket)];
}

bool RoundPipeline::agent_live(int64_t agent) const {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  return live_[static_cast<size_t>(agent)] != 0;
}

std::vector<int64_t> RoundPipeline::live_agents() const {
  std::vector<int64_t> out;
  for (int64_t a = 0; a < agents_; ++a)
    if (live_[static_cast<size_t>(a)] != 0) out.push_back(a);
  return out;
}

void RoundPipeline::leave(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 0;
}

void RoundPipeline::rejoin(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 1;
  if (!residual_.empty()) {
    double* r = residual_.data() + agent * plan_->total_elems();
    std::fill(r, r + plan_->total_elems(), 0.0);
  }
  for (auto& t : transports_) t->revive_endpoint(agent);
}

void RoundPipeline::deactivate(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 0;
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    char expected = 0;
    if (!mark(agent, b).compare_exchange_strong(expected, 2,
                                                std::memory_order_acq_rel))
      continue;  // already published — the contribution stands
    const int64_t left = pending_[static_cast<size_t>(b)].fetch_sub(
                             1, std::memory_order_acq_rel) -
                         1;
    COMDML_CHECK(left >= 0);
    if (left > 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(b);
    }
    cv_.notify_one();
  }
}

void RoundPipeline::defer(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(live_[static_cast<size_t>(agent)] != 0);
  COMDML_REQUIRE(!residual_.empty(),
                 "defer() needs the residual slab — construct the pipeline "
                 "with straggler_support (or a lossy codec with error "
                 "feedback)");
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    char expected = 0;
    if (!mark(agent, b).compare_exchange_strong(expected, 3,
                                                std::memory_order_acq_rel))
      continue;
    const int64_t left = pending_[static_cast<size_t>(b)].fetch_sub(
                             1, std::memory_order_acq_rel) -
                         1;
    COMDML_CHECK(left >= 0);
    if (left > 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(b);
    }
    cv_.notify_one();
  }
}

void RoundPipeline::absorb_late(int64_t agent, int64_t src_agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(src_agent >= 0 && src_agent < agents_ && src_agent != agent);
  COMDML_REQUIRE(!residual_.empty(),
                 "absorb_late() needs the residual slab");
  const int64_t n = plan_->total_elems();
  double* mine = slab_.data() + agent * n;
  const double* consensus = slab_.data() + src_agent * n;
  double* r = residual_.data() + agent * n;
  // The late update survives as the residual delta (late state minus the
  // consensus it missed) and rides into the agent's next contribution via
  // apply_error_feedback; the slots adopt the consensus for restore_state.
  for (int64_t i = 0; i < n; ++i) {
    r[i] += mine[i] - consensus[i];
    mine[i] = consensus[i];
  }
}

void RoundPipeline::stage_state(int64_t agent,
                                const std::vector<tensor::Tensor*>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b)
    plan_->flatten_bucket(state, b, slot(agent, b));
}

void RoundPipeline::schedule_endpoint_failure(int64_t agent,
                                              int64_t after_steps) {
  for (auto& t : transports_) t->schedule_endpoint_failure(agent, after_steps);
}

void RoundPipeline::clear_endpoint_failures() {
  for (auto& t : transports_) t->clear_endpoint_failures();
}

void RoundPipeline::load_residuals(const std::vector<double>& residuals) {
  COMDML_REQUIRE(residuals.size() == residual_.size(),
                 "residual slab mismatch: got " << residuals.size()
                                                << " values, pipeline holds "
                                                << residual_.size());
  residual_ = residuals;
}

double* RoundPipeline::slot(int64_t agent, int64_t bucket) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  return slab_.data() + agent * plan_->total_elems() +
         plan_->bucket(bucket).offset_elems;
}

void RoundPipeline::apply_error_feedback(int64_t agent, int64_t bucket) {
  const nn::Bucket& bk = plan_->bucket(bucket);
  double* s = slot(agent, bucket);
  double* r = residual_.data() + agent * plan_->total_elems() +
              bk.offset_elems;
  // Carry last round's quantization error into this round's payload, then
  // quantize once and keep the fresh error: r' = (x + r) - Q(x + r). With
  // no codec (straggler-only residuals) Q is the identity and the carried
  // residual folds in completely, leaving r' = 0.
  (codec_ != nullptr ? *codec_ : comm::identity_codec())
      .error_feedback(s, r, bk.elems);
}

void RoundPipeline::contribute(int64_t agent, int64_t bucket) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(bucket >= 0 && bucket < plan_->buckets());
  // A lossy codec quantizes every contribution once at publish time, on
  // the contributing agent's own thread (distinct (agent, bucket) slots
  // and residuals are disjoint, and every contribution passes through here
  // exactly once per round). With error feedback the previous round's
  // quantization error rides along and the fresh error is kept.
  COMDML_CHECK(live_[static_cast<size_t>(agent)] != 0);
  if (!residual_.empty()) {
    apply_error_feedback(agent, bucket);
  } else if (codec_ != nullptr) {
    codec_->transform(slot(agent, bucket), plan_->bucket(bucket).elems);
  }
  const char was = mark(agent, bucket).exchange(1, std::memory_order_acq_rel);
  COMDML_CHECK(was == 0);
  // acq_rel: the last contributor's decrement acquires every earlier
  // contributor's slab writes before the bucket is published.
  const int64_t left = pending_[static_cast<size_t>(bucket)].fetch_sub(
                           1, std::memory_order_acq_rel) -
                       1;
  COMDML_CHECK(left >= 0);
  if (left > 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ready_.push_back(bucket);
  }
  cv_.notify_one();
}

void RoundPipeline::contribute_all(int64_t agent) {
  for (int64_t b = 0; b < plan_->buckets(); ++b) contribute(agent, b);
}

void RoundPipeline::restore_state(
    int64_t agent, const std::vector<tensor::Tensor*>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b)
    plan_->unflatten_bucket(slot(agent, b), b, state);
}

void RoundPipeline::run_bucket(int64_t bucket) {
  // Reduce over exactly the agents whose contribution was published; agents
  // that died before publishing are simply absent from the mean.
  std::vector<int64_t> contributors;
  for (int64_t a = 0; a < agents_; ++a)
    if (mark(a, bucket).load(std::memory_order_acquire) == 1)
      contributors.push_back(a);
  if (contributors.empty()) return;  // every contributor died first
  comm::CollectiveRequest req;
  req.elems = plan_->bucket(bucket).elems;
  req.buffers.resize(static_cast<size_t>(agents_));
  for (int64_t a = 0; a < agents_; ++a)
    req.buffers[static_cast<size_t>(a)] = slot(a, bucket);
  req.owned = owned_;
  // On a pool worker a parallel_for would run inline: let the collectors
  // waiting in drain() take the step items instead.
  if (mesh_ == nullptr && in_parallel_region()) req.executor = &help_;
  comm::Transport& transport =
      mesh_ != nullptr ? *mesh_ : *transports_[static_cast<size_t>(bucket)];
  // A full allreduce round borrows the bucket's prebuilt schedule.
  // Otherwise the protocol's schedule runs over the contributors, with
  // their weights; gossip draws its partners here.
  const bool prebuilt =
      static_cast<int64_t>(contributors.size()) == agents_ &&
      !schedules_.empty();
  if (!prebuilt) {
    req.participants = contributors;
    if (!weights_.empty())
      for (const int64_t a : contributors)
        req.weights.push_back(weights_[static_cast<size_t>(a)]);
    req.rng = rng_;
  }
  comm::AsyncCollective op =
      prebuilt ? comm::AsyncCollective(schedules_[static_cast<size_t>(bucket)],
                                       transport, std::move(req))
               : comm::AsyncCollective(protocol_, transport, std::move(req));
  // With fault injection armed on this transport, a mid-collective
  // endpoint death re-forms the schedule around the survivors instead of
  // failing the round. Never on the mesh: survivors there are agreed
  // across processes by the fleet's barrier.
  if (mesh_ == nullptr && transport.has_endpoint_faults())
    op.enable_recovery();
  op.wait();
  if (owned_.empty()) return;
  // Non-owned rows were never touched; they adopt the owned mean.
  const auto first = std::find_if(
      contributors.begin(), contributors.end(),
      [&](int64_t a) { return owned_[static_cast<size_t>(a)] != 0; });
  COMDML_REQUIRE(first != contributors.end(),
                 "bucket " << bucket << " has no owned contributor");
  const double* mean = slot(*first, bucket);
  const int64_t n = plan_->bucket(bucket).elems;
  for (const int64_t a : contributors)
    if (owned_[static_cast<size_t>(a)] == 0)
      std::copy(mean, mean + n, slot(a, bucket));
}

void RoundPipeline::post_job(int64_t items,
                             const std::function<void(int64_t)>& item) {
  HelpJob job;
  job.item = &item;
  job.items = items;
  std::unique_lock<std::mutex> lk(mu_);
  jobs_.push_back(&job);
  cv_.notify_all();
  work_job(job, lk);
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  job_left_.wait(lk, [&] { return job.helpers == 0; });
  lk.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

void RoundPipeline::work_job(HelpJob& job, std::unique_lock<std::mutex>& lk) {
  while (job.next < job.items) {
    const int64_t i = job.next++;
    lk.unlock();
    std::exception_ptr error;
    try {
      (*job.item)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error && !job.error) {
      job.error = error;
      job.next = job.items;  // hand out no further items
    }
  }
}

RoundPipeline::HelpJob* RoundPipeline::open_job() const {
  for (HelpJob* job : jobs_)
    if (job->next < job->items) return job;
  return nullptr;
}

void RoundPipeline::drain_mesh() {
  const int64_t total = plan_->buckets();
  {
    std::lock_guard<std::mutex> lk(mu_);
    COMDML_REQUIRE(static_cast<int64_t>(ready_.size()) == total,
                   "mesh mode reduces once every bucket is published");
    ready_.clear();
  }
  const comm::TransportStats before = mesh_->stats_snapshot();
  mesh_stats_ = PipelineStats{};
  mesh_stats_.buckets = total;
  double clock = before.seconds;
  for (int64_t b = 0; b < total; ++b) {
    run_bucket(b);
    const double now = mesh_->stats_snapshot().seconds;
    mesh_stats_.bucket_seconds.push_back(now - clock);
    mesh_stats_.comm_seconds += now - clock;
    clock = now;
  }
  const comm::TransportStats after = mesh_->stats_snapshot();
  mesh_stats_.steps = after.steps - before.steps;
  mesh_stats_.retransmit_bytes =
      after.retransmit_wire_bytes - before.retransmit_wire_bytes;
  for (size_t a = 0; a < after.bytes_sent.size(); ++a)
    mesh_stats_.max_bytes_sent = std::max(
        mesh_stats_.max_bytes_sent, after.bytes_sent[a] - before.bytes_sent[a]);
}

void RoundPipeline::drain() {
  if (mesh_ != nullptr) {
    drain_mesh();
    return;
  }
  const int64_t total = plan_->buckets();
  for (;;) {
    int64_t bucket = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return aborted_ || !ready_.empty() || reduced_ == total ||
               open_job() != nullptr;
      });
      if (aborted_) return;
      if (ready_.empty()) {
        // No bucket to start: help a collective already in flight.
        if (HelpJob* job = open_job()) {
          ++job->helpers;
          work_job(*job, lk);
          if (--job->helpers == 0) job_left_.notify_all();
          continue;
        }
        if (reduced_ == total) return;
        continue;  // spurious wake while another collector finishes
      }
      bucket = ready_.front();
      ready_.pop_front();
    }
    try {
      run_bucket(bucket);
    } catch (...) {
      // The failed bucket will never count as reduced; wake every other
      // collector out of its wait before the exception propagates, or the
      // round would hang instead of failing.
      abort();
      throw;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++reduced_;
      if (reduced_ == total) cv_.notify_all();
    }
  }
}

void RoundPipeline::run_round(int64_t n_tasks,
                              const std::function<void(int64_t)>& task_fn,
                              bool overlap) {
  COMDML_CHECK(n_tasks >= 0);
  const int64_t n_collectors = overlap ? num_threads() : 0;
  parallel_for(0, n_tasks + n_collectors, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      if (t >= n_tasks) {
        drain();
        continue;
      }
      try {
        task_fn(t);
      } catch (...) {
        // Wake waiting collectors before the exception propagates, or the
        // round would hang on buckets that will never become ready.
        abort();
        throw;
      }
    }
  });
}

void RoundPipeline::abort() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

PipelineStats RoundPipeline::stats() const {
  if (mesh_ != nullptr) return mesh_stats_;
  PipelineStats out;
  out.buckets = plan_->buckets();
  out.bucket_seconds.reserve(transports_.size());
  // Every endpoint of the bucket transports, the param-server star's
  // server included: its downlink is the round's largest send.
  std::vector<int64_t> per_endpoint(
      static_cast<size_t>(transports_.front()->endpoints()), 0);
  for (const auto& t : transports_) {
    const comm::TransportStats& st = t->stats();
    out.steps += st.steps;
    out.comm_seconds += st.seconds;
    out.retransmit_bytes += st.retransmit_wire_bytes;
    out.bucket_seconds.push_back(st.seconds);
    for (size_t e = 0; e < per_endpoint.size(); ++e)
      per_endpoint[e] += st.bytes_sent[e];
  }
  for (const int64_t b : per_endpoint)
    out.max_bytes_sent = std::max(out.max_bytes_sent, b);
  return out;
}

}  // namespace comdml::core
