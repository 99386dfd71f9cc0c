// Elastic-fleet tests: endpoint churn at the transport (typed
// EndpointDownError, scheduled deaths on the shared step counter, per-edge
// drop accounting), mid-collective recovery (survivor schedules
// bit-identical to from-scratch survivor-only runs, Sim/InProc parity of
// the surviving traffic), round-pipeline churn (mid-round deactivation,
// leave/rejoin, error-feedback residual persistence across rebuilds), and
// the durable fleet layer (injected agent deaths at every supported point,
// rejoin-from-consensus, checkpoint/restore resuming bit-identically).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "comm/collective.hpp"
#include "comm/transport.hpp"
#include "core/fleet_runtime.hpp"
#include "core/real_fleet.hpp"
#include "core/round_pipeline.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/bucket.hpp"
#include "nn/resnet.hpp"

namespace comdml {
namespace {

using comm::AsyncCollective;
using comm::CollectiveRequest;
using comm::EndpointDownError;
using comm::InProcTransport;
using comm::LinkGrid;
using comm::Protocol;
using comm::SimTransport;
using core::FleetOptions;
using core::RealFleet;
using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

std::vector<std::vector<double>> random_buffers(int64_t k, int64_t elems,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> bufs(static_cast<size_t>(k));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(elems));
    for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
  }
  return bufs;
}

std::vector<double*> pointers(std::vector<std::vector<double>>& bufs) {
  std::vector<double*> ptrs;
  ptrs.reserve(bufs.size());
  for (auto& b : bufs) ptrs.push_back(b.data());
  return ptrs;
}

// ---- fleet fixtures (mirrors tests/pipeline_test.cpp) -----------------------

core::ModelFactory mlp_factory(int64_t in, int64_t classes) {
  return [in, classes](Rng& rng) {
    return nn::mlp({in, 24, 24, classes}, rng);
  };
}

std::vector<data::Dataset> blob_shards(int64_t agents, int64_t per_agent,
                                       int64_t classes, int64_t features,
                                       uint64_t seed) {
  Rng rng(seed);
  const auto ds =
      data::make_blobs(agents * per_agent, classes, features, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), agents, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  return shards;
}

Topology hetero_mesh(int64_t agents) {
  std::vector<ResourceProfile> profiles;
  const std::vector<double> cpus{4.0, 0.2, 2.0, 0.5};
  for (int64_t i = 0; i < agents; ++i)
    profiles.push_back({cpus[static_cast<size_t>(i) % cpus.size()], 100.0});
  return Topology::full_mesh(profiles);
}

RealFleet make_fleet(const FleetOptions& opt, int64_t agents,
                     uint64_t data_seed = 55) {
  return RealFleet(mlp_factory(6, 3), 3,
                   blob_shards(agents, 30, 3, 6, data_seed),
                   hetero_mesh(agents), opt);
}

std::vector<Tensor> all_states(RealFleet& fleet) {
  std::vector<Tensor> all;
  for (int64_t a = 0; a < fleet.agents(); ++a) {
    auto s = nn::state_of(fleet.model(a));
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void expect_states_equal(const std::vector<Tensor>& a,
                         const std::vector<Tensor>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << ": state tensor " << i << " differs";
}

/// Post-aggregation, every live replica must hold the same consensus state
/// (dead replicas keep whatever they had when they died).
void expect_live_replicas_equal(RealFleet& fleet) {
  const auto live = fleet.live_agents();
  ASSERT_FALSE(live.empty());
  const auto ref = nn::state_of(fleet.model(live.front()));
  for (const Tensor& t : ref)
    for (const float v : t.flat())
      ASSERT_TRUE(std::isfinite(v)) << "non-finite consensus";
  for (size_t a = 1; a < live.size(); ++a)
    expect_states_equal(ref, nn::state_of(fleet.model(live[a])),
                        "live replica consensus");
}

// ---- transport endpoint churn -----------------------------------------------

TEST(ElasticTransport, DeadEndpointRaisesTypedError) {
  InProcTransport t(LinkGrid::uniform(3, 100.0));
  t.fail_endpoint(1);
  EXPECT_FALSE(t.endpoint_alive(1));
  EXPECT_TRUE(t.has_endpoint_faults());
  EXPECT_EQ(t.live_endpoints(), (std::vector<int64_t>{0, 2}));
  try {
    t.send(0, 1, 4);
    FAIL() << "send to a dead endpoint must throw";
  } catch (const EndpointDownError& e) {
    EXPECT_EQ(e.endpoint(), 1);
  }
  EXPECT_THROW(t.send(1, 0, 4), EndpointDownError);
  EXPECT_THROW((void)t.recv(1, 0), EndpointDownError);
  // Survivor traffic is unaffected.
  const std::vector<double> payload{1.0, 2.0};
  t.send(0, 2, 2, payload.data());
  t.end_step();
  EXPECT_EQ(t.recv(2, 0).payload, payload);
  // Revival restores the edge and clears the fault flag.
  t.revive_endpoint(1);
  EXPECT_TRUE(t.endpoint_alive(1));
  EXPECT_FALSE(t.has_endpoint_faults());
  t.send(0, 1, 2, payload.data());
  t.end_step();
  EXPECT_EQ(t.recv(1, 0).payload, payload);
}

TEST(ElasticTransport, ScheduledFailureFiresOnSharedStepCounter) {
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  t.schedule_endpoint_failure(1, 2);
  EXPECT_TRUE(t.endpoint_alive(1));  // no steps closed yet
  for (int step = 0; step < 2; ++step) {
    t.send(0, 1, 1);
    t.end_step();
  }
  // stats().steps == 2 >= after_steps: dead exactly now, on both flavors.
  EXPECT_FALSE(t.endpoint_alive(1));
  EXPECT_THROW(t.send(0, 1, 1), EndpointDownError);
  // reset() is "new round": the step counter restarts, so the scheduled
  // death re-arms instead of leaking last round's deadness.
  t.reset();
  EXPECT_TRUE(t.endpoint_alive(1));
  EXPECT_TRUE(t.has_endpoint_faults());
}

TEST(ElasticTransport, DeliveredMailOutlivesSenderDeath) {
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  const std::vector<double> payload{3.0, 4.0, 5.0};
  t.send(0, 1, 3, payload.data());
  t.end_step();
  t.fail_endpoint(0);
  // The message already crossed the wire; death cannot unsend it.
  EXPECT_EQ(t.recv(1, 0).payload, payload);
  // But nothing further will ever arrive from the dead peer: typed error,
  // not the schedule-bug hard failure.
  EXPECT_THROW((void)t.recv(1, 0), EndpointDownError);
  // clear_pending() empties mailboxes without touching the stats.
  t.revive_endpoint(0);
  t.send(0, 1, 3, payload.data());
  t.end_step();
  const auto messages_before = t.stats().messages;
  t.clear_pending();
  EXPECT_EQ(t.stats().messages, messages_before);
  EXPECT_ANY_THROW((void)t.recv(1, 0));  // box is empty now
}

TEST(ElasticTransport, PerEdgeDropAccountingSumsToTotal) {
  comm::FaultPlan faults;
  faults.drop_prob = 1.0;  // every message is dropped
  faults.seed = 9;
  InProcTransport t(LinkGrid::uniform(3, 100.0), nullptr, faults);
  t.send(0, 1, 4);
  t.send(0, 2, 4);
  t.send(2, 1, 4);
  t.end_step();
  EXPECT_EQ(t.stats().dropped_messages, 3);
  EXPECT_EQ(t.stats().dropped_on(0, 1), 1);
  EXPECT_EQ(t.stats().dropped_on(0, 2), 1);
  EXPECT_EQ(t.stats().dropped_on(2, 1), 1);
  EXPECT_EQ(t.stats().dropped_on(1, 0), 0);
  int64_t per_edge_total = 0;
  for (const int64_t d : t.stats().dropped_per_edge) per_edge_total += d;
  EXPECT_EQ(per_edge_total, t.stats().dropped_messages);
}

// ---- mid-collective recovery ------------------------------------------------

/// Runs a recoverable allreduce over `k` endpoints with `victim` scheduled
/// to die after `fail_after` transport steps; returns the surviving
/// buffers. `orig` receives the pristine inputs.
std::vector<std::vector<double>> recovered_allreduce(
    Protocol protocol, int64_t k, int64_t elems, int64_t victim,
    int64_t fail_after, std::vector<std::vector<double>>* orig,
    int64_t* recoveries = nullptr) {
  auto bufs = random_buffers(k, elems, 77);
  if (orig != nullptr) *orig = bufs;
  InProcTransport t(LinkGrid::uniform(k, 100.0));
  t.schedule_endpoint_failure(victim, fail_after);
  CollectiveRequest req;
  req.elems = elems;
  req.buffers = pointers(bufs);
  AsyncCollective op(protocol, t, std::move(req));
  op.enable_recovery(protocol);
  op.wait();
  if (recoveries != nullptr) *recoveries = op.recoveries();
  return bufs;
}

void expect_matches_survivor_only_run(Protocol protocol, int64_t k,
                                      int64_t victim, int64_t fail_after) {
  const int64_t elems = 13;
  std::vector<std::vector<double>> orig;
  int64_t recoveries = 0;
  const auto recovered = recovered_allreduce(protocol, k, elems, victim,
                                             fail_after, &orig, &recoveries);
  EXPECT_GE(recoveries, 1);

  std::vector<int64_t> survivors;
  for (int64_t e = 0; e < k; ++e)
    if (e != victim) survivors.push_back(e);

  // From-scratch run of the survivor schedule over a fault-free transport
  // of the same width: bit-identical.
  auto scratch = orig;
  InProcTransport clean(LinkGrid::uniform(k, 100.0));
  const auto sched =
      comm::allreduce_schedule_over(protocol, survivors, elems);
  CollectiveRequest req;
  req.elems = elems;
  req.buffers = pointers(scratch);
  AsyncCollective op(sched, clean, std::move(req));
  op.wait();
  for (const int64_t s : survivors)
    EXPECT_EQ(recovered[static_cast<size_t>(s)],
              scratch[static_cast<size_t>(s)])
        << "survivor " << s << " diverged from the survivor-only schedule";

  // And identical to a genuine (k-1)-agent fleet that never saw the dead
  // agent: rank r of the narrow run is survivor[r] of the recovered one.
  std::vector<std::vector<double>> narrow;
  narrow.reserve(survivors.size());
  for (const int64_t s : survivors)
    narrow.push_back(orig[static_cast<size_t>(s)]);
  InProcTransport small(
      LinkGrid::uniform(static_cast<int64_t>(survivors.size()), 100.0));
  CollectiveRequest nreq;
  nreq.elems = elems;
  nreq.buffers = pointers(narrow);
  AsyncCollective nop(protocol, small, std::move(nreq));
  nop.wait();
  for (size_t r = 0; r < survivors.size(); ++r)
    EXPECT_EQ(narrow[r], recovered[static_cast<size_t>(survivors[r])])
        << "rank " << r << " of the from-scratch narrow run differs";
}

TEST(CollectiveRecovery, RingSurvivorsMatchFromScratchRun) {
  expect_matches_survivor_only_run(Protocol::kRingAllReduce, 4, 2, 2);
}

TEST(CollectiveRecovery, HalvingDoublingSurvivorsMatchFromScratchRun) {
  expect_matches_survivor_only_run(Protocol::kHalvingDoublingAllReduce, 7,
                                   3, 2);
}

TEST(CollectiveRecovery, TwoAgentsLosingOneMidRing) {
  std::vector<std::vector<double>> orig;
  const auto recovered = recovered_allreduce(Protocol::kRingAllReduce, 2,
                                             9, /*victim=*/1,
                                             /*fail_after=*/1, &orig);
  // The last survivor standing completes with its own contribution as the
  // "mean" — its pristine input restored from the recovery snapshot.
  EXPECT_EQ(recovered[0], orig[0]);
}

TEST(CollectiveRecovery, AllButOneFailingLeavesOwnContribution) {
  const int64_t k = 4, elems = 11;
  auto bufs = random_buffers(k, elems, 31);
  const auto orig = bufs;
  InProcTransport t(LinkGrid::uniform(k, 100.0));
  t.schedule_endpoint_failure(1, 1);
  t.schedule_endpoint_failure(2, 2);
  t.schedule_endpoint_failure(3, 3);
  CollectiveRequest req;
  req.elems = elems;
  req.buffers = pointers(bufs);
  AsyncCollective op(Protocol::kRingAllReduce, t, std::move(req));
  op.enable_recovery(Protocol::kRingAllReduce);
  op.wait();
  EXPECT_GE(op.recoveries(), 1);
  EXPECT_EQ(bufs[0], orig[0]);
}

TEST(CollectiveRecovery, SimInProcParityForSurvivingTraffic) {
  const int64_t k = 4, elems = 13;
  auto bufs = random_buffers(k, elems, 77);
  comm::TransportStats executed, predicted;
  {
    InProcTransport t(LinkGrid::uniform(k, 100.0));
    t.schedule_endpoint_failure(2, 2);
    CollectiveRequest req;
    req.elems = elems;
    req.buffers = pointers(bufs);
    AsyncCollective op(Protocol::kRingAllReduce, t, std::move(req));
    op.enable_recovery(Protocol::kRingAllReduce);
    op.wait();
    executed = t.stats();
  }
  {
    SimTransport t(LinkGrid::uniform(k, 100.0));
    t.schedule_endpoint_failure(2, 2);
    CollectiveRequest req;  // timing-only: no buffers
    req.elems = elems;
    AsyncCollective op(Protocol::kRingAllReduce, t, std::move(req));
    op.enable_recovery(Protocol::kRingAllReduce);
    op.wait();
    predicted = t.stats();
  }
  // Deadness is a pure function of the shared step counter, so the
  // predicted schedule fails, recovers, and finishes exactly like the
  // executed one — including the pre-failure traffic that stays on the
  // books.
  EXPECT_EQ(predicted.steps, executed.steps);
  EXPECT_EQ(predicted.messages, executed.messages);
  EXPECT_EQ(predicted.total_wire_bytes, executed.total_wire_bytes);
  EXPECT_DOUBLE_EQ(predicted.seconds, executed.seconds);
  EXPECT_EQ(predicted.bytes_sent, executed.bytes_sent);
}

// ---- round-pipeline churn ---------------------------------------------------

/// Deterministic per-(agent, bucket, element) slot value.
double slot_value(int64_t agent, int64_t bucket, int64_t i) {
  return 0.25 * static_cast<double>(agent + 1) +
         0.01 * static_cast<double>(bucket) +
         0.001 * static_cast<double>(i);
}

void fill_and_contribute(core::RoundPipeline& p, int64_t agent) {
  for (int64_t b = 0; b < p.plan().buckets(); ++b) {
    double* s = p.slot(agent, b);
    for (int64_t i = 0; i < p.plan().bucket(b).elems; ++i)
      s[i] = slot_value(agent, b, i);
    p.contribute(agent, b);
  }
}

TEST(PipelineChurn, MidRoundDeathReducesOverContributors) {
  Rng rng(11);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  ASSERT_GT(plan.buckets(), 1);
  core::RoundPipeline p(3, plan, LinkGrid::uniform(3, 100.0),
                        comm::Protocol::kRingAllReduce);
  p.begin_round();
  fill_and_contribute(p, 0);
  fill_and_contribute(p, 1);
  p.deactivate(2);  // dies before publishing anything
  p.drain();
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    const double* s = p.slot(0, b);
    for (int64_t i = 0; i < plan.bucket(b).elems; ++i) {
      const double mean =
          (slot_value(0, b, i) + slot_value(1, b, i)) / 2.0;
      ASSERT_DOUBLE_EQ(s[i], mean) << "bucket " << b << " elem " << i;
    }
    // Both contributors hold the identical reduced mean.
    const double* s1 = p.slot(1, b);
    for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
      ASSERT_EQ(s[i], s1[i]);
  }
  EXPECT_EQ(p.live_agents(), (std::vector<int64_t>{0, 1}));
}

TEST(PipelineChurn, LeaveAndRejoinBetweenRounds) {
  Rng rng(12);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  core::RoundPipeline p(3, plan, LinkGrid::uniform(3, 100.0),
                        comm::Protocol::kHalvingDoublingAllReduce);
  p.leave(2);
  EXPECT_FALSE(p.agent_live(2));
  p.begin_round();
  fill_and_contribute(p, 0);
  fill_and_contribute(p, 1);
  p.drain();
  const double* s = p.slot(0, 0);
  ASSERT_DOUBLE_EQ(s[0], (slot_value(0, 0, 0) + slot_value(1, 0, 0)) / 2.0);

  p.rejoin(2);
  EXPECT_TRUE(p.agent_live(2));
  p.begin_round();
  for (int64_t a = 0; a < 3; ++a) fill_and_contribute(p, a);
  p.drain();
  s = p.slot(0, 0);
  const double mean3 = (slot_value(0, 0, 0) + slot_value(1, 0, 0) +
                        slot_value(2, 0, 0)) / 3.0;
  // Three-way sums may associate differently than the literal left-to-right
  // fold; allow one ulp-scale tolerance.
  ASSERT_NEAR(s[0], mean3, 1e-12);
}

TEST(PipelineChurn, ResidualsSurviveRebuild) {
  Rng rng(13);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  const LinkGrid grid = LinkGrid::uniform(2, 100.0);
  const auto algo = comm::AllReduceAlgo::kRing;
  const comm::Codec* codec = &comm::quantized_codec();

  core::RoundPipeline a(2, plan, grid, comm::allreduce_protocol(algo),
                        codec, /*error_feedback=*/true);
  a.begin_round();
  for (int64_t ag = 0; ag < 2; ++ag) fill_and_contribute(a, ag);
  a.drain();
  const std::vector<double> carried = a.residuals();
  ASSERT_FALSE(carried.empty());
  EXPECT_TRUE(std::any_of(carried.begin(), carried.end(),
                          [](double v) { return v != 0.0; }))
      << "int8 quantization of these payloads must leave a residual";

  // Round 2 on the original pipeline is the reference...
  a.begin_round();
  for (int64_t ag = 0; ag < 2; ++ag) fill_and_contribute(a, ag);
  a.drain();

  // ...and a rebuilt pipeline that loaded the carried residuals must
  // reproduce it bit-for-bit (this is what checkpoint/restore relies on).
  core::RoundPipeline b(2, plan, grid, comm::allreduce_protocol(algo),
                        codec, /*error_feedback=*/true);
  b.load_residuals(carried);
  b.begin_round();
  for (int64_t ag = 0; ag < 2; ++ag) fill_and_contribute(b, ag);
  b.drain();
  for (int64_t bk = 0; bk < plan.buckets(); ++bk) {
    const double* sa = a.slot(0, bk);
    const double* sb = b.slot(0, bk);
    for (int64_t i = 0; i < plan.bucket(bk).elems; ++i)
      ASSERT_EQ(sa[i], sb[i]) << "bucket " << bk << " elem " << i;
  }
  EXPECT_EQ(a.residuals(), b.residuals());
}

// ---- fleet-level churn ------------------------------------------------------

FleetOptions bucketed_options() {
  FleetOptions opt;
  opt.comms.bucket_bytes = 256;
  return opt;
}

TEST(ElasticFleet, CleanLeaveFaultDropsAgentAndRoundsContinue) {
  FleetOptions opt = bucketed_options();
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 1;
  f.round = 1;  // all death modes off: clean leave before the round
  opt.faults.failures.push_back(f);
  opt.validate();
  RealFleet fleet = make_fleet(opt, 4);
  const auto r0 = fleet.step();
  EXPECT_EQ(r0.dropped_agents, 0);
  const auto r1 = fleet.step();
  EXPECT_EQ(r1.dropped_agents, 1);
  EXPECT_EQ(fleet.live_agents(), (std::vector<int64_t>{0, 2, 3}));
  const auto r2 = fleet.step();
  EXPECT_EQ(r2.dropped_agents, 0);
  EXPECT_TRUE(std::isfinite(r2.mean_loss));
  expect_live_replicas_equal(fleet);
}

TEST(ElasticFleet, MidTrainingDeathUnderOverlapCompletes) {
  FleetOptions opt = bucketed_options();
  opt.comms.overlap = true;
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 2;
  f.round = 0;
  f.after_batches = 1;  // dies mid-training, publishes nothing
  opt.faults.failures.push_back(f);
  RealFleet fleet = make_fleet(opt, 4);
  const auto r0 = fleet.step();
  EXPECT_EQ(r0.dropped_agents, 1);
  EXPECT_FALSE(fleet.agent_alive(2));
  expect_live_replicas_equal(fleet);
  const auto r1 = fleet.step();
  EXPECT_EQ(r1.dropped_agents, 0);
  expect_live_replicas_equal(fleet);
}

TEST(ElasticFleet, SlowLossMeanCountsOnlyTheBatchesRun) {
  // A paired slow agent dying after 1 of 4 batches contributes one slow
  // loss, so it must weigh one batch in the mean — not four, which would
  // dilute mean_slow_loss to well under the clean round's value.
  FleetOptions opt;
  opt.train.batches_per_round = 4;
  RealFleet clean = make_fleet(opt, 4);
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 1;  // cpu 0.2 in hetero_mesh: the slow side of a split pair
  f.round = 0;
  f.after_batches = 1;
  opt.faults.failures.push_back(f);
  RealFleet dying = make_fleet(opt, 4);
  const auto c = clean.step();
  const auto d = dying.step();
  ASSERT_GT(d.num_pairs, 0);
  ASSERT_EQ(d.dropped_agents, 1);
  ASSERT_GT(c.mean_slow_loss, 0.0f);
  // Same pairs, same first batch; the dying round only loses the paired
  // agent's later (lower-loss) batches, so its mean sits above the clean
  // one. Dividing by four batches for it would pull the mean below.
  EXPECT_GT(d.mean_slow_loss, c.mean_slow_loss);
  EXPECT_LT(d.mean_slow_loss, 2.0f * c.mean_slow_loss);
}

TEST(ElasticFleet, SplitBackwardDeathDoesNotHang) {
  FleetOptions opt = bucketed_options();
  opt.comms.overlap = true;
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 1;  // cpu 0.2 in hetero_mesh: the slow side of a split pair
  f.round = 0;
  f.after_buckets = 1;  // dies at its second publish, mid split-backward
  opt.faults.failures.push_back(f);
  RealFleet fleet = make_fleet(opt, 4);
  const auto r0 = fleet.step();
  EXPECT_EQ(r0.dropped_agents, 1);
  EXPECT_FALSE(fleet.agent_alive(1));
  expect_live_replicas_equal(fleet);
  (void)fleet.step();
  expect_live_replicas_equal(fleet);
}

TEST(ElasticFleet, MidCollectiveDeathRecoversOverSurvivors) {
  FleetOptions opt = bucketed_options();
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 2;
  f.round = 0;
  f.at_collective_step = 1;  // endpoint dies inside the bucket collectives
  opt.faults.failures.push_back(f);
  RealFleet fleet = make_fleet(opt, 4);
  const auto r0 = fleet.step();
  EXPECT_EQ(r0.dropped_agents, 1);
  EXPECT_FALSE(fleet.agent_alive(2));
  expect_live_replicas_equal(fleet);
  const auto r1 = fleet.step();
  EXPECT_EQ(r1.dropped_agents, 0);
  EXPECT_EQ(fleet.live_agents(), (std::vector<int64_t>{0, 1, 3}));
  expect_live_replicas_equal(fleet);
}

TEST(ElasticFleet, RejoinInitializesFromConsensus) {
  FleetOptions opt = bucketed_options();
  RealFleet fleet = make_fleet(opt, 3);
  (void)fleet.step();
  fleet.leave(1);
  (void)fleet.step();
  fleet.rejoin(1);
  EXPECT_EQ(fleet.live_agents(), (std::vector<int64_t>{0, 1, 2}));
  expect_states_equal(nn::state_of(fleet.model(0)),
                      nn::state_of(fleet.model(1)),
                      "rejoined replica vs consensus");
  (void)fleet.step();  // full fleet again, no stale residuals/momentum
  expect_live_replicas_equal(fleet);
}

TEST(ElasticFleet, CheckpointRestoreResumesBitIdentical) {
  FleetOptions opt = bucketed_options();
  opt.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
  opt.comms.error_feedback = true;
  opt.train.plateau_factor = 0.5f;
  opt.train.plateau_patience = 2;

  RealFleet a = make_fleet(opt, 4);
  (void)a.step();
  (void)a.step();
  const std::vector<uint8_t> ck = a.checkpoint();
  (void)a.step();
  (void)a.step();

  RealFleet b = make_fleet(opt, 4);
  b.restore(ck);
  EXPECT_EQ(b.round(), 2);
  (void)b.step();
  (void)b.step();

  // Resuming from the checkpoint replays rounds 2-3 bit-identically:
  // models, and implicitly the momentum, batcher cursors, fleet RNG,
  // plateau state, and error-feedback residuals the rounds consumed.
  expect_states_equal(all_states(a), all_states(b),
                      "resumed fleet vs uninterrupted fleet");
  EXPECT_EQ(a.current_lr(), b.current_lr());
  EXPECT_EQ(a.round(), b.round());
}

TEST(ElasticFleet, RejoinAfterCheckpointMatchesLiveFleet) {
  FleetOptions opt = bucketed_options();
  RealFleet a = make_fleet(opt, 3);
  (void)a.step();
  a.leave(1);
  (void)a.step();
  const std::vector<uint8_t> ck = a.checkpoint();
  a.rejoin(1);
  (void)a.step();

  RealFleet b = make_fleet(opt, 3);
  b.restore(ck);
  EXPECT_EQ(b.live_agents(), (std::vector<int64_t>{0, 2}));
  b.rejoin(1);
  (void)b.step();
  expect_states_equal(all_states(a), all_states(b),
                      "rejoin-after-restore vs rejoin-without-restart");
}

// Both methods of the RealFleet engine take elastic ops through the facade.
class ElasticFleetP : public ::testing::TestWithParam<learncurve::Method> {};

TEST_P(ElasticFleetP, RuntimeForwardsElasticOps) {
  FleetOptions opt = bucketed_options();
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 1;
  f.round = 0;
  opt.faults.failures.push_back(f);
  auto runtime = core::FleetBuilder()
                     .method(GetParam())
                     .options(opt)
                     .topology(hetero_mesh(4))
                     .model(mlp_factory(6, 3), 3)
                     .shards(blob_shards(4, 30, 3, 6, 55))
                     .build();
  const auto rep = runtime.step();
  EXPECT_EQ(rep.dropped_agents, 1);
  EXPECT_EQ(runtime.live_agents(), (std::vector<int64_t>{0, 2, 3}));
  const auto ck = runtime.checkpoint();
  (void)runtime.step();
  EXPECT_EQ(runtime.rounds_executed(), 2);
  runtime.restore(ck);
  EXPECT_EQ(runtime.rounds_executed(), 1);  // resynced from the checkpoint
  runtime.rejoin(1);
  EXPECT_EQ(runtime.live_agents(), (std::vector<int64_t>{0, 1, 2, 3}));
  (void)runtime.step();
}

INSTANTIATE_TEST_SUITE_P(Methods, ElasticFleetP,
                         ::testing::Values(learncurve::Method::kComDML,
                                           learncurve::Method::kAllReduceDML));

TEST(ElasticFleet, RandomizedFaultSeedCompletes) {
  // CI randomizes (but logs) the fault point; locally the seed is fixed.
  uint64_t seed = 20240807;
  if (const char* env = std::getenv("COMDML_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  RecordProperty("comdml_fault_seed", static_cast<int>(seed % 1000000));
  std::cout << "[elastic] COMDML_FAULT_SEED=" << seed << std::endl;

  FleetOptions opt = bucketed_options();
  opt.comms.overlap = true;
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = static_cast<int64_t>(seed % 4);
  f.round = static_cast<int64_t>((seed / 4) % 2);
  switch ((seed / 8) % 3) {
    case 0: break;  // clean leave
    case 1: f.after_batches = static_cast<int64_t>(seed % 3); break;
    case 2: f.after_buckets = static_cast<int64_t>(seed % 2); break;
  }
  opt.faults.failures.push_back(f);
  opt.validate();
  RealFleet fleet = make_fleet(opt, 4);
  int64_t dropped = 0;
  for (int r = 0; r < 3; ++r) dropped += fleet.step().dropped_agents;
  EXPECT_EQ(dropped, 1) << "seed " << seed;
  EXPECT_EQ(static_cast<int64_t>(fleet.live_agents().size()), 3);
  expect_live_replicas_equal(fleet);
}

}  // namespace
}  // namespace comdml
