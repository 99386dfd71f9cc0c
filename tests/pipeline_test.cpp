// Overlapped round pipeline tests: the bucket registry (partition /
// flatten / unit-readiness), the non-blocking stepped collectives
// (AsyncCollective poll/wait vs the blocking run), bucket determinism
// (bit-identical model state across bucket sizes, thread counts, and
// overlapped-vs-sequential mode), predicted-vs-executed overlap parity,
// the timeline composer, flat (one-bucket) rounds in every pipeline mode,
// a two-shard fleet over a socket mesh, and FleetOptions validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/collective.hpp"
#include "comm/socket_transport.hpp"
#include "core/fleet_runtime.hpp"
#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "core/round_pipeline.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/bucket.hpp"
#include "nn/resnet.hpp"

namespace comdml {
namespace {

using core::FleetOptions;
using core::RealFleet;
using core::compose_overlap_timeline;
using core::set_num_threads;
using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_num_threads(0); }  // restore env default
};

// ---- shared fixtures --------------------------------------------------------

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

/// Concatenated state of every agent replica after `rounds` fleet rounds.
std::vector<Tensor> fleet_state(const FleetOptions& opt, int64_t agents,
                                int rounds, uint64_t data_seed = 55) {
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(agents, 30, 3, 6, data_seed),
                  hetero_mesh(agents), opt);
  for (int r = 0; r < rounds; ++r) (void)fleet.step();
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

// ---- BucketPlan -------------------------------------------------------------

TEST(BucketPlan, PartitionCoversStateInOrder) {
  Rng rng(1);
  const auto model = nn::small_cnn(3, 4, rng);
  const auto plan = nn::BucketPlan::build(*model, 1024);
  std::vector<Tensor*> state;
  model->collect_state(state);
  int64_t total = 0;
  for (const Tensor* t : state) total += t->size();
  EXPECT_EQ(plan.total_elems(), total);
  ASSERT_GT(plan.buckets(), 1);
  int64_t offset = 0;
  size_t tensor = 0;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    const nn::Bucket& bk = plan.bucket(b);
    EXPECT_EQ(bk.offset_elems, offset) << "bucket " << b;
    EXPECT_EQ(bk.first_tensor, tensor) << "bucket " << b;
    EXPECT_GT(bk.tensor_count, 0u);
    EXPECT_LE(bk.first_unit, bk.last_unit);
    offset += bk.elems;
    tensor += bk.tensor_count;
  }
  EXPECT_EQ(offset, total);
  EXPECT_EQ(tensor, state.size());
}

TEST(BucketPlan, RespectsByteCapExceptForOversizedTensors) {
  Rng rng(2);
  const auto model = nn::mlp({8, 64, 4}, rng);  // 8x64 weight > 1 KiB
  const int64_t cap_bytes = 1024;
  const auto plan = nn::BucketPlan::build(*model, cap_bytes);
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    const nn::Bucket& bk = plan.bucket(b);
    if (bk.elems * 4 > cap_bytes) {
      // Oversized buckets are single whole tensors.
      EXPECT_EQ(bk.tensor_count, 1u) << "bucket " << b;
    }
  }
}

TEST(BucketPlan, ZeroBucketBytesYieldsOneFlatBucket) {
  Rng rng(3);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 0);
  EXPECT_EQ(plan.buckets(), 1);
  EXPECT_EQ(plan.bucket(0).elems, plan.total_elems());
}

TEST(BucketPlan, FlattenUnflattenRoundTrips) {
  Rng rng(4);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 128);
  const auto before = nn::state_of(*model);
  std::vector<double> flat(static_cast<size_t>(plan.total_elems()));
  std::vector<Tensor*> ptrs;
  model->collect_state(ptrs);
  for (int64_t b = 0; b < plan.buckets(); ++b)
    plan.flatten_bucket(ptrs, b, flat.data() + plan.bucket(b).offset_elems);
  // Perturb, restore through unflatten, expect the original bits.
  for (Tensor* t : ptrs) t->fill(0.0f);
  for (int64_t b = 0; b < plan.buckets(); ++b)
    plan.unflatten_bucket(flat.data() + plan.bucket(b).offset_elems, b,
                          ptrs);
  const auto after = nn::state_of(*model);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

TEST(BucketPlan, UnitParamCountsMatchModel) {
  Rng rng(5);
  const auto model = nn::small_cnn(3, 4, rng);
  const auto plan = nn::BucketPlan::build(*model, 4096);
  ASSERT_EQ(plan.unit_param_counts().size(), model->size());
  size_t total = 0;
  for (size_t u = 0; u < model->size(); ++u) {
    EXPECT_EQ(plan.unit_param_counts()[u],
              model->unit(u).parameters().size());
    total += plan.unit_param_counts()[u];
  }
  EXPECT_EQ(total, model->parameters().size());
}

// ---- BucketReadyTracker -----------------------------------------------------

TEST(BucketReadyTracker, ReverseUnitWalkFiresOutputSideBucketsFirst) {
  Rng rng(6);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  ASSERT_GT(plan.buckets(), 2);
  nn::BucketReadyTracker tracker(plan);
  std::vector<int64_t> order;
  for (size_t u = model->size(); u-- > 0;)
    tracker.unit_done(u, [&](int64_t b) { order.push_back(b); });
  // Every bucket fires exactly once...
  EXPECT_EQ(tracker.fired(), plan.buckets());
  ASSERT_EQ(order.size(), static_cast<size_t>(plan.buckets()));
  // ...grouped output-side first: a bucket owned by a deeper unit always
  // fires before any bucket of a shallower unit.
  for (size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(plan.bucket(order[i - 1]).last_unit,
              plan.bucket(order[i]).last_unit);
  // finish() after a full walk has nothing left to fire.
  tracker.finish([&](int64_t) { FAIL() << "finish() re-fired a bucket"; });
}

TEST(BucketReadyTracker, BucketSpanningTwoUnitsWaitsForBoth) {
  Rng rng(7);
  const auto model = nn::mlp({4, 6, 3}, rng);  // several tensors per unit
  const auto plan = nn::BucketPlan::build(*model, 0);  // one flat bucket
  nn::BucketReadyTracker tracker(plan);
  int fired = 0;
  // Walk all units but the first: the flat bucket spans every
  // state-owning unit, so it must not fire yet.
  for (size_t u = model->size(); u-- > 1;)
    tracker.unit_done(u, [&](int64_t) { ++fired; });
  EXPECT_EQ(fired, 0);
  tracker.unit_done(0, [&](int64_t) { ++fired; });
  EXPECT_EQ(fired, 1);
}

// ---- AsyncCollective --------------------------------------------------------

class AsyncParityP
    : public ::testing::TestWithParam<std::tuple<int, comm::Protocol>> {};

TEST_P(AsyncParityP, PollDrivenRunMatchesBlockingRun) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;
  Rng rng(100 + static_cast<uint64_t>(k));
  std::vector<std::vector<double>> blocking_bufs(static_cast<size_t>(k)),
      async_bufs(static_cast<size_t>(k));
  for (int64_t a = 0; a < k; ++a) {
    auto& b = blocking_bufs[static_cast<size_t>(a)];
    b.resize(static_cast<size_t>(elems));
    for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
    async_bufs[static_cast<size_t>(a)] = b;
  }

  comm::InProcTransport blocking_t(comm::LinkGrid::uniform(k, 100.0));
  comm::CollectiveRequest blocking_req;
  blocking_req.elems = elems;
  for (auto& b : blocking_bufs) blocking_req.buffers.push_back(b.data());
  (void)comm::collective(protocol).run(blocking_t, blocking_req);

  comm::InProcTransport async_t(comm::LinkGrid::uniform(k, 100.0));
  comm::CollectiveRequest async_req;
  async_req.elems = elems;
  for (auto& b : async_bufs) async_req.buffers.push_back(b.data());
  comm::AsyncCollective op(protocol, async_t, std::move(async_req));
  int64_t polls = 0;
  while (!op.done()) {
    (void)op.poll();
    ++polls;
  }

  // Same schedule: one transport step per poll, identical accounting,
  // bitwise identical results.
  EXPECT_EQ(polls, op.total_steps());
  EXPECT_EQ(async_t.stats().steps, blocking_t.stats().steps);
  EXPECT_EQ(async_t.stats().messages, blocking_t.stats().messages);
  EXPECT_EQ(async_t.stats().total_wire_bytes,
            blocking_t.stats().total_wire_bytes);
  EXPECT_DOUBLE_EQ(async_t.stats().seconds, blocking_t.stats().seconds);
  for (int64_t a = 0; a < k; ++a)
    EXPECT_EQ(async_bufs[static_cast<size_t>(a)],
              blocking_bufs[static_cast<size_t>(a)])
        << "agent " << a;
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AsyncParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 12),
        ::testing::Values(comm::Protocol::kRingAllReduce,
                          comm::Protocol::kHalvingDoublingAllReduce)));

TEST(AsyncCollective, SingleAgentIsImmediatelyDone) {
  comm::InProcTransport t(comm::LinkGrid::uniform(1, 100.0));
  std::vector<double> buf{1.0, 2.0};
  comm::CollectiveRequest req;
  req.elems = 2;
  req.buffers = {buf.data()};
  comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, t,
                           std::move(req));
  EXPECT_TRUE(op.done());
  op.wait();
  EXPECT_EQ(buf[0], 1.0);  // untouched
}

TEST(AsyncCollective, RejectsProtocolsWithoutSteppedSchedule) {
  EXPECT_THROW((void)comm::allreduce_schedule(comm::Protocol::kGossip, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(
      (void)comm::allreduce_schedule(comm::Protocol::kParamServer, 4, 8),
      std::invalid_argument);
  comm::SimTransport t(comm::LinkGrid::uniform(4, 100.0));
  for (const auto p : {comm::Protocol::kGossip, comm::Protocol::kParamServer})
    EXPECT_THROW(comm::AsyncCollective(p, t, comm::CollectiveRequest{}),
                 std::invalid_argument);
}

// ---- bucketed determinism at the collective layer ---------------------------

TEST(BucketDeterminism, HalvingDoublingBucketedMatchesFlatBitwise) {
  // Halving/doubling reduces every element through the same balanced
  // binary agent tree regardless of segmentation, so bucketing must not
  // change a single bit of the result.
  for (const int64_t k : {4, 7}) {
    const int64_t elems = 257;
    Rng rng(200 + static_cast<uint64_t>(k));
    std::vector<std::vector<double>> base(static_cast<size_t>(k));
    for (auto& b : base) {
      b.resize(static_cast<size_t>(elems));
      for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
    }

    auto flat = base;
    comm::InProcTransport flat_t(comm::LinkGrid::uniform(k, 100.0));
    comm::CollectiveRequest flat_req;
    flat_req.elems = elems;
    for (auto& b : flat) flat_req.buffers.push_back(b.data());
    (void)comm::collective(comm::Protocol::kHalvingDoublingAllReduce)
        .run(flat_t, flat_req);

    for (const int64_t bucket_elems : {32, 100, 257}) {
      auto bucketed = base;
      for (int64_t begin = 0; begin < elems; begin += bucket_elems) {
        const int64_t len = std::min(bucket_elems, elems - begin);
        comm::InProcTransport t(comm::LinkGrid::uniform(k, 100.0));
        comm::CollectiveRequest req;
        req.elems = len;
        for (auto& b : bucketed) req.buffers.push_back(b.data() + begin);
        (void)comm::collective(comm::Protocol::kHalvingDoublingAllReduce)
            .run(t, req);
      }
      for (int64_t a = 0; a < k; ++a)
        EXPECT_EQ(bucketed[static_cast<size_t>(a)],
                  flat[static_cast<size_t>(a)])
            << "k=" << k << " bucket_elems=" << bucket_elems << " agent "
            << a;
    }
  }
}

// ---- timeline composer ------------------------------------------------------

TEST(OverlapTimeline, SerializesBucketsOnTheLink) {
  // All ready at t=10: pure pipeline after the barrier.
  const auto tl = compose_overlap_timeline({10, 10, 10}, {2, 3, 1});
  EXPECT_DOUBLE_EQ(tl.start[0], 10.0);
  EXPECT_DOUBLE_EQ(tl.finish[0], 12.0);
  EXPECT_DOUBLE_EQ(tl.start[1], 12.0);
  EXPECT_DOUBLE_EQ(tl.finish[1], 15.0);
  EXPECT_DOUBLE_EQ(tl.finish[2], 16.0);
  EXPECT_DOUBLE_EQ(tl.span, 16.0);
}

TEST(OverlapTimeline, EarlyBucketsHideBehindCompute) {
  // Bucket 2 ready first (output side), bucket 0 last: comm starts at 4
  // and overlaps the remaining compute; only the tail is exposed.
  const auto tl = compose_overlap_timeline({10, 7, 4}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(tl.start[2], 4.0);
  EXPECT_DOUBLE_EQ(tl.start[1], 7.0);
  EXPECT_DOUBLE_EQ(tl.start[0], 10.0);
  EXPECT_DOUBLE_EQ(tl.span, 12.0);  // vs 10 + 6 = 16 sequential
}

TEST(OverlapTimeline, LinkContentionQueuesReadyBuckets) {
  const auto tl = compose_overlap_timeline({0, 1, 2}, {5, 5, 5});
  EXPECT_DOUBLE_EQ(tl.start[1], 5.0);
  EXPECT_DOUBLE_EQ(tl.start[2], 10.0);
  EXPECT_DOUBLE_EQ(tl.span, 15.0);
}

// ---- RoundPipeline ----------------------------------------------------------

TEST(RoundPipeline, ConcurrentProducersAndCollectorsReduceEveryBucket) {
  Rng rng(8);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 128);
  const int64_t k = 6;
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kHalvingDoublingAllReduce);

  // Expected mean of the synthetic per-agent payloads.
  const int64_t n = plan.total_elems();
  std::vector<double> expected(static_cast<size_t>(n), 0.0);
  const auto value_of = [&](int64_t agent, int64_t i) {
    return static_cast<double>(agent + 1) * 0.5 +
           static_cast<double>(i % 17) * 0.25;
  };
  for (int64_t a = 0; a < k; ++a)
    for (int64_t i = 0; i < n; ++i)
      expected[static_cast<size_t>(i)] += value_of(a, i);
  for (auto& v : expected) v /= static_cast<double>(k);

  // Producers contribute from their own threads while two collectors
  // drain concurrently.
  std::vector<std::thread> threads;
  for (int64_t a = 0; a < k; ++a) {
    threads.emplace_back([&, a] {
      for (int64_t b = plan.buckets(); b-- > 0;) {
        const nn::Bucket& bk = plan.bucket(b);
        double* slot = pipeline.slot(a, b);
        for (int64_t i = 0; i < bk.elems; ++i)
          slot[i] = value_of(a, bk.offset_elems + i);
        pipeline.contribute(a, b);
      }
    });
  }
  for (int c = 0; c < 2; ++c)
    threads.emplace_back([&] { pipeline.drain(); });
  for (auto& t : threads) t.join();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.buckets, plan.buckets());
  EXPECT_GT(stats.comm_seconds, 0.0);
  EXPECT_GT(stats.max_bytes_sent, 0);
  for (int64_t a = 0; a < k; ++a)
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      const nn::Bucket& bk = plan.bucket(b);
      const double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < bk.elems; ++i)
        EXPECT_NEAR(slot[i],
                    expected[static_cast<size_t>(bk.offset_elems + i)],
                    1e-12)
            << "agent " << a << " bucket " << b << " elem " << i;
    }
}

TEST(RoundPipeline, BeginRoundResetsForReuse) {
  Rng rng(9);
  const auto model = nn::mlp({4, 8, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  const int64_t k = 3;
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kRingAllReduce);
  for (int round = 0; round < 3; ++round) {
    pipeline.begin_round();
    for (int64_t a = 0; a < k; ++a) {
      for (int64_t b = 0; b < plan.buckets(); ++b) {
        double* slot = pipeline.slot(a, b);
        for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
          slot[i] = static_cast<double>(a);
      }
      pipeline.contribute_all(a);
    }
    pipeline.drain();
    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.buckets, plan.buckets());
    // Stats are per round, not cumulative.
    EXPECT_EQ(stats.steps, plan.buckets() * 2 * (k - 1));  // ring steps
    for (int64_t a = 0; a < k; ++a)
      EXPECT_NEAR(pipeline.slot(a, 0)[0], 1.0, 1e-12);  // mean of 0,1,2
  }
}

TEST(RoundPipeline, ParamServerStatsCountTheServerDownlink) {
  // A param-server star has agents + 1 endpoints, and the round's largest
  // send is the server's broadcast back to the contributors. A deactivated
  // agent is left out of the weighted mean.
  Rng rng(10);
  const auto model = nn::mlp({4, 8, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 0);
  const int64_t k = 3;
  core::RoundPipeline pipeline(
      k, plan, comm::LinkGrid::star({100.0, 100.0, 100.0}),
      comm::Protocol::kParamServer, nullptr, false, {}, false,
      {1.0, 3.0, 4.0});
  const int64_t n = plan.total_elems();
  pipeline.deactivate(2);
  for (int64_t a = 0; a < 2; ++a) {
    std::fill(pipeline.slot(a, 0), pipeline.slot(a, 0) + n,
              static_cast<double>(a));
    pipeline.contribute(a, 0);
  }
  pipeline.drain();
  for (int64_t a = 0; a < 2; ++a)
    EXPECT_DOUBLE_EQ(pipeline.slot(a, 0)[n - 1], 0.75);  // (0 + 3) / 4
  EXPECT_EQ(pipeline.stats().max_bytes_sent, 2 * comm::fp32_wire_bytes(n));
}

/// fp32 wire codec whose encode_copy throws on its `fail_at`-th call (the
/// transport encodes every payload-moving send through encode_copy).
class ThrowingCodec final : public comm::Codec {
 public:
  explicit ThrowingCodec(int64_t fail_at) : fail_at_(fail_at) {}
  [[nodiscard]] std::string_view name() const override { return "throwing"; }
  [[nodiscard]] int64_t wire_bytes(int64_t elems,
                                   const double* /*data*/) const override {
    return comm::fp32_wire_bytes(elems);
  }
  [[nodiscard]] int64_t encode_copy(const double* src, double* dst,
                                    int64_t elems) const override {
    if (calls_.fetch_add(1) + 1 == fail_at_)
      throw std::runtime_error("injected encode failure");
    return Codec::encode_copy(src, dst, elems);
  }

 private:
  int64_t fail_at_;
  mutable std::atomic<int64_t> calls_{0};
};

// Collectors help each other through posted step jobs; an exception raised
// by an item (on a helper or on the poster) must surface from run_round —
// no hang, no terminate — and leave a pipeline the next round reduces on.
TEST(RoundPipeline, StepItemExceptionRethrowsAndTheNextRoundReduces) {
  ThreadCountGuard guard;
  set_num_threads(4);
  Rng rng(21);
  auto model = nn::mlp({64, 128, 10}, rng);
  // One 9610-element bucket: every halving/doubling step moves enough to
  // fan out, so the throwing send runs as an item of a posted job.
  const auto plan = nn::BucketPlan::build(*model, 0);
  const int64_t k = 8;
  ThrowingCodec codec(/*fail_at=*/20);
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kHalvingDoublingAllReduce,
                               &codec);
  const auto value_of = [](int64_t agent, int64_t i) {
    return static_cast<double>(agent) + 0.125 * static_cast<double>(i % 9);
  };
  const auto task = [&](int64_t a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      const nn::Bucket& bk = plan.bucket(b);
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < bk.elems; ++i)
        slot[i] = value_of(a, bk.offset_elems + i);
    }
    pipeline.contribute_all(a);
  };
  EXPECT_THROW(pipeline.run_round(k, task, /*overlap=*/true),
               std::runtime_error);

  pipeline.begin_round();
  pipeline.run_round(k, task, /*overlap=*/true);
  EXPECT_EQ(pipeline.stats().buckets, plan.buckets());
  for (int64_t a = 0; a < k; ++a)
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      const nn::Bucket& bk = plan.bucket(b);
      const double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < bk.elems; ++i) {
        double mean = 0.0;
        for (int64_t c = 0; c < k; ++c) mean += value_of(c, bk.offset_elems + i);
        ASSERT_NEAR(slot[i], mean / static_cast<double>(k), 1e-12)
            << "agent " << a << " bucket " << b << " elem " << i;
      }
    }
}

// Payload buffers cycle through the transport's free list: it refills every
// round (delivered payloads come back) and never grows past its bound.
TEST(AsyncCollective, PayloadFreeListStaysWithinItsBoundOverFiftyRounds) {
  ThreadCountGuard guard;
  set_num_threads(4);
  const int64_t k = 6, elems = 9000;
  comm::InProcTransport t(comm::LinkGrid::uniform(k, 100.0),
                          &comm::quantized_codec());
  const comm::SteppedSchedule sched = comm::allreduce_schedule(
      comm::Protocol::kHalvingDoublingAllReduce, k, elems);
  std::vector<double> slab(static_cast<size_t>(k * elems));
  for (int round = 0; round < 50; ++round) {
    t.reset();
    for (size_t i = 0; i < slab.size(); ++i)
      slab[i] = static_cast<double>((i * 7 + static_cast<size_t>(round)) % 13);
    comm::CollectiveRequest req;
    req.elems = elems;
    for (int64_t a = 0; a < k; ++a) req.buffers.push_back(slab.data() + a * elems);
    comm::AsyncCollective op(sched, t, std::move(req));
    op.wait();
    EXPECT_GT(t.pooled_payloads(), 0u) << "round " << round;
    EXPECT_LE(t.pooled_payloads(), t.payload_pool_bound()) << "round " << round;
  }
  EXPECT_EQ(t.payload_pool_bound(), static_cast<size_t>(2 * k));
}

// ---- predicted vs executed overlap parity -----------------------------------

class OverlapParityP : public ::testing::TestWithParam<comm::Protocol> {};

TEST_P(OverlapParityP, SimPredictsExecutedBucketScheduleExactly) {
  const comm::Protocol protocol = GetParam();
  const comm::AllReduceAlgo algo =
      protocol == comm::Protocol::kRingAllReduce
          ? comm::AllReduceAlgo::kRing
          : comm::AllReduceAlgo::kHalvingDoubling;
  Rng rng(11);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  const int64_t k = 5;
  const auto grid = comm::LinkGrid::uniform(k, 40.0);

  // Predicted: timing-only SimTransport run of each bucket's schedule.
  std::vector<double> predicted_seconds;
  std::vector<int64_t> predicted_steps;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    comm::SimTransport sim(grid);
    comm::CollectiveRequest req;
    req.elems = plan.bucket(b).elems;
    comm::AsyncCollective op(protocol, sim, std::move(req));
    op.wait();
    predicted_seconds.push_back(sim.stats().seconds);
    predicted_steps.push_back(sim.stats().steps);
  }

  // Executed: the concurrent pipeline with real payloads.
  core::RoundPipeline pipeline(k, plan, grid,
                               comm::allreduce_protocol(algo));
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a + i % 7);
      pipeline.contribute(a, b);
    }
  }
  pipeline.drain();
  const auto stats = pipeline.stats();

  // Per-bucket predicted clock == executed clock, so any timeline composed
  // from ready times is identical for the predicted and executed schedule.
  ASSERT_EQ(stats.bucket_seconds.size(), predicted_seconds.size());
  int64_t executed_steps = 0;
  for (size_t b = 0; b < predicted_seconds.size(); ++b)
    EXPECT_DOUBLE_EQ(stats.bucket_seconds[b], predicted_seconds[b])
        << "bucket " << b;
  for (const int64_t s : predicted_steps) executed_steps += s;
  EXPECT_EQ(stats.steps, executed_steps);

  const std::vector<double> ready(predicted_seconds.size(), 1.0);
  const auto predicted_tl = compose_overlap_timeline(ready, predicted_seconds);
  const auto executed_tl =
      compose_overlap_timeline(ready, stats.bucket_seconds);
  EXPECT_DOUBLE_EQ(predicted_tl.span, executed_tl.span);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, OverlapParityP,
    ::testing::Values(comm::Protocol::kRingAllReduce,
                      comm::Protocol::kHalvingDoublingAllReduce));

// ---- compressed bucket collectives ------------------------------------------

/// Reference fixture for codec tests: one pipeline round over synthetic
/// per-agent payloads; returns executed max bytes sent by any agent.
int64_t pipeline_round_bytes(const nn::BucketPlan& plan, int64_t k,
                             const comm::Codec* codec, bool error_feedback) {
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kHalvingDoublingAllReduce, codec,
                               error_feedback);
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a + 1) * 0.25 +
                  static_cast<double>(i % 13) * 0.125;
    }
    pipeline.contribute_all(a);
  }
  pipeline.drain();
  return pipeline.stats().max_bytes_sent;
}

TEST(CompressedBuckets, QuantizedBytesPerRoundAtLeast3xUnderFp32) {
  // The CI regression guard: executed allreduce bytes_per_round of the
  // quantized bucket collectives must stay under 30 % of (i.e. >= 3.3x
  // below) the fp32 wire, at realistic bucket sizes.
  Rng rng(12);
  const auto model = nn::mlp({32, 128, 128, 10}, rng);
  const auto plan = nn::BucketPlan::build(*model, 16 * 1024);
  ASSERT_GT(plan.buckets(), 1);
  for (const int64_t k : {4, 8}) {
    const int64_t fp32_bytes = pipeline_round_bytes(plan, k, nullptr, false);
    const int64_t int8_bytes =
        pipeline_round_bytes(plan, k, &comm::quantized_codec(), true);
    EXPECT_GT(fp32_bytes, 0);
    EXPECT_LE(10 * int8_bytes, 3 * fp32_bytes)
        << "k=" << k << ": quantized wire " << int8_bytes
        << " B exceeds 30% of fp32 " << fp32_bytes << " B";
  }
}

TEST(CompressedBuckets, SimPredictsExecutedQuantizedBucketsExactly) {
  // Per-bucket SimTransport predictions (timing-only, quantized codec)
  // equal the InProc pipeline's executed bytes and modeled clock.
  Rng rng(13);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  const int64_t k = 5;
  const auto grid = comm::LinkGrid::uniform(k, 40.0);

  std::vector<double> predicted_seconds;
  std::vector<int64_t> predicted_bytes;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    comm::SimTransport sim(grid, &comm::quantized_codec());
    comm::CollectiveRequest req;
    req.elems = plan.bucket(b).elems;
    comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, sim,
                             std::move(req));
    op.wait();
    predicted_seconds.push_back(sim.stats().seconds);
    predicted_bytes.push_back(sim.stats().max_bytes_sent());
  }

  core::RoundPipeline pipeline(k, plan, grid,
                               comm::Protocol::kHalvingDoublingAllReduce,
                               &comm::quantized_codec(), true);
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a) - 0.3 * static_cast<double>(i % 5);
      pipeline.contribute(a, b);
    }
  }
  pipeline.drain();
  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.bucket_seconds.size(), predicted_seconds.size());
  int64_t predicted_max_sent = 0;
  for (size_t b = 0; b < predicted_seconds.size(); ++b) {
    EXPECT_DOUBLE_EQ(stats.bucket_seconds[b], predicted_seconds[b])
        << "bucket " << b;
    predicted_max_sent += predicted_bytes[b];
  }
  // Every agent sends the same bytes on a uniform grid, so the pipeline's
  // per-agent sum equals the summed per-bucket prediction.
  EXPECT_EQ(stats.max_bytes_sent, predicted_max_sent);
}

TEST(CompressedBuckets, ErrorFeedbackDrivesRepeatedRoundsToTheMean) {
  // k=1 isolates the publish-time quantization: each round the pipeline
  // quantizes the published payload once and carries the error. With
  // error feedback the time-average of the delivered payloads converges
  // to the true value well below one-shot int8 resolution; without it the
  // one-shot bias persists forever.
  Rng rng(14);
  const auto model = nn::mlp({4, 8, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 0);  // one bucket
  const int64_t n = plan.total_elems();
  std::vector<double> truth(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    truth[static_cast<size_t>(i)] =
        0.731 * std::sin(0.37 * static_cast<double>(i)) + 0.113;

  for (const bool ef : {true, false}) {
    core::RoundPipeline pipeline(1, plan, comm::LinkGrid::uniform(1, 100.0),
                                 comm::Protocol::kHalvingDoublingAllReduce,
                                 &comm::quantized_codec(), ef);
    constexpr int kRounds = 64;
    std::vector<double> mean(static_cast<size_t>(n), 0.0);
    for (int r = 0; r < kRounds; ++r) {
      pipeline.begin_round();
      std::copy(truth.begin(), truth.end(), pipeline.slot(0, 0));
      pipeline.contribute_all(0);
      pipeline.drain();
      const double* out = pipeline.slot(0, 0);
      for (int64_t i = 0; i < n; ++i)
        mean[static_cast<size_t>(i)] += out[i] / kRounds;
    }
    double worst = 0.0;
    for (int64_t i = 0; i < n; ++i)
      worst = std::max(worst, std::fabs(mean[static_cast<size_t>(i)] -
                                        truth[static_cast<size_t>(i)]));
    const double one_shot = 0.85 / 127.0;  // int8 step of the range
    if (ef) {
      EXPECT_LT(worst, one_shot / 4) << "error feedback should average out";
    } else {
      EXPECT_GT(worst, 1e-9) << "without EF the quantization bias persists";
    }
  }
}

TEST(CompressedBuckets, QuantizedFleetTracksFp32Accuracy) {
  // Tier-1 convergence: a quantized+error-feedback fleet must land within
  // tolerance of the fp32 fleet's accuracy on the blob workload.
  const auto run = [&](FleetOptions::CommOptions::Codec codec) {
    FleetOptions opt;
    opt.seed = 17;
    opt.comms.bucket_bytes = 512;
    opt.comms.overlap = true;
    opt.comms.codec = codec;
    opt.comms.error_feedback = true;
    RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 91),
                    hetero_mesh(4), opt);
    for (int r = 0; r < 12; ++r) (void)fleet.step();
    return fleet.evaluate(blob_shards(4, 40, 3, 6, 91)[0]);
  };
  const float fp32_acc = run(FleetOptions::CommOptions::Codec::kFp32);
  const float int8_acc = run(FleetOptions::CommOptions::Codec::kInt8Quantized);
  EXPECT_GT(fp32_acc, 0.6f);  // the workload itself converges
  EXPECT_NEAR(int8_acc, fp32_acc, 0.15f);
}

TEST(CompressedBuckets, IdentityCodecStaysBitIdenticalRegardlessOfEf) {
  // codec = kFp32 must be bit-identical to the pre-codec rounds whatever
  // the error_feedback knob says (EF is a no-op for a lossless codec).
  FleetOptions base;
  base.seed = 99;
  base.comms.bucket_bytes = 512;
  const auto reference = fleet_state(base, 4, 2);
  for (const bool ef : {false, true}) {
    FleetOptions opt = base;
    opt.comms.codec = FleetOptions::CommOptions::Codec::kFp32;
    opt.comms.error_feedback = ef;
    expect_states_equal(reference, fleet_state(opt, 4, 2),
                        "identity codec with/without error feedback");
  }
}

// ---- split-trainer layerwise readiness --------------------------------------

std::vector<int64_t> batch_labels(int64_t samples, int64_t classes,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> labels(static_cast<size_t>(samples));
  for (auto& l : labels) l = rng.below(classes);
  return labels;
}

TEST(SplitNotify, MatchesTrainBatchBitwise) {
  // Per-unit stepping during both backwards is bit-identical to the plain
  // two-phase split step: per-parameter SGD math is order-independent.
  const tensor::Shape in_shape{6};
  const int64_t classes = 3, samples = 10;
  Rng data_rng(21);
  const Tensor x = data_rng.normal_tensor({samples, 6}, 0, 1);
  const auto labels = batch_labels(samples, classes, 22);

  Rng m1(5), m2(5), t1(6), t2(6);
  const auto model_a = nn::mlp({6, 16, 12, classes}, m1);
  const auto model_b = nn::mlp({6, 16, 12, classes}, m2);
  const auto plan = nn::BucketPlan::build(*model_b, 64);
  const size_t cut = 2;
  nn::SGD::Options sgd{0.05f, 0.9f, 0.0f};
  nn::LocalLossSplitTrainer plain(*model_a, cut, in_shape, classes, t1, sgd);
  nn::LocalLossSplitTrainer notify(*model_b, cut, in_shape, classes, t2,
                                   sgd);

  for (int b = 0; b < 3; ++b) {
    const auto sa = plain.train_batch(x, labels);
    const auto sb = notify.train_batch_notify(
        x, labels, plan.unit_param_counts(), nullptr);
    EXPECT_EQ(sa.slow_loss, sb.slow_loss) << "batch " << b;
    EXPECT_EQ(sa.fast_loss, sb.fast_loss) << "batch " << b;
  }
  const auto state_a = nn::state_of(*model_a);
  const auto state_b = nn::state_of(*model_b);
  expect_states_equal(state_a, state_b, "split notify vs plain");
}

TEST(SplitNotify, PrefixUnitsFinalizeBeforeSuffixBackward) {
  // The layerwise window: slow prefix units finalize (reverse order)
  // during the slow-side backward, before any fast suffix unit — so
  // prefix-owned buckets can ship while the split tail still computes.
  const tensor::Shape in_shape{6};
  const int64_t classes = 3;
  Rng data_rng(23), mrng(7), trng(8);
  const auto model = nn::mlp({6, 16, 12, classes}, mrng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  const size_t cut = 2;
  nn::LocalLossSplitTrainer split(*model, cut, in_shape, classes, trng,
                                  nn::SGD::Options{0.05f, 0.9f, 0.0f});
  const Tensor x = data_rng.normal_tensor({8, 6}, 0, 1);
  const auto labels = batch_labels(8, classes, 24);

  std::vector<size_t> order;
  nn::BucketReadyTracker tracker(plan);
  int64_t fired_before_suffix = 0;
  bool suffix_started = false;
  (void)split.train_batch_notify(
      x, labels, plan.unit_param_counts(), [&](size_t u) {
        if (u >= cut) suffix_started = true;
        order.push_back(u);
        tracker.unit_done(u, [&](int64_t) {
          if (!suffix_started) ++fired_before_suffix;
        });
      });

  ASSERT_EQ(order.size(), model->size());
  std::vector<size_t> expected;
  for (size_t u = cut; u-- > 0;) expected.push_back(u);
  for (size_t u = model->size(); u-- > cut;) expected.push_back(u);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(tracker.fired(), plan.buckets());
  EXPECT_GE(fired_before_suffix, 1)
      << "no bucket published during the slow-side backward";
}

TEST(SplitLayerwise, SlowReplicasPublishBucketsBeforeTaskEnd) {
  // Fleet-level acceptance: under overlap, split-trained slow replicas
  // publish at least one bucket while their split backward still runs
  // (instead of everything at task end, which collapsed the window).
  FleetOptions opt;
  opt.seed = 3;
  opt.comms.bucket_bytes = 256;
  opt.comms.overlap = true;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 30, 3, 6, 21),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  ASSERT_GT(stats.num_pairs, 0) << "fixture must produce split pairs";
  EXPECT_GE(stats.split_early_buckets, 1);
}

// ---- fleet-level bucket determinism -----------------------------------------

TEST(FleetBucketDeterminism, BucketedSequentialMatchesFlatBitwise) {
  // Default halving/doubling aggregation: bucketing must not change a bit.
  FleetOptions flat;
  flat.seed = 99;
  const auto base = fleet_state(flat, 4, 2);
  for (const int64_t bucket_bytes : {256, 1024, 1 << 20}) {
    FleetOptions opt;
    opt.seed = 99;
    opt.comms.bucket_bytes = bucket_bytes;
    expect_states_equal(base, fleet_state(opt, 4, 2), "bucket_bytes sweep");
  }
}

TEST(FleetBucketDeterminism, OverlappedMatchesSequentialBitwise) {
  for (const auto algo :
       {comm::AllReduceAlgo::kHalvingDoubling, comm::AllReduceAlgo::kRing}) {
    FleetOptions seq;
    seq.seed = 99;
    seq.comms.aggregation = algo;
    seq.comms.bucket_bytes = 512;
    FleetOptions ovl = seq;
    ovl.comms.overlap = true;
    expect_states_equal(fleet_state(seq, 4, 2), fleet_state(ovl, 4, 2),
                        "overlap vs sequential");
  }
}

TEST(FleetBucketDeterminism, OverlappedBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  FleetOptions opt;
  opt.seed = 99;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  set_num_threads(1);
  const auto s1 = fleet_state(opt, 4, 2);
  set_num_threads(8);
  const auto s8 = fleet_state(opt, 4, 2);
  expect_states_equal(s1, s8, "1 vs 8 threads");
}

TEST(FleetBucketDeterminism, DifferentialPrivacyBucketedMatchesFlat) {
  FleetOptions flat;
  flat.seed = 7;
  flat.privacy.technique = learncurve::PrivacyTechnique::kDifferentialPrivacy;
  flat.privacy.dp_epsilon = 2.0;
  flat.privacy.dp_sensitivity = 1e-4;
  FleetOptions bucketed = flat;
  bucketed.comms.bucket_bytes = 512;
  bucketed.comms.overlap = true;  // DP narrows to post-noise publication
  expect_states_equal(fleet_state(flat, 4, 2), fleet_state(bucketed, 4, 2),
                      "DP bucketed vs flat");
}

TEST(FleetBucketDeterminism, OverlappedRoundReportsPipelineShape) {
  FleetOptions opt;
  opt.seed = 3;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 30, 3, 6, 21),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  EXPECT_GT(stats.buckets, 1);
  EXPECT_GT(stats.aggregation_seconds, 0.0);
  EXPECT_GT(stats.aggregation_bytes, 0);
  // Overlap can only hide aggregation time, never add to it...
  EXPECT_LE(stats.exposed_comm_seconds, stats.aggregation_seconds + 1e-12);
  EXPECT_GE(stats.exposed_comm_seconds, 0.0);
  // ...and the modeled round is never shorter than its parts allow.
  EXPECT_GE(stats.sim_time, stats.exposed_comm_seconds);
}

TEST(FleetBucketDeterminism, BaselineAllReduceBucketedMatchesFlat) {
  const auto run = [&](int64_t bucket_bytes, bool overlap) {
    FleetOptions opt;
    opt.seed = 31;
    opt.comms.bucket_bytes = bucket_bytes;
    opt.comms.overlap = overlap;
    auto fleet = core::FleetBuilder()
                     .method(learncurve::Method::kAllReduceDML)
                     .options(opt)
                     .topology(hetero_mesh(4))
                     .model(mlp_factory(6, 3), 3)
                     .shards(blob_shards(4, 30, 3, 6, 41))
                     .build();
    for (int r = 0; r < 2; ++r) (void)fleet.step();
    std::vector<Tensor> all;
    for (int64_t a = 0; a < fleet.agents(); ++a) {
      auto s = nn::state_of(fleet.model(a));
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };
  const auto flat = run(0, false);
  expect_states_equal(flat, run(512, false), "baseline bucketed");
  expect_states_equal(flat, run(512, true), "baseline overlapped");
}

// ---- flat rounds are one-bucket pipeline rounds -----------------------------

/// Per-round stats and the final concatenated agent state of a 3-round
/// fleet run.
struct ThreeRounds {
  std::vector<RealFleet::RoundStats> rounds;
  std::vector<Tensor> state;
};

ThreeRounds run_three_rounds(RealFleet& fleet) {
  ThreeRounds out;
  for (int r = 0; r < 3; ++r) out.rounds.push_back(fleet.step());
  for (int64_t a = 0; a < fleet.agents(); ++a) {
    auto s = nn::state_of(fleet.model(a));
    out.state.insert(out.state.end(), s.begin(), s.end());
  }
  return out;
}

ThreeRounds run_three_rounds(const FleetOptions& opt, int64_t agents) {
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(agents, 30, 3, 6, 55),
                  hetero_mesh(agents), opt);
  return run_three_rounds(fleet);
}

TEST(FlatRoundModes, EveryPipelineModeRunsAtZeroBucketBytes) {
  // bucket_bytes == 0 is one whole-state bucket of the same pipeline, so
  // every mode the bucketed rounds support works on a flat fleet too.
  FleetOptions flat;
  flat.seed = 99;
  const ThreeRounds fp32 = run_three_rounds(flat, 4);
  using Failure = FleetOptions::FaultOptions::AgentFailure;
  const auto fail_at = [](int64_t after_buckets, int64_t at_step) {
    Failure f;
    f.agent = 1;  // cpu 0.2 in hetero_mesh: the slow side of a split pair
    f.round = 1;
    f.after_buckets = after_buckets;
    f.at_collective_step = at_step;
    return f;
  };
  struct Mode {
    const char* name;
    int64_t agents;
    std::function<void(FleetOptions&)> configure;
    std::function<void(const ThreeRounds&)> check;
  };
  const std::vector<Mode> modes = {
      {"int8+ef", 4,
       [](FleetOptions& o) {
         o.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
         o.comms.error_feedback = true;
       },
       [&](const ThreeRounds& run) {
         for (size_t r = 0; r < run.rounds.size(); ++r)
           EXPECT_LE(10 * run.rounds[r].aggregation_bytes,
                     3 * fp32.rounds[r].aggregation_bytes)
               << "round " << r;
       }},
      {"deadline", 5,  // odd fleet: pairing leaves one solo to defer
       [](FleetOptions& o) { o.faults.deadline_sec = 1e-9; },
       [](const ThreeRounds& run) {
         for (const auto& st : run.rounds) EXPECT_GT(st.late_agents, 0);
       }},
      {":k0", 4,
       [&](FleetOptions& o) { o.faults.failures.push_back(fail_at(0, -1)); },
       [](const ThreeRounds& run) {
         EXPECT_EQ(run.rounds[1].dropped_agents, 1);
       }},
      {":c1", 4,
       [&](FleetOptions& o) { o.faults.failures.push_back(fail_at(-1, 1)); },
       [](const ThreeRounds& run) {
         EXPECT_EQ(run.rounds[1].dropped_agents, 1);
       }},
      {"overlap", 4, [](FleetOptions& o) { o.comms.overlap = true; },
       [&](const ThreeRounds& run) {
         expect_states_equal(fp32.state, run.state, "overlap vs sequential");
       }},
  };
  for (const Mode& m : modes) {
    SCOPED_TRACE(m.name);
    FleetOptions opt = flat;
    m.configure(opt);
    ASSERT_NO_THROW(opt.validate());
    const ThreeRounds run = run_three_rounds(opt, m.agents);
    for (const auto& st : run.rounds) {
      EXPECT_EQ(st.buckets, 1);
      EXPECT_TRUE(std::isfinite(st.mean_loss));
    }
    m.check(run);
  }
}

TEST(FlatRoundModes, SingleShardOwnedRowsMatchThePipelineBitwise) {
  // A single-shard context (every agent owned, no exchange) runs the
  // pipeline in mesh mode over one caller-supplied transport: all buckets
  // in plan order on one mesh instead of one in-process transport per
  // bucket. It must land on the ordinary fleet's round bit for bit, at
  // every bucket size and through a leave.
  for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}}) {
    for (const auto algo : {comm::AllReduceAlgo::kHalvingDoubling,
                            comm::AllReduceAlgo::kRing}) {
      SCOPED_TRACE(std::string(algo == comm::AllReduceAlgo::kRing ? "ring"
                                                                  : "hd") +
                   " bucket_bytes " + std::to_string(bucket_bytes));
      FleetOptions opt;
      opt.seed = 99;
      opt.comms.aggregation = algo;
      opt.comms.bucket_bytes = bucket_bytes;
      FleetOptions::FaultOptions::AgentFailure leave;
      leave.agent = 2;
      leave.round = 1;  // every death mode off: clean leave before round 1
      opt.faults.failures.push_back(leave);
      constexpr int64_t k = 4;
      RealFleet pipeline(mlp_factory(6, 3), 3, blob_shards(k, 30, 3, 6, 55),
                         hetero_mesh(k), opt);
      RealFleet owned(mlp_factory(6, 3), 3, blob_shards(k, 30, 3, 6, 55),
                      hetero_mesh(k), opt);
      comm::InProcTransport mesh(comm::LinkGrid::uniform(k, 100.0));
      RealFleet::DistContext ctx;
      ctx.shard = 0;
      ctx.shards = 1;
      ctx.owner.assign(k, 0);
      ctx.transport = &mesh;
      owned.set_dist_context(std::move(ctx));
      const ThreeRounds want = run_three_rounds(pipeline);
      const ThreeRounds got = run_three_rounds(owned);
      for (size_t r = 0; r < want.rounds.size(); ++r) {
        EXPECT_EQ(got.rounds[r].mean_loss, want.rounds[r].mean_loss)
            << "round " << r;
        EXPECT_EQ(got.rounds[r].dropped_agents, want.rounds[r].dropped_agents);
        EXPECT_EQ(got.rounds[r].buckets, want.rounds[r].buckets)
            << "round " << r;
        if (bucket_bytes == 0) {
          EXPECT_EQ(got.rounds[r].buckets, 1);
        } else {
          EXPECT_GT(got.rounds[r].buckets, 1);
        }
      }
      EXPECT_EQ(want.rounds[1].dropped_agents, 1);
      expect_states_equal(want.state, got.state, "owned rows vs pipeline");
    }
  }
}

/// In-process stand-in for the fleetd coordinator's round barrier: every
/// shard deposits the result slots it filled, and once all shards arrived
/// for the round each one reads the merged results. Given the round's pair
/// count (slots [0, pairs) are pairs keyed by the slow agent, the last
/// `pairs` slots their fast halves), it counts from the owner map the fast
/// halves that trained on another shard than their split half.
class ExchangeHub {
 public:
  ExchangeHub(int64_t shards, std::vector<int64_t> owner,
              std::vector<int64_t> pairs_per_round)
      : shards_(shards),
        owner_(std::move(owner)),
        pairs_per_round_(std::move(pairs_per_round)) {}

  void exchange(int64_t shard, int64_t round, RealFleet::ExchangeIO& io) {
    std::unique_lock<std::mutex> lk(mu_);
    const std::vector<int64_t>& slot_agent = *io.slot_agent;
    Slot& slot = slots_[round];
    if (slot.arrived == 0) {
      const auto pairs = static_cast<size_t>(
          pairs_per_round_.at(static_cast<size_t>(round)));
      const size_t fast0 = slot_agent.size() - pairs;
      for (size_t p = 0; p < pairs; ++p)
        if (owner_[static_cast<size_t>(slot_agent[p])] !=
            owner_[static_cast<size_t>(slot_agent[fast0 + p])])
          ++apart_halves_;
    }
    slot.results.resize(io.results->size());
    for (size_t t = 0; t < slot_agent.size(); ++t)
      if (owner_[static_cast<size_t>(slot_agent[t])] == shard)
        slot.results[t] = (*io.results)[t];
    ++slot.arrived;
    cv_.notify_all();
    if (!cv_.wait_for(lk, std::chrono::seconds(60),
                      [&] { return slot.arrived == shards_; }))
      throw std::runtime_error("exchange barrier timed out");
    *io.results = slot.results;
    io.died.clear();
  }

  [[nodiscard]] int64_t apart_halves() {
    std::lock_guard<std::mutex> lk(mu_);
    return apart_halves_;
  }

 private:
  struct Slot {
    std::vector<RealFleet::TaskResult> results;
    int64_t arrived = 0;
  };
  int64_t shards_;
  std::vector<int64_t> owner_;
  std::vector<int64_t> pairs_per_round_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int64_t, Slot> slots_;
  int64_t apart_halves_ = 0;
};

Topology mesh_of(const std::vector<double>& cpus) {
  std::vector<ResourceProfile> profiles;
  for (const double cpu : cpus) profiles.push_back({cpu, 100.0});
  return Topology::full_mesh(profiles);
}

using FleetMaker = std::function<std::unique_ptr<RealFleet>(
    const FleetOptions&, const Topology&)>;

std::unique_ptr<RealFleet> blob_fleet(const FleetOptions& opt,
                                      const Topology& topology) {
  return std::make_unique<RealFleet>(
      mlp_factory(6, 3), 3, blob_shards(topology.agents(), 30, 3, 6, 55),
      topology, opt);
}

std::unique_ptr<RealFleet> image_fleet(const FleetOptions& opt,
                                       const Topology& topology) {
  const int64_t k = topology.agents();
  Rng rng(21);
  const auto ds = data::make_synthetic_images(16 * k, 3, {3, 8, 8}, 0.3f, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : data::iid_partition(ds.size(), k, rng))
    shards.push_back(ds.subset(idx));
  return std::make_unique<RealFleet>(
      [](Rng& r) { return nn::small_cnn(3, 3, r); }, 3, std::move(shards),
      topology, opt);
}

/// Two shards of one fleet (owner a % 2), each on its own thread with its
/// own end of a socket mesh (a two-worker fleetd fleet without the daemon),
/// aggregate through the pipeline in mesh mode. Three rounds of each
/// shard must reproduce the single-process rounds bit for bit. Returns
/// how many fast halves trained on another shard than their split half.
int64_t expect_two_shards_match_the_pipeline(
    const FleetOptions& opt, const Topology& topology,
    const FleetMaker& make_fleet = blob_fleet) {
  static int run = 0;
  const int64_t k = topology.agents();
  std::vector<int64_t> owner;
  for (int64_t a = 0; a < k; ++a) owner.push_back(a % 2);
  const auto make = [&] { return make_fleet(opt, topology); };
  auto reference = make();
  const ThreeRounds want = run_three_rounds(*reference);

  std::vector<std::string> addrs;
  for (int p = 0; p < 2; ++p)
    addrs.push_back("unix:/tmp/comdml_pt_" + std::to_string(::getpid()) +
                    "_" + std::to_string(run) + "_" + std::to_string(p) +
                    ".sock");
  ++run;
  std::vector<int64_t> pairs_per_round;
  for (const RealFleet::RoundStats& r : want.rounds)
    pairs_per_round.push_back(r.num_pairs);
  ExchangeHub hub(2, owner, pairs_per_round);
  std::vector<std::unique_ptr<RealFleet>> shards;
  std::vector<std::unique_ptr<comm::SocketTransport>> meshes;
  for (int64_t s = 0; s < 2; ++s) {
    comm::SocketPeerConfig cfg;
    cfg.owner = owner;
    cfg.self = s;
    cfg.addrs = addrs;
    cfg.recv_timeout_sec = 60.0;
    meshes.push_back(std::make_unique<comm::SocketTransport>(
        comm::LinkGrid::uniform(k, 100.0), cfg));
    shards.push_back(make());
    RealFleet& fleet = *shards.back();
    RealFleet::DistContext ctx;
    ctx.shard = s;
    ctx.shards = 2;
    ctx.owner = owner;
    ctx.transport = meshes.back().get();
    ctx.exchange = [&hub, &fleet, s](RealFleet::ExchangeIO& io) {
      hub.exchange(s, fleet.round(), io);
    };
    ctx.collective_sync = [](const std::vector<int64_t>& view, bool ok) {
      EXPECT_TRUE(ok);
      return std::pair<std::vector<int64_t>, comm::Transport*>(view, nullptr);
    };
    fleet.set_dist_context(std::move(ctx));
  }
  std::vector<ThreeRounds> got(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> workers;
  for (size_t s = 0; s < 2; ++s)
    workers.emplace_back([&, s] {
      try {
        meshes[s]->wait_ready();
        got[s] = run_three_rounds(*shards[s]);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    for (size_t r = 0; r < want.rounds.size(); ++r) {
      EXPECT_EQ(got[s].rounds[r].mean_loss, want.rounds[r].mean_loss)
          << "round " << r;
      EXPECT_EQ(got[s].rounds[r].num_pairs, want.rounds[r].num_pairs);
      EXPECT_EQ(got[s].rounds[r].buckets, want.rounds[r].buckets);
      EXPECT_EQ(got[s].rounds[r].dropped_agents,
                want.rounds[r].dropped_agents);
    }
    expect_states_equal(want.state, got[s].state, "shard vs pipeline");
  }
  EXPECT_GE(want.rounds[0].num_pairs, 1);
  EXPECT_EQ(want.rounds[0].buckets > 1, opt.comms.bucket_bytes > 0);
  return hub.apart_halves();
}

FleetOptions two_shard_options(int64_t bucket_bytes,
                               const std::vector<int64_t>& leave_at_round1) {
  FleetOptions opt;
  opt.seed = 99;
  opt.comms.bucket_bytes = bucket_bytes;
  for (const int64_t agent : leave_at_round1) {
    FleetOptions::FaultOptions::AgentFailure leave;
    leave.agent = agent;
    leave.round = 1;
    opt.faults.failures.push_back(leave);
  }
  return opt;
}

TEST(FlatRoundModes, TwoShardSocketMeshMatchesThePipelineBitwise) {
  // Every bucket plan must reproduce the single-process round bit for
  // bit, paired offloads and a leave included.
  for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}}) {
    SCOPED_TRACE("bucket_bytes " + std::to_string(bucket_bytes));
    expect_two_shards_match_the_pipeline(two_shard_options(bucket_bytes, {2}),
                                         hetero_mesh(4));
  }
}

TEST(FlatRoundModes, TwoShardAgentLentAfterTrainingAtHomeKeepsItsState) {
  // Round 0 pairs agent 1 (slow) with agent 0 and trains 2 and 3 solo on
  // their own workers. Agent 0 leaves before round 1, whose pairing lends
  // agent 2 to agent 1's worker: agent 2 must train there from the
  // momentum and batch position its round-0 solo training left, not from
  // its initial ones.
  for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}}) {
    SCOPED_TRACE("bucket_bytes " + std::to_string(bucket_bytes));
    expect_two_shards_match_the_pipeline(two_shard_options(bucket_bytes, {0}),
                                         mesh_of({4.0, 0.2, 1.0, 1.0}));
  }
}

TEST(FlatRoundModes, TwoShardSlowSideLaterLentKeepsItsState) {
  // Round 0 trains agents 0 and 1 as the slow sides of pairs on their own
  // workers. Once 2 and 3 leave, round 1 pairs agent 1 with agent 0, so
  // agent 0 trains on agent 1's worker: it must start from the batch
  // position its round-0 split training left on its own worker.
  for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}}) {
    SCOPED_TRACE("bucket_bytes " + std::to_string(bucket_bytes));
    expect_two_shards_match_the_pipeline(
        two_shard_options(bucket_bytes, {2, 3}),
        mesh_of({0.5, 0.1, 4.0, 4.0}));
  }
}

TEST(FlatRoundModes, TwoShardPatchShuffleMatchesThePipelineBitwise) {
  // Patch-shuffle draws come from each agent's own batcher, so a pair
  // whose fast agent trains on the other shard than its split half
  // shuffles the same patches as the single-process pair task.
  for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}}) {
    SCOPED_TRACE("bucket_bytes " + std::to_string(bucket_bytes));
    FleetOptions opt = two_shard_options(bucket_bytes, {});
    opt.privacy.technique = learncurve::PrivacyTechnique::kPatchShuffle;
    opt.privacy.shuffle_patch = 2;
    opt.train.batch_size = 8;
    opt.train.batches_per_round = 2;
    EXPECT_GT(
        expect_two_shards_match_the_pipeline(opt, hetero_mesh(4), image_fleet),
        0);
  }
}

TEST(FlatRoundModes, SetDistContextRefusesWhatAMultiProcessRoundCannotTake) {
  constexpr int64_t k = 4;
  using Failure = FleetOptions::FaultOptions::AgentFailure;
  const auto fail = [](int64_t after_batches, int64_t after_buckets,
                       int64_t at_step) {
    Failure f;
    f.agent = 1;
    f.round = 0;
    f.after_batches = after_batches;
    f.after_buckets = after_buckets;
    f.at_collective_step = at_step;
    return f;
  };
  struct Case {
    const char* name;
    std::function<void(FleetOptions&)> options;
    std::function<void(RealFleet::DistContext&)> context;
    const char* refusal;  ///< nullptr = accepted
  };
  const auto two_shards = [](RealFleet::DistContext& c) {
    c.shards = 2;
    c.owner = {0, 1, 0, 1};
  };
  const auto exchange = [](RealFleet::ExchangeIO&) {};
  const auto sync = [](const std::vector<int64_t>& view, bool) {
    return std::pair<std::vector<int64_t>, comm::Transport*>(view, nullptr);
  };
  const std::vector<Case> cases = {
      {"int8 codec",
       [](FleetOptions& o) {
         o.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
       },
       {}, "comms.codec"},
      {"overlap",
       [](FleetOptions& o) {
         o.comms.bucket_bytes = 512;
         o.comms.overlap = true;
       },
       {}, "comms.overlap"},
      {"deadline", [](FleetOptions& o) { o.faults.deadline_sec = 1.0; }, {},
       "faults.deadline_sec"},
      {":bN", [&](FleetOptions& o) { o.faults.failures = {fail(1, -1, -1)}; },
       {}, ":bN"},
      {":kN", [&](FleetOptions& o) { o.faults.failures = {fail(-1, 1, -1)}; },
       {}, ":kN"},
      {":cS", [&](FleetOptions& o) { o.faults.failures = {fail(-1, -1, 1)}; },
       {}, ":cS"},
      {"drop probability",
       [](FleetOptions& o) { o.faults.message_drop_prob = 0.1; }, {},
       "faults.message_drop_prob"},
      {"two shards without exchange", {},
       [&](RealFleet::DistContext& c) {
         two_shards(c);
         c.collective_sync = sync;
       },
       "exchange"},
      {"two shards without collective_sync", {},
       [&](RealFleet::DistContext& c) {
         two_shards(c);
         c.exchange = exchange;
       },
       "collective_sync"},
      {"two shards with both hooks", {},
       [&](RealFleet::DistContext& c) {
         two_shards(c);
         c.exchange = exchange;
         c.collective_sync = sync;
       },
       nullptr},
      {"bucket_bytes 512",
       [](FleetOptions& o) { o.comms.bucket_bytes = 512; }, {}, nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FleetOptions opt;
    opt.seed = 5;
    if (c.options) c.options(opt);
    RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(k, 20, 3, 6, 71),
                    hetero_mesh(k), opt);
    comm::InProcTransport mesh(comm::LinkGrid::uniform(k, 100.0));
    RealFleet::DistContext ctx;
    ctx.owner.assign(k, 0);
    ctx.transport = &mesh;
    if (c.context) c.context(ctx);
    if (c.refusal == nullptr) {
      EXPECT_NO_THROW(fleet.set_dist_context(std::move(ctx)));
      continue;
    }
    try {
      fleet.set_dist_context(std::move(ctx));
      ADD_FAILURE() << "set_dist_context accepted " << c.name;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(c.refusal), std::string::npos)
          << "refusal does not name '" << c.refusal << "': " << e.what();
    }
  }
}

TEST(FlatRoundModes, FlatCheckpointResumesInABucketedFleet) {
  // The checkpoint carries no bucket layout: a flat blob resumes in a
  // bucketed fleet bit-identically (halving/doubling is bucket-size
  // invariant), and that fleet's blob resumes in a flat one.
  FleetOptions flat;
  flat.seed = 99;
  FleetOptions bucketed = flat;
  bucketed.comms.bucket_bytes = 512;
  const auto make = [](const FleetOptions& o) {
    return std::make_unique<RealFleet>(mlp_factory(6, 3), 3,
                                       blob_shards(4, 30, 3, 6, 55),
                                       hetero_mesh(4), o);
  };
  const auto state = [](RealFleet& f) {
    std::vector<Tensor> all;
    for (int64_t a = 0; a < f.agents(); ++a) {
      auto s = nn::state_of(f.model(a));
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };
  auto reference = make(flat);
  for (int r = 0; r < 2; ++r) (void)reference->step();
  const std::vector<uint8_t> flat_blob = reference->checkpoint();

  auto resumed = make(bucketed);
  ASSERT_NO_THROW(resumed->restore(flat_blob));
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(resumed->step().mean_loss, reference->step().mean_loss);
  }
  expect_states_equal(state(*reference), state(*resumed),
                      "flat blob resumed bucketed");

  auto back = make(flat);
  ASSERT_NO_THROW(back->restore(resumed->checkpoint()));
  (void)back->step();
  (void)reference->step();
  expect_states_equal(state(*reference), state(*back),
                      "bucketed blob resumed flat");
}

TEST(FleetRuntimeOverlap, FacadeReportsBucketsAndExposedComm) {
  FleetOptions opt;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  auto fleet = core::FleetBuilder()
                   .method(learncurve::Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(blob_shards(4, 30, 3, 6, 61))
                   .build();
  const auto rep = fleet.step();
  EXPECT_GT(rep.buckets, 1);
  EXPECT_GT(rep.aggregation_seconds, 0.0);
  EXPECT_LE(rep.exposed_comm_seconds, rep.aggregation_seconds + 1e-12);
  EXPECT_GT(rep.round_seconds, 0.0);
}

// ---- FleetOptions validation ------------------------------------------------

TEST(FleetOptionsValidate, DefaultsPass) {
  FleetOptions opt;
  EXPECT_NO_THROW(opt.validate());
  EXPECT_NO_THROW(FleetOptions::paper_defaults().validate());
}

TEST(FleetOptionsValidate, RejectsBadTrainingGeometry) {
  FleetOptions opt;
  opt.train.batch_size = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.batches_per_round = -1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.sgd.lr = 0.0f;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.reference_flops = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, RejectsBadCommKnobs) {
  FleetOptions opt;
  opt.comms.server_mbps = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.comms.latency_sec = -1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.comms.bucket_bytes = -4;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, RejectsBadScaleAndPrivacyKnobs) {
  FleetOptions opt;
  opt.scale.participation = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.scale.agent_dropout = 1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.privacy.dp_epsilon = -0.5;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.privacy.shuffle_patch = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, FleetsRejectInvalidOptionsAtConstruction) {
  FleetOptions opt;
  opt.train.batch_size = -8;
  EXPECT_THROW(RealFleet(mlp_factory(6, 3), 3, blob_shards(2, 20, 3, 6, 71),
                         hetero_mesh(2), opt),
               std::invalid_argument);
  EXPECT_THROW(core::FleetBuilder()
                   .method(learncurve::Method::kFedAvg)
                   .options(opt)
                   .topology(hetero_mesh(2))
                   .model(mlp_factory(6, 3), 3)
                   .shards(blob_shards(2, 20, 3, 6, 72))
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(core::FleetBuilder()
                   .method(learncurve::Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(2))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes({100, 100})
                   .build(),
               std::invalid_argument);
}

}  // namespace
}  // namespace comdml
