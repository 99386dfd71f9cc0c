// End-to-end real-training tests: the full ComDML round (pairing +
// local-loss split training + message-level AllReduce) on actual tensors,
// and the real baselines (RealFleet with pairing off and the method's own
// aggregation), built through FleetBuilder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/fleet_runtime.hpp"
#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/arch_specs.hpp"
#include "nn/resnet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace comdml::core {
namespace {

using learncurve::Method;
using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;

ModelFactory mlp_factory(int64_t in, int64_t classes) {
  return [in, classes](Rng& rng) { return nn::mlp({in, 24, 24, classes}, rng); };
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

TEST(RealFleet, ReplicasStartIdentical) {
  RealFleet::Options opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 1),
                  hetero_mesh(4), opt);
  Rng rng(2);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(tensor::allclose(fleet.model(a).forward(x, false), y0));
}

TEST(RealFleet, HeterogeneousFleetFormsPairs) {
  RealFleet::Options opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 3),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  EXPECT_GT(stats.num_pairs, 0);
  EXPECT_GT(stats.sim_time, 0.0);
}

TEST(RealFleet, AggregationRestoresConsensus) {
  RealFleet::Options opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 4),
                  hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(5);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
}

TEST(RealFleet, TrainingImprovesAccuracy) {
  RealFleet::Options opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto shards = blob_shards(4, 60, 3, 6, 6);
  Rng rng(7);
  const auto test = data::make_blobs(120, 3, 6, 0.3f, rng);
  // NOTE: blobs are class-center + noise with centers drawn from the seed;
  // train and test must share centers, so evaluate on the training shards'
  // pooled data instead of an independent draw.
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  const float before = fleet.evaluate(pooled);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  const float after = fleet.evaluate(pooled);
  EXPECT_GT(after, before + 0.2f);
  EXPECT_GT(after, 0.8f);
  (void)test;
}

TEST(RealFleet, ReportsDcorForPairs) {
  RealFleet::Options opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 8),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  if (stats.num_pairs > 0) {
    EXPECT_GT(stats.mean_dcor, 0.0);
    EXPECT_LE(stats.mean_dcor, 1.0);
  }
}

TEST(RealFleet, DifferentialPrivacyStillLearns) {
  RealFleet::Options opt;
  opt.privacy.technique = learncurve::PrivacyTechnique::kDifferentialPrivacy;
  opt.privacy.dp_epsilon = 2.0;
  opt.privacy.dp_sensitivity = 1e-4;
  opt.train.batches_per_round = 6;
  auto shards = blob_shards(4, 60, 3, 6, 9);
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  EXPECT_GT(fleet.evaluate(pooled), 0.7f);
}

TEST(RealFleet, PatchShufflePathRunsOnImages) {
  RealFleet::Options opt;
  opt.privacy.technique = learncurve::PrivacyTechnique::kPatchShuffle;
  opt.privacy.shuffle_patch = 2;
  opt.train.batch_size = 8;
  opt.train.batches_per_round = 2;
  Rng rng(10);
  const auto ds = data::make_synthetic_images(64, 3, {3, 8, 8}, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), 2, rng);
  std::vector<data::Dataset> shards{ds.subset(parts[0]),
                                    ds.subset(parts[1])};
  std::vector<ResourceProfile> profiles{{4.0, 100.0}, {0.2, 100.0}};
  ModelFactory factory = [](Rng& r) { return nn::small_cnn(3, 3, r); };
  RealFleet fleet(factory, 3, std::move(shards),
                  Topology::full_mesh(profiles), opt);
  const auto stats = fleet.step();
  EXPECT_GE(stats.mean_loss, 0.0f);
}

/// FNV-1a over the bytes of `n` values, continuing from `h`.
template <typename T>
uint64_t fnv1a(uint64_t h, const T* p, size_t n) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n * sizeof(T); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(RealFleet, PairedCnnRoundsMatchParentDigest) {
  // Three rounds of a 4-agent tiny-ResNet fleet whose compute scales
  // {4, 0.25, 2, 0.5} form offload pairs (split half plus the fast agent's
  // own training in one task) must reproduce, bit for bit, every agent's
  // weights and BN statistics and each round's mean_loss and
  // mean_slow_loss as recorded before a pair's two halves could run on
  // different shards. Like ResNetStep.WeightsMatchParentDigest the digest
  // depends only on the host's kernel family, never on the thread count.
  RealFleet::Options opt;
  opt.seed = 31;
  opt.train.batch_size = 8;
  opt.train.batches_per_round = 2;
  Rng rng(12);
  const auto ds = data::make_synthetic_images(96, 3, {3, 8, 8}, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), 4, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  std::vector<ResourceProfile> profiles;
  for (const double cpu : {4.0, 0.25, 2.0, 0.5})
    profiles.push_back({cpu, 100.0});
  const ModelFactory factory = [](Rng& r) { return nn::tiny_resnet(3, r); };
  RealFleet fleet(factory, 3, std::move(shards),
                  Topology::full_mesh(profiles), opt);
  uint64_t h = 14695981039346656037ull;
  for (int r = 0; r < 3; ++r) {
    const RealFleet::RoundStats st = fleet.step();
    ASSERT_GE(st.num_pairs, 1) << "round " << r;
    h = fnv1a(h, &st.mean_loss, 1);
    h = fnv1a(h, &st.mean_slow_loss, 1);
  }
  for (int64_t a = 0; a < fleet.agents(); ++a)
    for (const tensor::Tensor& t : nn::state_of(fleet.model(a)))
      h = fnv1a(h, t.flat().data(), t.flat().size());
  const std::string kernel = tensor::gemm_kernel_name();
  const uint64_t want =
      kernel == "scalar" ? 0x94a2b289141b4556ull : 0x3683b870f6668429ull;
  EXPECT_EQ(h, want) << "kernel " << kernel << " digest 0x" << std::hex << h;
}

TEST(RealFleet, Int8OverlapMlpRoundsMatchParentDigest) {
  // Three overlapped rounds of an 8-agent MLP fleet with the int8 codec and
  // error feedback must reproduce, bit for bit, every agent's state and each
  // round's mean_loss as recorded before the GEMM read B in place, error
  // feedback ran fused and the bucket mean fanned out. The 16-multiple
  // hidden width sends the Linear GEMMs through the in-place B panels; the
  // middle bucket (one 64x64 weight) is big enough that its steps and its
  // mean fan out over the collectors. Like PairedCnnRoundsMatchParentDigest
  // the digest depends only on the host's kernel family.
  RealFleet::Options opt;
  opt.seed = 41;
  opt.train.batch_size = 16;
  opt.train.batches_per_round = 2;
  opt.comms.aggregation = comm::AllReduceAlgo::kHalvingDoubling;
  opt.comms.bucket_bytes = 8192;
  opt.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
  opt.comms.error_feedback = true;
  opt.comms.overlap = true;
  const ModelFactory factory = [](Rng& r) {
    return nn::mlp({16, 64, 64, 4}, r);
  };
  RealFleet fleet(factory, 4, blob_shards(8, 48, 4, 16, 42), hetero_mesh(8),
                  opt);
  uint64_t h = 14695981039346656037ull;
  for (int r = 0; r < 3; ++r) {
    const RealFleet::RoundStats st = fleet.step();
    ASSERT_GE(st.buckets, 3) << "round " << r;
    h = fnv1a(h, &st.mean_loss, 1);
  }
  for (int64_t a = 0; a < fleet.agents(); ++a)
    for (const tensor::Tensor& t : nn::state_of(fleet.model(a)))
      h = fnv1a(h, t.flat().data(), t.flat().size());
  const std::string kernel = tensor::gemm_kernel_name();
  const uint64_t want =
      kernel == "scalar" ? 0x3100c9d6c7c2a4ccull : 0xffa93db226cfd64dull;
  EXPECT_EQ(h, want) << "kernel " << kernel << " digest 0x" << std::hex << h;
}

TEST(RealFleet, PlateauScheduleDecaysLearningRate) {
  RealFleet::Options opt;
  opt.train.plateau_factor = 0.5f;
  opt.train.plateau_patience = 2;
  // An LR this small cannot move the loss, so the metric plateaus from
  // round one and the schedule must fire after `patience` rounds.
  opt.train.sgd.lr = 1e-6f;
  opt.train.batches_per_round = 2;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 12, 3, 6, 19),
                  hetero_mesh(4), opt);
  EXPECT_FLOAT_EQ(fleet.current_lr(), 1e-6f);
  for (int r = 0; r < 10; ++r) (void)fleet.step();
  EXPECT_LT(fleet.current_lr(), 1e-6f);
}

TEST(RealFleet, OverlappedRoundsLearnAndKeepConsensus) {
  // Overlapped bucketed aggregation must behave exactly like a normal
  // round from the outside: replicas agree after step() and training
  // still converges.
  RealFleet::Options opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  auto shards = blob_shards(4, 60, 3, 6, 27);
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  for (int r = 0; r < 15; ++r) {
    const auto stats = fleet.step();
    EXPECT_GT(stats.buckets, 1);
    EXPECT_GT(stats.aggregation_bytes, 0);
  }
  Rng rng(28);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
  EXPECT_GT(fleet.evaluate(pooled), 0.8f);
}

TEST(RealFleet, RejectsShardTopologyMismatch) {
  RealFleet::Options opt;
  EXPECT_THROW(RealFleet(mlp_factory(6, 3), 3, blob_shards(3, 20, 3, 6, 11),
                         hetero_mesh(4), opt),
               std::invalid_argument);
}

// ---- real baselines ---------------------------------------------------------------

/// A real baseline fleet, built the way fleet_cli builds one.
FleetRuntime real_baseline(Method method, ModelFactory factory,
                           int64_t classes, std::vector<data::Dataset> shards,
                           Topology topology, const FleetOptions& options) {
  return FleetBuilder()
      .method(method)
      .options(options)
      .topology(std::move(topology))
      .model(std::move(factory), classes)
      .shards(std::move(shards))
      .build();
}

class RealBaselineP : public ::testing::TestWithParam<Method> {};

TEST_P(RealBaselineP, LearnsBlobs) {
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto shards = blob_shards(4, 60, 3, 6, 12);
  data::Dataset pooled = shards[0];
  FleetRuntime fleet = real_baseline(GetParam(), mlp_factory(6, 3), 3,
                                     std::move(shards), hetero_mesh(4), opt);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  EXPECT_GT(fleet.evaluate(pooled), 0.75f);
}

INSTANTIATE_TEST_SUITE_P(Methods, RealBaselineP,
                         ::testing::Values(Method::kFedAvg, Method::kFedProx,
                                           Method::kGossip,
                                           Method::kBrainTorrent));

TEST(RealBaselines, FedAvgReachesConsensus) {
  FleetOptions opt;
  FleetRuntime fleet =
      real_baseline(Method::kFedAvg, mlp_factory(6, 3), 3,
                    blob_shards(4, 40, 3, 6, 13), hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(14);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
}

TEST(RealBaselines, GossipReplicasMayDiverge) {
  FleetOptions opt;
  FleetRuntime fleet =
      real_baseline(Method::kGossip, mlp_factory(6, 3), 3,
                    blob_shards(4, 40, 3, 6, 15), hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(16);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  // After one gossip round the fleet need not agree (single-peer mixing).
  int diverged = 0;
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    if (!tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-6f))
      ++diverged;
  EXPECT_GT(diverged, 0);
}

TEST(RealBaselines, GossipHonorsLinkLatency) {
  // Every gossip push is one message over the pusher's chosen link, so
  // the round's slowest push pays comms.latency_sec once, like each leg
  // of a FedAvg round does.
  const auto round_seconds = [](Method method, double latency_sec) {
    FleetOptions opt;
    opt.comms.latency_sec = latency_sec;
    FleetRuntime fleet =
        real_baseline(method, mlp_factory(6, 3), 3,
                      blob_shards(5, 20, 3, 6, 27), hetero_mesh(5), opt);
    return fleet.step().aggregation_seconds;
  };
  EXPECT_NEAR(round_seconds(Method::kGossip, 0.5) -
                  round_seconds(Method::kGossip, 0.0),
              0.5, 1e-9);
  EXPECT_NEAR(round_seconds(Method::kFedAvg, 0.5) -
                  round_seconds(Method::kFedAvg, 0.0),
              1.0, 1e-9);
}

TEST(RealBaselines, ComputeSpanMatchesRealFleetClock) {
  // FedAvg and AllReduce-DML (RealFleet with pairing off) on the same
  // heterogeneous fleet both report the slowest agent's modeled solo time
  // as their compute span, and round_seconds adds the aggregation to it.
  FleetOptions opt;
  opt.train.batches_per_round = 3;
  const Topology topo = hetero_mesh(4);
  double tau_max = 0.0;
  {
    const auto shards = blob_shards(4, 30, 3, 6, 28);
    const auto model = mlp_factory(6, 3);
    Rng rng(1);
    const auto spec = nn::spec_from_model(*model(rng),
                                          shards.front().sample_shape(),
                                          "real-model", 3);
    for (int64_t i = 0; i < 4; ++i)
      tau_max = std::max(
          tau_max, modeled_agent(i, topo.profile(i).cpu,
                                 opt.train.reference_flops, spec.total_flops(),
                                 opt.train.batch_size,
                                 opt.train.batches_per_round)
                       .tau_solo);
  }
  ASSERT_GT(tau_max, 0.0);
  for (const Method m : {Method::kFedAvg, Method::kAllReduceDML}) {
    auto fleet = FleetBuilder()
                     .method(m)
                     .options(opt)
                     .topology(topo)
                     .model(mlp_factory(6, 3), 3)
                     .shards(blob_shards(4, 30, 3, 6, 28))
                     .build();
    const RoundReport rep = fleet.step();
    EXPECT_EQ(rep.compute_seconds, tau_max) << learncurve::method_name(m);
    EXPECT_GT(rep.aggregation_seconds, 0.0) << learncurve::method_name(m);
    EXPECT_EQ(rep.round_seconds, rep.compute_seconds + rep.aggregation_seconds)
        << learncurve::method_name(m);
  }
}

TEST(RealBaselines, FedAvgRefusesAgentWithoutUplink) {
  // The param-server star cannot reach an agent with no uplink, so the
  // fleet is refused at construction rather than averaging that agent's
  // model with no traffic accounted.
  std::vector<ResourceProfile> profiles{
      {4.0, 100.0}, {0.2, 100.0}, {2.0, 0.0}};
  FleetOptions opt;
  for (const Method m :
       {Method::kFedAvg, Method::kFedProx, Method::kBrainTorrent}) {
    try {
      (void)real_baseline(m, mlp_factory(6, 3), 3,
                          blob_shards(3, 20, 3, 6, 25),
                          Topology::full_mesh(profiles), opt);
      ADD_FAILURE() << learncurve::method_name(m) << " was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("agent 2 has no uplink"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RealBaselines, FedProxAnchorsEveryParameterOnBatchNormModels) {
  // small_cnn's state list interleaves BatchNorm running statistics with
  // its parameters; the proximal term must still pull every parameter
  // toward its own round-start value. One agent whose shard is exactly one
  // batch (one sample, so every batch is the same tensor in the same
  // order), momentum 0, and two batches so that the second one sees
  // w != w_round_start.
  Rng rng(40);
  const data::Dataset shard =
      data::make_synthetic_images(1, 3, {3, 8, 8}, 0.4f, rng);
  const ModelFactory factory = [](Rng& r) { return nn::small_cnn(3, 3, r); };
  FleetOptions opt;
  opt.train.batch_size = 1;
  opt.train.batches_per_round = 2;
  opt.train.sgd = {0.05f, 0.0f, 0.0f};
  opt.train.prox_mu = 5.0f;
  FleetRuntime fleet = real_baseline(Method::kFedProx, factory, 3, {shard},
                                     Topology::full_mesh({{1.0, 100.0}}), opt);

  Rng ref_rng(0);
  auto ref = factory(ref_rng);
  nn::load_state(*ref, nn::state_of(fleet.model(0)));
  const std::vector<nn::Parameter*> params = ref->parameters();
  std::vector<tensor::Tensor> start;
  for (const nn::Parameter* p : params) start.push_back(p->value);
  nn::SGD sgd(params, opt.train.sgd);
  for (int64_t b = 0; b < opt.train.batches_per_round; ++b) {
    sgd.zero_grad();
    const auto logits = ref->forward(shard.images, true);
    const auto res = nn::softmax_cross_entropy(logits, shard.labels);
    (void)ref->backward(res.grad_logits);
    for (size_t g = 0; g < params.size(); ++g) {
      auto gr = params[g]->grad.flat();
      const auto w = params[g]->value.flat();
      const auto w0 = start[g].flat();
      for (size_t k = 0; k < gr.size(); ++k)
        gr[k] += opt.train.prox_mu * (w[k] - w0[k]);
    }
    sgd.step();
  }

  (void)fleet.step();
  const std::vector<nn::Parameter*> got = fleet.model(0).parameters();
  ASSERT_EQ(got.size(), params.size());
  for (size_t g = 0; g < params.size(); ++g)
    EXPECT_TRUE(tensor::allclose(got[g]->value, params[g]->value, 1e-6f))
        << "parameter " << g;
}

TEST(RealBaselines, MomentumCarriesAcrossRounds) {
  // One agent, so every aggregation pattern is the identity, and a shard
  // of one sample, so every batch is the same tensor. Two rounds of two
  // batches must equal one SGD stepped four times: the second round starts
  // from the first round's velocity, not from zero. prox_mu 0 makes
  // FedProx's local step plain SGD.
  Rng rng(42);
  const data::Dataset shard = data::make_blobs(1, 3, 6, 0.3f, rng);
  FleetOptions opt;
  opt.train.batch_size = 1;
  opt.train.batches_per_round = 2;
  opt.train.sgd = {0.05f, 0.9f, 0.0f};
  opt.train.prox_mu = 0.0f;
  constexpr int kRounds = 2;
  for (const Method m : {Method::kFedAvg, Method::kFedProx, Method::kGossip,
                         Method::kBrainTorrent}) {
    SCOPED_TRACE(learncurve::method_name(m));
    FleetRuntime fleet = real_baseline(m, mlp_factory(6, 3), 3, {shard},
                                       Topology::full_mesh({{1.0, 100.0}}),
                                       opt);
    Rng ref_rng(0);
    auto ref = mlp_factory(6, 3)(ref_rng);
    nn::load_state(*ref, nn::state_of(fleet.model(0)));
    nn::SGD sgd(ref->parameters(), opt.train.sgd);
    for (int64_t b = 0; b < kRounds * opt.train.batches_per_round; ++b)
      (void)nn::train_batch_full(*ref, sgd, shard.images, shard.labels);

    for (int r = 0; r < kRounds; ++r) (void)fleet.step();
    const auto got = nn::state_of(fleet.model(0));
    const auto want = nn::state_of(*ref);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < want.size(); ++t)
      EXPECT_TRUE(tensor::allclose(got[t], want[t], 1e-6f)) << "tensor " << t;
  }
}

TEST(RealFleet, RefusesFailureAgentOutsideTheFleet) {
  // A failure naming an agent the fleet does not have is refused at
  // construction, not mid-round when its round comes up.
  FleetOptions opt;
  FleetOptions::FaultOptions::AgentFailure f;
  f.agent = 7;
  f.round = 1;
  opt.faults.failures.push_back(f);
  for (const Method m : {Method::kComDML, Method::kAllReduceDML,
                         Method::kFedAvg, Method::kGossip}) {
    try {
      (void)RealFleet(mlp_factory(6, 3), 3, blob_shards(4, 20, 3, 6, 18),
                      hetero_mesh(4), opt, m);
      ADD_FAILURE() << learncurve::method_name(m) << " was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("agent 7 of a 4-agent fleet"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RealFleet, DistContextRefusesParamServerAndGossip) {
  // A multi-process round runs each bucket as a stepped allreduce over the
  // socket mesh; the param-server star and gossip have no such schedule.
  for (const Method m : {Method::kFedAvg, Method::kFedProx,
                         Method::kBrainTorrent, Method::kGossip}) {
    RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 20, 3, 6, 19),
                    hetero_mesh(4), FleetOptions{}, m);
    comm::InProcTransport mesh(comm::LinkGrid::uniform(4, 100.0));
    RealFleet::DistContext ctx;
    ctx.owner.assign(4, 0);
    ctx.transport = &mesh;
    try {
      fleet.set_dist_context(std::move(ctx));
      ADD_FAILURE() << learncurve::method_name(m) << " was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no schedule to run over the "
                                           "socket mesh"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RealFleet, BaselineRoundsMatchParentDigest) {
  // Two rounds of each real baseline on a 4-agent tiny-ResNet fleet,
  // hashed over every agent's weights and BN statistics. FedAvg and
  // FedProx reproduce, bit for bit, the digests recorded when the real
  // baselines ran on an engine of their own. Gossip and BrainTorrent are
  // recorded on RealFleet itself: gossip's partner draws now come after
  // the round's per-task forks of the fleet rng, and BrainTorrent's mean is
  // the param-server star's fp64 mean instead of a local fp32 one. Like
  // PairedCnnRoundsMatchParentDigest, each digest depends only on the
  // host's kernel family.
  struct Want {
    Method method;
    uint64_t scalar;
    uint64_t avx2;
  };
  const Want wants[] = {
      // Recorded on the separate baseline engine.
      {Method::kFedAvg, 0x07ae090f52bdc5ddull, 0x9711dd84c7f23cedull},
      {Method::kFedProx, 0x0656b5418646286dull, 0x09fa8afd8b392875ull},
      // Recorded on RealFleet.
      {Method::kGossip, 0xcc75dfecbe8d751cull, 0x31713fae839aada2ull},
      {Method::kBrainTorrent, 0xb15caf5f2d0fef9dull, 0xa3d043c85d0c7c95ull},
  };
  const std::string kernel = tensor::gemm_kernel_name();
  for (const Want& want : wants) {
    FleetOptions opt;
    opt.seed = 37;
    opt.train.batch_size = 8;
    opt.train.batches_per_round = 2;
    Rng rng(13);
    const auto ds = data::make_synthetic_images(96, 3, {3, 8, 8}, 0.3f, rng);
    // Shards of 16, 32, 24 and 24 samples: FedAvg's shard-size weights are
    // not uniform.
    auto parts = data::iid_partition(ds.size(), 4, rng);
    parts[1].insert(parts[1].end(), parts[0].end() - 8, parts[0].end());
    parts[0].resize(parts[0].size() - 8);
    std::vector<data::Dataset> shards;
    for (const auto& idx : parts) shards.push_back(ds.subset(idx));
    std::vector<ResourceProfile> profiles;
    for (const double cpu : {4.0, 0.25, 2.0, 0.5})
      profiles.push_back({cpu, 100.0});
    FleetRuntime fleet = real_baseline(
        want.method, [](Rng& r) { return nn::tiny_resnet(3, r); }, 3,
        std::move(shards), Topology::full_mesh(profiles), opt);
    for (int r = 0; r < 2; ++r) (void)fleet.step();
    uint64_t h = 14695981039346656037ull;
    for (int64_t a = 0; a < fleet.agents(); ++a)
      for (const tensor::Tensor& t : nn::state_of(fleet.model(a)))
        h = fnv1a(h, t.flat().data(), t.flat().size());
    EXPECT_EQ(h, kernel == "scalar" ? want.scalar : want.avx2)
        << learncurve::method_name(want.method) << " kernel " << kernel
        << " digest 0x" << std::hex << h;
  }
}

TEST(RealBaselines, EveryFlagCombinationRunsOrIsRefused) {
  // Every combination of the settings fleet_cli --real passes through
  // (buckets, overlap, codec, straggler deadline, one injected failure,
  // message loss) either runs two rounds to a finite loss with states
  // bit-identical at 1 and 4 threads, or is refused at construction with
  // a message naming the setting.
  const Topology topo = hetero_mesh(4);
  FleetOptions base;
  base.train.batch_size = 8;
  base.train.batches_per_round = 2;
  // A deadline between the two slowest agents' modeled solo times defers
  // agent 1 (cpu 0.2) every round.
  std::vector<double> tau;
  {
    Rng rng(1);
    const auto spec = nn::spec_from_model(*mlp_factory(6, 3)(rng), {6},
                                          "real-model", 3);
    for (int64_t i = 0; i < 4; ++i)
      tau.push_back(modeled_agent(i, topo.profile(i).cpu,
                                  base.train.reference_flops,
                                  spec.total_flops(), base.train.batch_size,
                                  base.train.batches_per_round)
                        .tau_solo);
  }
  const double deadline = 0.5 * (tau[1] + tau[3]);
  using Failure = FleetOptions::FaultOptions::AgentFailure;
  const std::pair<const char*, Failure> failures[] = {
      {"leave", {2, 1, -1, -1, -1}},
      {":b1", {2, 0, 1, -1, -1}},
      {":k1", {2, 0, -1, 1, -1}},
      {":c1", {2, 0, -1, -1, 1}},
  };
  const int threads_before = num_threads();
  for (const Method m : {Method::kFedAvg, Method::kFedProx, Method::kGossip,
                         Method::kBrainTorrent})
    for (const int64_t bucket_bytes : {int64_t{0}, int64_t{512}})
      for (const bool overlap : {false, true})
        for (const bool quantized : {false, true})
          for (const bool late : {false, true})
            for (const auto& [fault, failure] : failures)
              for (const double drop : {0.0, 0.2}) {
                FleetOptions opt = base;
                opt.comms.bucket_bytes = bucket_bytes;
                opt.comms.overlap = overlap;
                if (quantized)
                  opt.comms.codec =
                      FleetOptions::CommOptions::Codec::kInt8Quantized;
                opt.faults.deadline_sec = late ? deadline : 0.0;
                opt.faults.failures = {failure};
                opt.faults.message_drop_prob = drop;
                const std::string what =
                    learncurve::method_name(m) + " bucket_bytes " +
                    std::to_string(bucket_bytes) +
                    (overlap ? " overlap" : "") +
                    (quantized ? " int8" : "") +
                    (late ? " deadline" : "") + " " + fault +
                    (drop > 0.0 ? " drop" : "");
                SCOPED_TRACE(what);
                const char* refusal = nullptr;
                if (m == Method::kGossip && bucket_bytes > 0)
                  refusal = "comms.bucket_bytes";
                else if (m == Method::kGossip && late)
                  refusal = "faults.deadline_sec";
                std::vector<std::vector<float>> states;
                for (const int threads : {1, 4}) {
                  set_num_threads(threads);
                  const auto build = [&] {
                    return real_baseline(m, mlp_factory(6, 3), 3,
                                         blob_shards(4, 24, 3, 6, 61), topo,
                                         opt);
                  };
                  if (refusal != nullptr) {
                    try {
                      (void)build();
                      ADD_FAILURE() << "not refused";
                    } catch (const std::invalid_argument& e) {
                      EXPECT_NE(std::string(e.what()).find(refusal),
                                std::string::npos)
                          << e.what();
                    }
                    continue;
                  }
                  FleetRuntime fleet = build();
                  for (int r = 0; r < 2; ++r)
                    EXPECT_TRUE(std::isfinite(fleet.step().mean_loss));
                  std::vector<float> flat;
                  for (int64_t a = 0; a < fleet.agents(); ++a)
                    for (const tensor::Tensor& t : nn::state_of(fleet.model(a)))
                      flat.insert(flat.end(), t.flat().begin(),
                                  t.flat().end());
                  states.push_back(std::move(flat));
                }
                if (states.size() == 2)
                  EXPECT_TRUE(states[0].size() == states[1].size() &&
                              std::memcmp(states[0].data(), states[1].data(),
                                          states[0].size() *
                                              sizeof(float)) == 0);
              }
  set_num_threads(threads_before);
}

// ---- FleetRuntime facade (real-execution engines) ---------------------------

TEST(FleetRuntimeReal, ComDMLTrainsAndEvaluatesThroughFacade) {
  auto shards = blob_shards(4, 60, 3, 6, 21);
  data::Dataset pooled = shards[0];
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto fleet = FleetBuilder()
                   .method(Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(std::move(shards))
                   .build();
  EXPECT_TRUE(fleet.real());
  EXPECT_EQ(fleet.agents(), 4);
  for (int r = 0; r < 15; ++r) {
    const auto rep = fleet.step();
    EXPECT_GT(rep.round_seconds, 0.0);
    // The collective executed for real: traffic was accounted.
    EXPECT_GT(rep.aggregation_bytes, 0);
    EXPECT_GT(rep.aggregation_seconds, 0.0);
  }
  EXPECT_GT(fleet.evaluate(pooled), 0.8f);
}

TEST(FleetRuntimeReal, AllReduceNeverPairs) {
  // On hetero_mesh ComDML pairs its slow agents; AllReduce-DML is the same
  // engine with pairing off, so every agent trains solo and every round
  // ends in consensus.
  const auto build = [](Method m, Topology topology) {
    FleetOptions opt;
    opt.seed = 31;
    return FleetBuilder()
        .method(m)
        .options(opt)
        .topology(std::move(topology))
        .model(mlp_factory(6, 3), 3)
        .shards(blob_shards(4, 30, 3, 6, 41))
        .build();
  };
  auto comdml = build(Method::kComDML, hetero_mesh(4));
  EXPECT_GT(comdml.step().num_pairs, 0);
  auto allreduce = build(Method::kAllReduceDML, hetero_mesh(4));
  for (int r = 0; r < 3; ++r) {
    const auto rep = allreduce.step();
    EXPECT_EQ(rep.num_pairs, 0) << "round " << r;
    EXPECT_GT(rep.aggregation_bytes, 0);
    for (int64_t a = 1; a < allreduce.agents(); ++a)
      EXPECT_EQ(nn::state_of(allreduce.model(a)),
                nn::state_of(allreduce.model(0)))
          << "round " << r << ", agent " << a;
  }

  // Where ComDML forms no pair either, the two runs are one computation.
  const auto uniform = [] {
    return Topology::full_mesh(std::vector<ResourceProfile>(4, {1.0, 100.0}));
  };
  auto solo_comdml = build(Method::kComDML, uniform());
  auto solo_allreduce = build(Method::kAllReduceDML, uniform());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(solo_comdml.step().num_pairs, 0);
    (void)solo_allreduce.step();
  }
  for (int64_t a = 0; a < 4; ++a)
    EXPECT_EQ(nn::state_of(solo_allreduce.model(a)),
              nn::state_of(solo_comdml.model(a)))
        << "agent " << a;
}

TEST(FleetRuntimeReal, BaselineReportsExecutedCollectiveTraffic) {
  auto shards = blob_shards(4, 40, 3, 6, 22);
  auto fleet = FleetBuilder()
                   .method(Method::kFedAvg)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(std::move(shards))
                   .build();
  const auto rep = fleet.step();
  EXPECT_GT(rep.aggregation_bytes, 0);
  EXPECT_GT(rep.aggregation_seconds, 0.0);
  EXPECT_GT(rep.mean_loss, 0.0f);
  // Param-server aggregation leaves all replicas in consensus.
  Rng rng(23);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(tensor::allclose(fleet.model(a).forward(x, false), y0));
}

TEST(FleetRuntimeReal, EvaluateRejectsSimulatedFleets) {
  Rng rng(24);
  auto sim = FleetBuilder()
                 .method(Method::kComDML)
                 .topology(hetero_mesh(4))
                 .architecture(nn::resnet56_spec())
                 .shard_sizes({100, 100, 100, 100})
                 .build();
  const auto test = data::make_blobs(12, 3, 6, 0.3f, rng);
  EXPECT_THROW((void)sim.evaluate(test), std::invalid_argument);
  EXPECT_THROW((void)sim.model(0), std::invalid_argument);
}

}  // namespace
}  // namespace comdml::core
