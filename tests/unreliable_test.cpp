// Unreliable-network hardening tests: message-level faults (delay,
// duplication, corruption, reordering, per-edge loss windows) decided by a
// pure hash of the shared step counter so SimTransport and InProcTransport
// misbehave identically; ReliableChannel ack/timeout/retransmit delivery
// with exponential backoff and typed DeliveryTimeoutError; every collective
// protocol completing exactly under message faults with Sim/InProc goodput
// parity; gossip and param-server survivor recovery under endpoint death
// and total edge loss; straggler deadlines absorbing late solo updates
// through the error-feedback residual; autonomous checksummed
// checkpointing with retention pruning, the one checkpoint decoder
// (typed CheckpointError on corrupt, mutated or ill-fitting frames, with
// the fleet left untouched), residual rows in shard frames, and
// geometry-flexible restore; and the strict --fail-agent spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/reliable.hpp"
#include "comm/transport.hpp"
#include "core/fault_spec.hpp"
#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "tensor/serialize.hpp"

namespace comdml {
namespace {

namespace fs = std::filesystem;
using comm::CollectiveRequest;
using comm::DeliveryTimeoutError;
using comm::EndpointDownError;
using comm::FaultPlan;
using comm::InProcTransport;
using comm::LinkGrid;
using comm::Message;
using comm::Protocol;
using comm::ReliableChannel;
using comm::RetryPolicy;
using comm::SimTransport;
using comm::TransportStats;
using core::CheckpointError;
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

/// One wildcard fault entry active forever.
FaultPlan::MessageFault any_edge() {
  FaultPlan::MessageFault mf;
  mf.src = -1;
  mf.dst = -1;
  return mf;
}

// ---- message-level transport faults ----------------------------------------

TEST(MessageFaults, DelayedMessageMaturesExactlyOnSchedule) {
  FaultPlan faults;
  faults.seed = 11;
  FaultPlan::MessageFault mf;
  mf.src = 0;
  mf.dst = 1;
  mf.delay_prob = 1.0;
  mf.delay_steps_max = 1;  // deterministic: exactly one extra closed step
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);

  const std::vector<double> payload{1.0, 2.0, 3.0};
  t.send(0, 1, 3, payload.data());
  t.end_step();  // a normal message would be deliverable now
  EXPECT_FALSE(t.try_recv_from(1, 0).has_value()) << "immature too early";
  t.send(1, 0, 1);  // idle steps don't close; some traffic must
  t.end_step();     // the one extra delay step closes: matures exactly here
  const auto msg = t.try_recv_from(1, 0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, payload);
  EXPECT_TRUE(msg->intact());
  EXPECT_EQ(t.stats().delayed_messages, 1);
}

TEST(MessageFaults, DuplicateDeliversTwoTaggedCopies) {
  FaultPlan faults;
  faults.seed = 12;
  auto mf = any_edge();
  mf.duplicate_prob = 1.0;
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);

  const std::vector<double> payload{4.0, 5.0};
  t.send(0, 1, 2, payload.data());
  t.end_step();
  const auto first = t.try_recv_from(1, 0);
  const auto second = t.try_recv_from(1, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, second->seq) << "a duplicate reuses the seq";
  EXPECT_EQ(first->payload, payload);
  EXPECT_EQ(second->payload, payload);
  EXPECT_FALSE(t.try_recv_from(1, 0).has_value());
  const TransportStats& st = t.stats();
  EXPECT_EQ(st.duplicated_messages, 1);
  EXPECT_GT(st.duplicated_wire_bytes, 0);
  // Goodput subtracts the copy: it equals the fault-free run's traffic.
  EXPECT_EQ(st.goodput_bytes(), st.total_wire_bytes - st.duplicated_wire_bytes);
}

TEST(MessageFaults, CorruptionFlipsPayloadAndFailsIntact) {
  FaultPlan faults;
  faults.seed = 13;
  auto mf = any_edge();
  mf.corrupt_prob = 1.0;
  faults.message_faults.push_back(mf);

  InProcTransport real(LinkGrid::uniform(2, 100.0), nullptr, faults);
  const std::vector<double> payload{6.0, 7.0};
  real.send(0, 1, 2, payload.data());
  real.end_step();
  const auto msg = real.try_recv_from(1, 0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->corrupted);
  EXPECT_FALSE(msg->intact());
  EXPECT_NE(msg->payload, payload) << "corruption must flip payload bits";
  EXPECT_EQ(real.stats().corrupt_messages, 1);

  // Timing-only flavor carries the corruption flag without a payload, so
  // the fault decision (and the receiver's reaction) is identical.
  SimTransport sim(LinkGrid::uniform(2, 100.0), nullptr, faults);
  sim.send(0, 1, 2);
  sim.end_step();
  const auto timing = sim.try_recv_from(1, 0);
  ASSERT_TRUE(timing.has_value());
  EXPECT_FALSE(timing->intact());
  EXPECT_EQ(sim.stats().corrupt_messages, 1);
}

TEST(MessageFaults, ReorderJumpsMessageToMailboxFront) {
  FaultPlan faults;
  faults.seed = 14;
  auto mf = any_edge();
  mf.reorder_prob = 1.0;
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);

  t.send(0, 1, 1);
  t.send(0, 1, 1);
  t.end_step();
  // Both pushes jumped the queue, so the younger seq now leads.
  const auto first = t.try_recv_from(1, 0);
  const auto second = t.try_recv_from(1, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 1);
  EXPECT_EQ(second->seq, 0);
  EXPECT_EQ(t.stats().reordered_messages, 2);
}

TEST(MessageFaults, StepWindowGatesTheFault) {
  FaultPlan faults;
  faults.seed = 15;
  auto mf = any_edge();
  mf.drop_prob = 1.0;
  mf.first_step = 1;
  mf.last_step = 1;  // only messages sent while exactly one step is closed
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);

  for (int step = 0; step < 3; ++step) {
    t.send(0, 1, 1);
    t.end_step();
  }
  EXPECT_EQ(t.stats().dropped_messages, 1) << "only the windowed send dies";
  EXPECT_TRUE(t.try_recv_from(1, 0).has_value());  // step-0 send
  const auto survivor = t.try_recv_from(1, 0);     // step-2 send
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->seq, 2);
  EXPECT_FALSE(t.try_recv_from(1, 0).has_value());
}

TEST(MessageFaults, EdgeFilterFirstMatchWins) {
  FaultPlan faults;
  faults.seed = 16;
  FaultPlan::MessageFault specific;
  specific.src = 0;
  specific.dst = 1;
  specific.drop_prob = 1.0;
  faults.message_faults.push_back(specific);
  faults.message_faults.push_back(any_edge());  // benign wildcard after
  InProcTransport t(LinkGrid::uniform(3, 100.0), nullptr, faults);

  t.send(0, 1, 1);
  t.send(1, 0, 1);
  t.send(0, 2, 1);
  t.end_step();
  EXPECT_EQ(t.stats().dropped_messages, 1);
  EXPECT_EQ(t.stats().dropped_on(0, 1), 1);
  EXPECT_TRUE(t.try_recv_from(0, 1).has_value());
  EXPECT_TRUE(t.try_recv_from(2, 0).has_value());

  // A wildcard listed first masks a later, more specific entry: faults
  // match in declaration order, first hit wins.
  FaultPlan masked;
  masked.seed = 16;
  masked.message_faults.push_back(any_edge());  // matches everything, benign
  masked.message_faults.push_back(specific);
  InProcTransport t2(LinkGrid::uniform(3, 100.0), nullptr, masked);
  t2.send(0, 1, 1);
  t2.end_step();
  EXPECT_EQ(t2.stats().dropped_messages, 0);
  EXPECT_TRUE(t2.try_recv_from(1, 0).has_value());
}

TEST(MessageFaults, SimAndInProcMakeIdenticalFaultDecisions) {
  FaultPlan faults;
  faults.seed = 20260808;
  auto mf = any_edge();
  mf.drop_prob = 0.3;
  mf.delay_prob = 0.3;
  mf.delay_steps_max = 2;
  mf.duplicate_prob = 0.3;
  mf.corrupt_prob = 0.3;
  mf.reorder_prob = 0.3;
  faults.message_faults.push_back(mf);

  const auto script = [](comm::Transport& t) {
    for (int step = 0; step < 6; ++step) {
      for (int64_t i = 0; i < 4; ++i)
        t.send(i, (i + 1) % 4, 8 + step);
      t.end_step();
    }
  };
  SimTransport sim(LinkGrid::uniform(4, 100.0), nullptr, faults);
  InProcTransport inproc(LinkGrid::uniform(4, 100.0), nullptr, faults);
  script(sim);
  script(inproc);
  const TransportStats& a = sim.stats();
  const TransportStats& b = inproc.stats();
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.delayed_messages, b.delayed_messages);
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages);
  EXPECT_EQ(a.corrupt_messages, b.corrupt_messages);
  EXPECT_EQ(a.reordered_messages, b.reordered_messages);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.goodput_bytes(), b.goodput_bytes());
  EXPECT_GT(a.dropped_messages + a.delayed_messages + a.duplicated_messages,
            0)
      << "the plan must actually fire for this test to mean anything";
}

// ---- reliable delivery ------------------------------------------------------

TEST(Reliable, RetransmitRestoresDeliveryThroughLossWindow) {
  FaultPlan faults;
  faults.seed = 31;
  auto mf = any_edge();
  mf.drop_prob = 1.0;
  mf.first_step = 0;
  mf.last_step = 0;  // everything sent before the first close is lost
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);
  ReliableChannel ch(t, RetryPolicy{});

  const std::vector<double> payload{1.5, 2.5, 3.5};
  ch.send(0, 1, 3, payload.data());
  const Message msg = ch.recv(1, 0);
  EXPECT_EQ(msg.payload, payload);
  EXPECT_TRUE(msg.intact());
  // Original (step 0) lost, first retransmit still inside the window,
  // second retransmit (step 1) lands: two retransmissions, deterministic.
  EXPECT_EQ(ch.retransmits(), 2);
  const TransportStats& st = t.stats();
  EXPECT_EQ(st.retransmit_messages, 2);
  EXPECT_EQ(st.dropped_messages, 2);
  EXPECT_GT(st.backoff_seconds, 0.0);
  // Goodput still reads as the single message a fault-free run would move.
  EXPECT_EQ(st.goodput_bytes(), st.total_wire_bytes / 3);
}

TEST(Reliable, DuplicatesAreDeliveredExactlyOnceInOrder) {
  FaultPlan faults;
  faults.seed = 32;
  auto mf = any_edge();
  mf.duplicate_prob = 1.0;
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);
  ReliableChannel ch(t, RetryPolicy{});

  const std::vector<double> first{1.0};
  const std::vector<double> second{2.0};
  ch.send(0, 1, 1, first.data());
  ch.send(0, 1, 1, second.data());
  t.end_step();
  const Message m0 = ch.recv(1, 0);
  const Message m1 = ch.recv(1, 0);
  EXPECT_EQ(m0.payload, first);
  EXPECT_EQ(m1.payload, second);
  EXPECT_EQ(m0.seq, 0);
  EXPECT_EQ(m1.seq, 1);
  EXPECT_EQ(ch.retransmits(), 0) << "duplicates never trigger a retry";
}

TEST(Reliable, CorruptedCopyIsRejectedUntilACleanRetransmit) {
  FaultPlan faults;
  faults.seed = 33;
  auto mf = any_edge();
  mf.corrupt_prob = 1.0;
  mf.first_step = 0;
  mf.last_step = 0;
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);
  ReliableChannel ch(t, RetryPolicy{});

  const std::vector<double> payload{9.0, 8.0, 7.0};
  ch.send(0, 1, 3, payload.data());
  t.end_step();
  const Message msg = ch.recv(1, 0);
  EXPECT_TRUE(msg.intact());
  EXPECT_EQ(msg.payload, payload) << "the clean retransmit must carry the "
                                     "pre-corruption bytes";
  EXPECT_GE(ch.retransmits(), 1);
  EXPECT_GE(t.stats().corrupt_messages, 1);
}

TEST(Reliable, ExhaustedRetriesThrowTypedTimeoutNamingTheEdge) {
  FaultPlan faults;
  faults.seed = 34;
  auto mf = any_edge();
  mf.drop_prob = 1.0;  // forever
  faults.message_faults.push_back(mf);
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_sec = 0.01;
  ReliableChannel ch(t, policy);

  ch.send(0, 1, 2);
  t.end_step();
  try {
    (void)ch.recv(1, 0);
    FAIL() << "total loss must time out";
  } catch (const DeliveryTimeoutError& e) {
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.dst(), 1);
    EXPECT_EQ(e.attempts(), 3);
  }
  EXPECT_EQ(ch.retransmits(), 3);
  EXPECT_EQ(t.stats().dropped_messages, 4);  // original + 3 retransmits
  // Exponential backoff: base * (1 + 2 + 4) of modeled waiting.
  EXPECT_NEAR(t.stats().backoff_seconds, 0.07, 1e-12);
}

TEST(Reliable, RetryPolicyReadsEnvOverrides) {
  ::setenv("COMDML_RETRY_MAX", "2", 1);
  ::setenv("COMDML_BACKOFF_BASE_MS", "5", 1);
  ::setenv("COMDML_RETRY_ADAPTIVE", "1", 1);
  ::setenv("COMDML_RETRY_ADAPTIVE_MAX", "3", 1);
  const RetryPolicy policy = RetryPolicy::from_env();
  ::unsetenv("COMDML_RETRY_MAX");
  ::unsetenv("COMDML_BACKOFF_BASE_MS");
  ::unsetenv("COMDML_RETRY_ADAPTIVE");
  ::unsetenv("COMDML_RETRY_ADAPTIVE_MAX");
  EXPECT_EQ(policy.max_retries, 2);
  EXPECT_NEAR(policy.backoff_base_sec, 0.005, 1e-12);
  EXPECT_TRUE(policy.adaptive);
  EXPECT_EQ(policy.adaptive_extra_max, 3);
  const RetryPolicy defaults = RetryPolicy::from_env();
  EXPECT_EQ(defaults.max_retries, RetryPolicy{}.max_retries);
  EXPECT_FALSE(defaults.adaptive);
}

TEST(Reliable, AdaptiveBudgetGrowsLogarithmicallyWithObservedDrops) {
  RetryPolicy policy;
  policy.max_retries = 4;
  EXPECT_EQ(policy.budget(1000), 4) << "adaptive off: drops are ignored";
  policy.adaptive = true;
  EXPECT_EQ(policy.extra_retries(0), 0);
  EXPECT_EQ(policy.extra_retries(1), 1);
  EXPECT_EQ(policy.extra_retries(2), 1);
  EXPECT_EQ(policy.extra_retries(3), 2);
  EXPECT_EQ(policy.extra_retries(7), 3);
  EXPECT_EQ(policy.extra_retries(1 << 20), policy.adaptive_extra_max);
  EXPECT_EQ(policy.budget(7), 7);
  policy.adaptive_extra_max = 2;
  EXPECT_EQ(policy.budget(7), 6) << "the bonus saturates at the cap";
}

TEST(Reliable, AdaptiveBudgetTurnsATimeoutIntoADelivery) {
  // The edge black-holes steps 0-2: the original and the first two
  // retransmits all die, and only a fourth copy (step 3, past the fault
  // window) can land. A static budget of 2 gives up one step short; the
  // adaptive policy with the very same max_retries has watched three
  // drops accrue on the edge by then, extends the budget, and delivers.
  const auto windowed = [] {
    FaultPlan faults;
    faults.seed = 21;
    auto mf = any_edge();
    mf.first_step = 0;
    mf.last_step = 2;
    mf.drop_prob = 1.0;
    faults.message_faults.push_back(mf);
    return faults;
  };
  const double v = 4.5;
  {
    InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, windowed());
    RetryPolicy policy;
    policy.max_retries = 2;
    policy.backoff_base_sec = 0.001;
    ReliableChannel ch(t, policy);
    ch.send(0, 1, 1, &v);
    t.end_step();
    EXPECT_THROW((void)ch.recv(1, 0), DeliveryTimeoutError);
  }
  {
    InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, windowed());
    RetryPolicy policy;
    policy.max_retries = 2;
    policy.backoff_base_sec = 0.001;
    policy.adaptive = true;
    ReliableChannel ch(t, policy);
    ch.send(0, 1, 1, &v);
    t.end_step();
    const Message m = ch.recv(1, 0);
    EXPECT_TRUE(m.intact());
    EXPECT_DOUBLE_EQ(m.payload[0], 4.5);
    EXPECT_EQ(ch.retransmits(), 3);
    EXPECT_EQ(t.stats().dropped_messages, 3);
  }
}

// ---- collectives under message faults ---------------------------------------

FaultPlan lossy_plan(uint64_t seed) {
  FaultPlan faults;
  faults.seed = seed;
  auto mf = any_edge();
  mf.drop_prob = 0.25;
  mf.delay_prob = 0.2;
  mf.delay_steps_max = 2;
  mf.duplicate_prob = 0.2;
  mf.corrupt_prob = 0.15;
  faults.message_faults.push_back(mf);
  return faults;
}

/// Runs `protocol` over a faulty InProcTransport and asserts (a) the
/// result is bit-identical to a fault-free run and (b) a timing-only
/// SimTransport under the same plan predicts the executed goodput and
/// retransmission traffic exactly.
void expect_exact_under_faults(Protocol protocol, int64_t k, uint64_t seed) {
  const int64_t elems = 17;
  const bool star = protocol == Protocol::kParamServer;
  const auto grid = star ? LinkGrid::star(std::vector<double>(
                               static_cast<size_t>(k - 1), 100.0),
                                          0.0)
                         : LinkGrid::uniform(k, 100.0);
  // The plan's per-copy failure odds are real; a deeper retry budget keeps
  // the exercise about retransmission, not about giving up.
  ::setenv("COMDML_RETRY_MAX", "12", 1);

  // Param-server requests carry one buffer per *agent*; the server
  // endpoint aggregates and owns no model replica.
  const int64_t parties = star ? k - 1 : k;
  auto clean_bufs = random_buffers(parties, elems, 1000 + seed);
  auto faulty_bufs = clean_bufs;
  CollectiveRequest req;
  req.elems = elems;
  if (star) {
    req.weights.assign(static_cast<size_t>(parties), 1.0);
    req.weights[0] = 3.0;  // exercise the weighted path
  }

  Rng clean_rng(seed);
  req.rng = &clean_rng;
  req.buffers = pointers(clean_bufs);
  InProcTransport clean(grid);
  (void)comm::collective(protocol).run(clean, req);

  Rng faulty_rng(seed);
  req.rng = &faulty_rng;
  req.buffers = pointers(faulty_bufs);
  InProcTransport faulty(grid, nullptr, lossy_plan(seed));
  (void)comm::collective(protocol).run(faulty, req);

  for (int64_t i = 0; i < parties; ++i)
    EXPECT_EQ(clean_bufs[static_cast<size_t>(i)],
              faulty_bufs[static_cast<size_t>(i)])
        << "agent " << i << " diverged under message faults";

  // Retransmission restored delivery exactly when a fault hit a matched
  // message, and its cost is visible — never folded into goodput.
  const TransportStats& fst = faulty.stats();
  const bool fired = fst.dropped_messages + fst.corrupt_messages +
                         fst.delayed_messages >
                     0;
  EXPECT_EQ(fst.retransmit_messages > 0, fired);
  EXPECT_EQ(fst.goodput_bytes(), clean.stats().total_wire_bytes);

  // Timing-only prediction: same plan, same decisions, same traffic.
  Rng sim_rng(seed);
  req.rng = &sim_rng;
  req.buffers.clear();
  SimTransport sim(grid, nullptr, lossy_plan(seed));
  (void)comm::collective(protocol).run(sim, req);
  ::unsetenv("COMDML_RETRY_MAX");
  EXPECT_EQ(sim.stats().total_wire_bytes, faulty.stats().total_wire_bytes);
  EXPECT_EQ(sim.stats().retransmit_messages,
            faulty.stats().retransmit_messages);
  EXPECT_EQ(sim.stats().goodput_bytes(), faulty.stats().goodput_bytes());
}

TEST(FaultyCollectives, RingAllReduceExactUnderMessageFaults) {
  expect_exact_under_faults(Protocol::kRingAllReduce, 4, 41);
}

TEST(FaultyCollectives, HalvingDoublingExactUnderMessageFaults) {
  expect_exact_under_faults(Protocol::kHalvingDoublingAllReduce, 4, 42);
}

TEST(FaultyCollectives, GossipExactUnderMessageFaults) {
  expect_exact_under_faults(Protocol::kGossip, 5, 43);
}

TEST(FaultyCollectives, ParamServerExactUnderMessageFaults) {
  expect_exact_under_faults(Protocol::kParamServer, 5, 44);
}

TEST(FaultyCollectives, GossipSurvivorMatchesPreDeadRun) {
  const int64_t k = 5, elems = 11, victim = 2;
  auto recovered = random_buffers(k, elems, 77);
  auto predead = recovered;

  // The victim's every push is lost: whoever drew it as a partner times
  // out, the victim is declared dead, and the round re-forms around the
  // survivors (rng and buffers rewound to the round start).
  FaultPlan faults;
  faults.seed = 50;
  FaultPlan::MessageFault mute;
  mute.src = victim;
  mute.dst = -1;
  mute.drop_prob = 1.0;
  faults.message_faults.push_back(mute);

  CollectiveRequest req;
  req.elems = elems;

  Rng rng_a(5);
  req.rng = &rng_a;
  req.buffers = pointers(recovered);
  InProcTransport dying(LinkGrid::uniform(k, 100.0), nullptr, faults);
  dying.schedule_endpoint_failure(victim, 1 << 20);  // arms recovery only
  const auto rep = comm::collective(Protocol::kGossip).run(dying, req);
  EXPECT_GE(rep.recoveries, 1);
  EXPECT_FALSE(dying.endpoint_alive(victim));

  // From-scratch run where the victim was never alive: bit-identical
  // survivor states.
  Rng rng_b(5);
  req.rng = &rng_b;
  req.buffers = pointers(predead);
  InProcTransport clean(LinkGrid::uniform(k, 100.0), nullptr, faults);
  clean.fail_endpoint(victim);
  (void)comm::collective(Protocol::kGossip).run(clean, req);
  for (int64_t i = 0; i < k; ++i) {
    if (i == victim) continue;
    EXPECT_EQ(recovered[static_cast<size_t>(i)],
              predead[static_cast<size_t>(i)])
        << "survivor " << i;
  }
}

TEST(FaultyCollectives, GossipFailsSilentPeerAndRecovers) {
  // Total loss on 0 -> 1 in a 2-agent mesh: the push times out, agent 0 is
  // declared dead, and the round re-forms (a lone survivor sits it out
  // with its rewound state).
  FaultPlan faults;
  faults.seed = 51;
  FaultPlan::MessageFault mf;
  mf.src = 0;
  mf.dst = 1;
  mf.drop_prob = 1.0;
  faults.message_faults.push_back(mf);

  auto bufs = random_buffers(2, 7, 9);
  const auto orig = bufs;
  CollectiveRequest req;
  req.elems = 7;
  req.buffers = pointers(bufs);
  Rng rng(3);
  req.rng = &rng;
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, faults);
  t.schedule_endpoint_failure(0, 1 << 20);  // arm recovery, never fires
  const auto rep = comm::collective(Protocol::kGossip).run(t, req);
  EXPECT_GE(rep.recoveries, 1);
  EXPECT_FALSE(t.endpoint_alive(0));
  EXPECT_EQ(bufs[1], orig[1]) << "survivor state rewound, not half-merged";
}

TEST(FaultyCollectives, ParamServerSurvivorWeightsRenormalize) {
  const int64_t agents = 4, elems = 9, victim = 1;
  const auto grid =
      LinkGrid::star(std::vector<double>(static_cast<size_t>(agents), 100.0),
                     0.0);
  auto recovered = random_buffers(agents, elems, 88);
  auto survivor_only = recovered;
  const std::vector<double> weights{1.0, 5.0, 2.0, 3.0};

  CollectiveRequest req;
  req.elems = elems;
  req.weights = weights;
  req.buffers = pointers(recovered);
  InProcTransport dying(grid);
  dying.schedule_endpoint_failure(victim, 1);  // dies after the upload step
  const auto rep = comm::collective(Protocol::kParamServer).run(dying, req);
  EXPECT_GE(rep.recoveries, 1);

  // Explicit survivor round on a clean star: the weight normalization must
  // re-derive over the survivor weights alone.
  CollectiveRequest explicit_req;
  explicit_req.elems = elems;
  explicit_req.participants = {0, 2, 3};
  explicit_req.weights = {weights[0], weights[2], weights[3]};
  explicit_req.buffers = pointers(survivor_only);
  InProcTransport clean(grid);
  (void)comm::collective(Protocol::kParamServer).run(clean, explicit_req);
  for (const int64_t i : {0, 2, 3})
    EXPECT_EQ(recovered[static_cast<size_t>(i)],
              survivor_only[static_cast<size_t>(i)])
        << "survivor " << i;
}

TEST(FaultyCollectives, ParamServerServerDeathIsFatal) {
  const auto grid =
      LinkGrid::star(std::vector<double>(3, 100.0), 0.0);
  const int64_t server = 3;
  auto bufs = random_buffers(3, 5, 66);  // one replica per agent, none for
                                         // the server
  CollectiveRequest req;
  req.elems = 5;
  req.buffers = pointers(bufs);
  {
    InProcTransport t(grid);
    t.fail_endpoint(server);
    EXPECT_THROW((void)comm::collective(Protocol::kParamServer).run(t, req),
                 EndpointDownError);
  }
  {
    // A silent server (total loss on its downlink) is equally fatal: the
    // timeout names the server and is not survivable.
    FaultPlan faults;
    faults.seed = 52;
    FaultPlan::MessageFault mf;
    mf.src = server;
    mf.dst = 0;
    mf.drop_prob = 1.0;
    faults.message_faults.push_back(mf);
    InProcTransport t(grid, nullptr, faults);
    t.schedule_endpoint_failure(0, 1 << 20);  // recovery armed
    EXPECT_THROW((void)comm::collective(Protocol::kParamServer).run(t, req),
                 DeliveryTimeoutError);
  }
}

TEST(FaultyCollectives, SilentPeerIsDeclaredDeadAndSurvivorsMatchScratch) {
  // The victim's uplink drops every message, so a matched receive from it
  // runs out of retries. Armed recovery must declare it dead and rerun the
  // survivors from their inputs: bit-identical to a from-scratch run over
  // the survivors alone (for the param server, with the survivors'
  // weights renormalized).
  const struct {
    Protocol protocol;
    int64_t agents;
  } cases[] = {
      {Protocol::kRingAllReduce, 3},
      {Protocol::kRingAllReduce, 4},
      {Protocol::kRingAllReduce, 5},
      {Protocol::kHalvingDoublingAllReduce, 3},
      {Protocol::kHalvingDoublingAllReduce, 4},
      {Protocol::kHalvingDoublingAllReduce, 5},
      {Protocol::kParamServer, 4},
  };
  const int64_t elems = 13, victim = 1;
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(comm::collective(c.protocol).name()) +
                 " agents=" + std::to_string(c.agents));
    const bool star = c.protocol == Protocol::kParamServer;
    const auto grid_of = [star](int64_t agents) {
      return star ? LinkGrid::star(
                        std::vector<double>(static_cast<size_t>(agents),
                                            100.0),
                        0.0)
                  : LinkGrid::uniform(agents, 100.0);
    };
    FaultPlan faults;
    faults.seed = 53;
    FaultPlan::MessageFault mute;
    mute.src = victim;
    mute.dst = -1;
    mute.drop_prob = 1.0;
    faults.message_faults.push_back(mute);

    auto bufs = random_buffers(c.agents, elems,
                               static_cast<uint64_t>(90 + c.agents));
    const auto inputs = bufs;
    const std::vector<double> weights{1.0, 5.0, 2.0, 3.0};
    CollectiveRequest req;
    req.elems = elems;
    req.buffers = pointers(bufs);
    if (star) req.weights = weights;
    InProcTransport dying(grid_of(c.agents), nullptr, faults);
    dying.schedule_endpoint_failure(victim, 1 << 20);  // arms recovery only
    const auto rep = comm::collective(c.protocol).run(dying, req);
    EXPECT_GE(rep.recoveries, 1);
    EXPECT_FALSE(dying.endpoint_alive(victim));

    std::vector<std::vector<double>> scratch;
    CollectiveRequest ref;
    ref.elems = elems;
    for (int64_t a = 0; a < c.agents; ++a) {
      if (a == victim) continue;
      scratch.push_back(inputs[static_cast<size_t>(a)]);
      if (star) ref.weights.push_back(weights[static_cast<size_t>(a)]);
    }
    ref.buffers = pointers(scratch);
    InProcTransport clean(grid_of(c.agents - 1));
    (void)comm::collective(c.protocol).run(clean, ref);
    size_t next = 0;
    for (int64_t a = 0; a < c.agents; ++a) {
      if (a == victim) continue;
      EXPECT_EQ(bufs[static_cast<size_t>(a)], scratch[next++])
          << "survivor " << a;
    }
  }
}

TEST(FaultyCollectives, RandomizedSeedSoakStaysExact) {
  // Churn-soak entry point: CI randomizes COMDML_FAULT_SEED across its
  // seed matrix; locally a fixed trio keeps the test deterministic.
  std::vector<uint64_t> seeds{3, 17, 99};
  if (const char* env = std::getenv("COMDML_FAULT_SEED"))
    seeds.push_back(static_cast<uint64_t>(std::atoll(env)));
  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    expect_exact_under_faults(Protocol::kRingAllReduce, 5, seed);
    expect_exact_under_faults(Protocol::kGossip, 4, seed);
  }
}

// ---- straggler deadline + autonomous checkpointing (RealFleet) --------------

core::ModelFactory mlp_factory(int64_t in, int64_t classes) {
  return [in, classes](Rng& rng) {
    return nn::mlp({in, 16, classes}, rng);
  };
}

std::vector<data::Dataset> blob_shards(int64_t agents, uint64_t seed) {
  constexpr int64_t kClasses = 3, kFeatures = 6, kPerAgent = 24;
  Rng rng(seed);
  const auto ds = data::make_blobs(agents * kPerAgent, kClasses, kFeatures,
                                   0.3f, rng);
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

FleetOptions fast_options() {
  FleetOptions opt;
  opt.seed = 7;
  opt.train.batches_per_round = 2;
  opt.comms.bucket_bytes = 4096;
  return opt;
}

RealFleet make_fleet(const FleetOptions& opt, int64_t agents,
                     uint64_t data_seed = 55) {
  return RealFleet(mlp_factory(6, 3), 3, blob_shards(agents, data_seed),
                   hetero_mesh(agents), opt);
}

void expect_live_replicas_equal(RealFleet& fleet) {
  const auto live = fleet.live_agents();
  ASSERT_FALSE(live.empty());
  const auto ref = nn::state_of(fleet.model(live.front()));
  for (const Tensor& t : ref)
    for (const float v : t.flat())
      ASSERT_TRUE(std::isfinite(v)) << "non-finite consensus";
  for (size_t a = 1; a < live.size(); ++a) {
    const auto other = nn::state_of(fleet.model(live[a]));
    ASSERT_EQ(ref.size(), other.size());
    for (size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], other[i]) << "replica " << live[a] << " tensor " << i;
  }
}

TEST(StragglerDeadline, SlowSoloIsDeferredAndReconverges) {
  FleetOptions opt = fast_options();
  opt.faults.deadline_sec = 1e-9;  // every solo agent is late
  auto fleet = make_fleet(opt, 5);  // odd fleet: pairing leaves one solo
  const auto first = fleet.step();
  EXPECT_GE(first.num_pairs, 1);
  EXPECT_EQ(first.late_agents, 1) << "the lone solo misses the deadline";
  // After the round the late agent was re-synced to the on-time consensus
  // and its surplus moved into the residual, so every replica agrees.
  expect_live_replicas_equal(fleet);

  float last_loss = first.mean_loss;
  EXPECT_TRUE(std::isfinite(last_loss));
  for (int r = 0; r < 5; ++r) last_loss = fleet.step().mean_loss;
  EXPECT_TRUE(std::isfinite(last_loss));
  EXPECT_LT(last_loss, first.mean_loss)
      << "late updates riding the residual must not stall training";
}

TEST(StragglerDeadline, GenerousDeadlineIsANoOp) {
  FleetOptions relaxed = fast_options();
  relaxed.faults.deadline_sec = 1e9;
  FleetOptions off = fast_options();

  auto a = make_fleet(relaxed, 5);
  auto b = make_fleet(off, 5);
  for (int r = 0; r < 2; ++r) {
    const auto sa = a.step();
    const auto sb = b.step();
    EXPECT_EQ(sa.late_agents, 0);
    EXPECT_EQ(sb.late_agents, 0);
  }
  for (int64_t i = 0; i < a.agents(); ++i) {
    const auto sa = nn::state_of(a.model(i));
    const auto sb = nn::state_of(b.model(i));
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t t = 0; t < sa.size(); ++t)
      EXPECT_EQ(sa[t], sb[t]) << "deadline bookkeeping must not perturb "
                                 "a fleet with no stragglers";
  }
}

/// Unique scratch dir under the system temp root; removed by the guard.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("comdml_unreliable_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

std::vector<fs::path> checkpoint_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<uint8_t> read_blob(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(AutoCheckpoint, WritesEveryNRoundsAndPrunesToRetention) {
  TempDir dir("prune");
  FleetOptions opt = fast_options();
  opt.faults.checkpoint_every = 1;
  opt.faults.checkpoint_retain = 2;
  opt.faults.checkpoint_dir = dir.path.string();
  auto fleet = make_fleet(opt, 3);
  for (int r = 0; r < 5; ++r) {
    (void)fleet.step();
    EXPECT_EQ(fleet.rounds_since_checkpoint(), 0);
  }
  const auto files = checkpoint_files(dir.path);
  ASSERT_EQ(files.size(), 2u) << "retention must prune the older blobs";
  EXPECT_EQ(files[0].filename().string(), "fleet_r000004.cmdl");
  EXPECT_EQ(files[1].filename().string(), "fleet_r000005.cmdl");

  // The newest blob restores into an equally-shaped fleet at round 5.
  auto resumed = make_fleet(fast_options(), 3);
  resumed.restore(read_blob(files[1]));
  EXPECT_EQ(resumed.round(), 5);
}

TEST(AutoCheckpoint, RestoredFleetResumesBitIdentically) {
  TempDir dir("resume");
  FleetOptions opt = fast_options();
  opt.faults.checkpoint_every = 2;
  opt.faults.checkpoint_retain = 4;
  opt.faults.checkpoint_dir = dir.path.string();
  auto original = make_fleet(opt, 4);
  for (int r = 0; r < 4; ++r) (void)original.step();

  auto resumed = make_fleet(fast_options(), 4);
  resumed.restore(read_blob(dir.path / "fleet_r000002.cmdl"));
  EXPECT_EQ(resumed.round(), 2);
  for (int r = 0; r < 2; ++r) (void)resumed.step();

  for (int64_t i = 0; i < original.agents(); ++i) {
    const auto a = nn::state_of(original.model(i));
    const auto b = nn::state_of(resumed.model(i));
    ASSERT_EQ(a.size(), b.size());
    for (size_t t = 0; t < a.size(); ++t)
      EXPECT_EQ(a[t], b[t]) << "agent " << i << " tensor " << t;
  }
}

TEST(AutoCheckpoint, RestoreAfterMidTrainingCrashIntoSmallerLiveSet) {
  TempDir dir("crash");
  FleetOptions opt = fast_options();
  opt.faults.checkpoint_every = 1;
  opt.faults.checkpoint_dir = dir.path.string();
  {
    auto doomed = make_fleet(opt, 4);
    (void)doomed.step();
    (void)doomed.step();
    // The process "crashes" here: the fleet object is simply abandoned.
  }
  const auto files = checkpoint_files(dir.path);
  ASSERT_FALSE(files.empty());

  auto revived = make_fleet(fast_options(), 4);
  revived.restore(read_blob(files.back()));
  EXPECT_EQ(revived.round(), 2);
  revived.leave(3);  // one agent did not survive the outage
  EXPECT_EQ(revived.live_agents(), (std::vector<int64_t>{0, 1, 2}));
  const auto stats = revived.step();
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  expect_live_replicas_equal(revived);
}

TEST(CheckpointErrors, CorruptBlobsRaiseTypedErrorsAndLeaveFleetUsable) {
  auto fleet = make_fleet(fast_options(), 3);
  (void)fleet.step();
  const auto good = fleet.checkpoint();
  ASSERT_GT(good.size(), 16u);

  auto expect_rejected = [&](std::vector<uint8_t> bytes, const char* what) {
    auto probe = make_fleet(fast_options(), 3);
    EXPECT_THROW(probe.restore(bytes), CheckpointError) << what;
  };
  expect_rejected({}, "empty blob");
  expect_rejected(std::vector<uint8_t>(good.begin(), good.begin() + 10),
                  "header-truncated blob");
  expect_rejected(std::vector<uint8_t>(good.begin(), good.end() - 7),
                  "body-truncated blob");
  auto flipped = good;
  flipped[flipped.size() / 2] ^= 0x40;
  expect_rejected(flipped, "bit-flipped payload");
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  expect_rejected(bad_magic, "wrong magic");
  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  expect_rejected(bad_version, "unknown version");

  // A failed restore must not corrupt the rejecting fleet.
  auto survivor = make_fleet(fast_options(), 3);
  EXPECT_THROW(survivor.restore(flipped), CheckpointError);
  const auto stats = survivor.step();
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

TEST(CheckpointErrors, GeometryFlexibleRestore) {
  auto small = make_fleet(fast_options(), 3);
  (void)small.step();
  const auto blob = small.checkpoint();

  // A wider fleet adopts the blob: extra agents come up dead.
  auto wide = make_fleet(fast_options(), 5);
  wide.restore(blob);
  EXPECT_EQ(wide.live_agents(), (std::vector<int64_t>{0, 1, 2}));
  const auto stats = wide.step();
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  expect_live_replicas_equal(wide);

  // A narrower fleet cannot: the blob carries more agents than exist.
  auto big = make_fleet(fast_options(), 5);
  (void)big.step();
  const auto big_blob = big.checkpoint();
  auto narrow = make_fleet(fast_options(), 3);
  EXPECT_THROW(narrow.restore(big_blob), CheckpointError);
}

// ---- the one checkpoint decoder ----------------------------------------------

/// A 3-agent MLP 4-`hidden`-2 fleet on 4-feature blobs.
RealFleet mlp_fleet(int64_t hidden, FleetOptions opt = fast_options()) {
  Rng rng(3);
  const data::Dataset ds = data::make_blobs(72, 2, 4, 0.3f, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : data::iid_partition(ds.size(), 3, rng))
    shards.push_back(ds.subset(idx));
  std::vector<ResourceProfile> profiles(3, {1.0, 100.0});
  return RealFleet([hidden](Rng& r) { return nn::mlp({4, hidden, 2}, r); },
                   2, shards, Topology::full_mesh(profiles), opt);
}

FleetOptions int8_options() {
  FleetOptions opt = fast_options();
  opt.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
  return opt;
}

std::vector<uint8_t> concat(std::vector<uint8_t> a,
                            const std::vector<uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<uint8_t> weights_of(RealFleet& fleet) {
  std::vector<uint8_t> out;
  for (int64_t a = 0; a < fleet.agents(); ++a)
    out = concat(std::move(out),
                 tensor::pack_tensors(nn::state_of(fleet.model(a))));
  return out;
}

TEST(CheckpointErrors, ModelMismatchLeavesTheFleetUntouched) {
  // Checksum-valid checkpoints of an MLP 4-8-2 fleet do not fit an MLP
  // 4-16-2 fleet. The refusal must come before any fleet state is
  // written: the fleet stays at round 0 with every agent live and steps.
  auto small = mlp_fleet(8);
  (void)small.step();
  (void)small.step();
  const std::vector<std::vector<uint8_t>> blobs{
      small.checkpoint(), small.checkpoint_shard(0, 3, {0})};
  for (const auto& blob : blobs) {
    auto wide = mlp_fleet(16);
    EXPECT_THROW(wide.restore(blob), CheckpointError);
    ASSERT_EQ(wide.round(), 0);
    ASSERT_EQ(wide.live_agents().size(), 3u);
    EXPECT_TRUE(std::isfinite(wide.step().mean_loss));
  }
}

TEST(CheckpointErrors, ShardFramesCarryResidualRows) {
  auto source = mlp_fleet(8, int8_options());
  (void)source.step();
  (void)source.step();
  const std::vector<uint8_t> front = source.checkpoint_shard(0, 2, {0, 1});
  const std::vector<uint8_t> back = source.checkpoint_shard(1, 2, {2});
  // A residual row is the last field of a frame: its agent's row when the
  // frame covers one agent.
  int64_t row = 0;
  for (const Tensor& t : nn::state_of(source.model(0))) row += t.size();
  const auto last_row = [row](const std::vector<uint8_t>& frame) {
    std::vector<double> out(static_cast<size_t>(row));
    std::memcpy(out.data(), frame.data() + frame.size() - out.size() * 8,
                out.size() * 8);
    return out;
  };
  const std::vector<double> zeros(static_cast<size_t>(row), 0.0);
  ASSERT_NE(last_row(source.checkpoint_shard(0, 1, {1})), zeros)
      << "two int8 rounds leave a quantization residual";

  // Agents 0 and 1 come back with their exact state and residual rows;
  // agent 2 comes up left with a zeroed row.
  auto partial = mlp_fleet(8, int8_options());
  partial.restore(front);
  EXPECT_EQ(partial.round(), 2);
  EXPECT_EQ(partial.live_agents(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(partial.checkpoint_shard(0, 2, {0, 1}), front);
  EXPECT_EQ(last_row(partial.checkpoint_shard(1, 2, {2})), zeros);
  EXPECT_TRUE(std::isfinite(partial.step().mean_loss));

  // Both frames restore the whole fleet: the next round is bit-identical.
  auto whole = mlp_fleet(8, int8_options());
  whole.restore(concat(back, front));
  (void)source.step();
  (void)whole.step();
  EXPECT_EQ(weights_of(whole), weights_of(source));

  // A residual slab on one side only is still refused.
  auto plain = mlp_fleet(8);
  EXPECT_THROW(plain.restore(front), CheckpointError);
  (void)plain.step();
  auto lossy = mlp_fleet(8, int8_options());
  EXPECT_THROW(lossy.restore(plain.checkpoint()), CheckpointError);
}

}  // namespace
}  // namespace comdml

// Largest single heap request since the last reset: the mutation test
// below checks that no refused checkpoint sizes an allocation from a
// forged length field.
namespace {
std::atomic<size_t> g_largest_new{0};

void* counted_malloc(std::size_t n) noexcept {
  size_t seen = g_largest_new.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_new.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
// The nothrow form is replaced too: memory from it is released through the
// plain operator delete below (std::get_temporary_buffer does this).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace comdml {
namespace {

TEST(CheckpointErrors, MutatedFramesAreRefusedAndLeaveTheFleetUnchanged) {
  auto source = mlp_fleet(8, int8_options());
  (void)source.step();
  (void)source.step();
  const std::vector<uint8_t> first = source.checkpoint_shard(0, 2, {0, 2});
  const std::vector<uint8_t> blob =
      concat(first, source.checkpoint_shard(1, 2, {1}));
  const std::vector<size_t> starts{0, first.size()};

  auto probe = mlp_fleet(8, int8_options());
  (void)probe.step();
  const std::vector<uint8_t> before = weights_of(probe);
  const auto expect_refused = [&](const std::vector<uint8_t>& bytes,
                                  const std::string& what) {
    g_largest_new = 0;
    try {
      probe.restore(bytes);
      ADD_FAILURE() << what << ": restored";
    } catch (const CheckpointError& e) {
      // The reason reaches the user alone: no check macro, no source path.
      const std::string reason = e.what();
      EXPECT_EQ(reason.find("COMDML_CHECK"), std::string::npos)
          << what << ": " << reason;
      EXPECT_EQ(reason.find(".cpp:"), std::string::npos)
          << what << ": " << reason;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": not a CheckpointError: " << e.what();
    }
    EXPECT_LT(g_largest_new.load(), std::max<size_t>(4 * blob.size(), 1 << 20))
        << what << ": allocation sized from a forged field";
    ASSERT_EQ(probe.round(), 1) << what;
  };

  // Seeded bit flips anywhere: the frame checks catch every one.
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> bytes = blob;
    const auto bit = static_cast<size_t>(
        rng.uniform(0.0f, static_cast<float>(bytes.size() * 8)));
    bytes[std::min(bit / 8, bytes.size() - 1)] ^=
        static_cast<uint8_t>(1u << (bit % 8));
    expect_refused(bytes, "bit flip " + std::to_string(bit));
  }

  // Truncation inside either frame, around its header fields and payload.
  // (A cut exactly between frames leaves whole frames: a quorum.)
  expect_refused({}, "empty blob");
  for (const size_t start : starts) {
    const size_t end = start == 0 ? first.size() : blob.size();
    for (const size_t cut : {start + 1, start + 4, start + 8, start + 16,
                             start + 23, start + 24, (start + end) / 2,
                             end - 1})
      expect_refused(std::vector<uint8_t>(blob.begin(), blob.begin() + cut),
                     "cut at " + std::to_string(cut));
  }

  // Forged length fields, re-checksummed so they reach the body parser.
  // Payload offsets: u32 agents @0, rng string @32 (u32 length + state),
  // then u8 plateau, u8 residual flag, u32 record count, and the first
  // record: i64 agent, u8 alive, u32 state tensor count, then the first
  // tensor's u32 rank and i64 extents.
  constexpr size_t kHeader = 24;
  const size_t rng_len = Rng(0).state().size();
  const size_t records = 38 + rng_len;
  const size_t tensors = records + 4 + 8 + 1;
  const auto forge = [&](size_t start, size_t at, auto value) {
    std::vector<uint8_t> bytes = blob;
    std::memcpy(bytes.data() + start + at, &value, sizeof(value));
    uint64_t length = 0;
    std::memcpy(&length, bytes.data() + start + 8, 8);
    length = std::min<uint64_t>(length, bytes.size() - start - kHeader);
    const uint64_t sum =
        tensor::fnv1a(bytes.data() + start + kHeader, length);
    std::memcpy(bytes.data() + start + 16, &sum, 8);
    return bytes;
  };
  for (const size_t start : starts) {
    const std::string frame = "frame @" + std::to_string(start) + " ";
    uint64_t length = 0;
    std::memcpy(&length, blob.data() + start + 8, 8);
    for (const uint64_t lie : {uint64_t{0}, length / 2, length - 1,
                               length + 1, ~uint64_t{0}})
      expect_refused(forge(start, 8, lie), frame + "payload length");
    for (const uint32_t lie : {0u, 4u, ~0u})
      expect_refused(forge(start, kHeader, lie), frame + "agent count");
    for (const uint32_t lie : {0u, 3u, ~0u})
      expect_refused(forge(start, kHeader + records, lie),
                     frame + "record count");
    for (const uint32_t lie : {0u, 1u, 7u, ~0u})
      expect_refused(forge(start, kHeader + tensors, lie),
                     frame + "tensor count");
    for (const uint32_t lie : {0u, 9u, ~0u})
      expect_refused(forge(start, kHeader + tensors + 4, lie),
                     frame + "tensor rank");
    for (const int64_t lie : {int64_t{-1}, int64_t{1} << 40,
                              std::numeric_limits<int64_t>::max()})
      expect_refused(forge(start, kHeader + tensors + 8, lie),
                     frame + "tensor extent");
  }

  // Nothing was written: the probe steps on from its own round 1.
  EXPECT_EQ(weights_of(probe), before);
  EXPECT_EQ(probe.live_agents().size(), 3u);
  EXPECT_TRUE(std::isfinite(probe.step().mean_loss));
  EXPECT_EQ(probe.round(), 2);

  // The untouched blob, and its first frame alone, do restore.
  probe.restore(blob);
  EXPECT_EQ(probe.round(), 2);
  auto quorum = mlp_fleet(8, int8_options());
  quorum.restore(first);
  EXPECT_EQ(quorum.live_agents(), (std::vector<int64_t>{0, 2}));
}

// ---- --fail-agent spec parsing ----------------------------------------------

TEST(FaultSpec, AcceptsCanonicalForms) {
  FleetOptions::FaultOptions::AgentFailure f;
  ASSERT_TRUE(core::parse_fault_spec("3@5", f));
  EXPECT_EQ(f.agent, 3);
  EXPECT_EQ(f.round, 5);
  EXPECT_EQ(f.after_batches, -1);
  EXPECT_EQ(f.after_buckets, -1);
  EXPECT_EQ(f.at_collective_step, -1);

  ASSERT_TRUE(core::parse_fault_spec("0@0:b2", f));
  EXPECT_EQ(f.after_batches, 2);
  ASSERT_TRUE(core::parse_fault_spec("1@2:k10", f));
  EXPECT_EQ(f.after_buckets, 10);
  EXPECT_EQ(f.after_batches, -1) << "the out param must be reset per parse";
  ASSERT_TRUE(core::parse_fault_spec("7@1:c3", f));
  EXPECT_EQ(f.at_collective_step, 3);
}

TEST(FaultSpec, RejectsMalformedSpecsWithAReason) {
  const std::vector<std::string> bad{
      "",        "@",      "1@",      "@2",      "-1@2",  "1@-2",
      "1@2x",    "x@2",    "1@2:",    "1@2:b",   "1@2:q5", "1@2:b1:k2",
      "1@2:b-1", "1 @2",   "1@2 ",    "1@2:b1x", "1@@2",  "0x1@2",
  };
  for (const std::string& spec : bad) {
    FleetOptions::FaultOptions::AgentFailure f;
    std::string why;
    EXPECT_FALSE(core::parse_fault_spec(spec, f, &why))
        << "'" << spec << "' must be rejected";
    EXPECT_FALSE(why.empty()) << "'" << spec << "' needs a reason";
  }
}

}  // namespace
}  // namespace comdml
