// SocketTransport + fleetd tests: real-wire delivery over Unix-domain and
// TCP sockets, cross-process accounting parity (merge_transport_stats of
// the per-process snapshots == the single-transport run), reliable
// delivery via NACK retransmits across the wire, and the end-to-end
// multi-process fleet: a forked fleetd coordinator + 2 worker processes
// must produce bit-identical weights to the same fleet stepped in this
// process.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "comm/collective.hpp"
#include "comm/reliable.hpp"
#include "comm/socket_transport.hpp"
#include "daemon/fleetd.hpp"
#include "daemon/protocol.hpp"
#include "nn/module.hpp"
#include "tensor/serialize.hpp"

namespace comdml::comm {
namespace {

/// Unique unix-socket address set for a `procs`-process mesh.
std::vector<std::string> unix_addrs(int64_t procs) {
  static std::atomic<int> counter{0};
  const int run = counter.fetch_add(1);
  std::vector<std::string> addrs;
  for (int64_t p = 0; p < procs; ++p)
    addrs.push_back("unix:/tmp/comdml_st_" + std::to_string(::getpid()) +
                    "_" + std::to_string(run) + "_" + std::to_string(p) +
                    ".sock");
  return addrs;
}

SocketPeerConfig two_proc_config(std::vector<int64_t> owner, int64_t self,
                                 std::vector<std::string> addrs) {
  SocketPeerConfig cfg;
  cfg.owner = std::move(owner);
  cfg.self = self;
  cfg.addrs = std::move(addrs);
  cfg.recv_grace_sec = 0.02;
  return cfg;
}

TEST(SocketTransport, SingleProcessMeshBehavesLikeInProc) {
  SocketPeerConfig cfg;
  cfg.owner = {0, 0, 0};
  cfg.self = 0;
  cfg.addrs = {unix_addrs(1)[0]};
  SocketTransport t(LinkGrid::uniform(3, 100.0), cfg);
  t.wait_ready();
  const double v = 7.5;
  (void)t.send(0, 2, 1, &v);
  t.end_step();
  const Message m = t.recv(2, 0);
  EXPECT_DOUBLE_EQ(m.payload[0], 7.5);
  EXPECT_TRUE(m.intact());
  EXPECT_EQ(t.stats().messages, 1);
  EXPECT_EQ(t.stats().bytes_sent[0], 4);
  EXPECT_EQ(t.stats().bytes_received[2], 4);
}

TEST(SocketTransport, PairDeliveryAcrossProcesses) {
  const auto addrs = unix_addrs(2);
  SocketTransport t0(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 0, addrs));
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs));
  t0.wait_ready();
  t1.wait_ready();
  EXPECT_EQ(t0.owner_of(1), 1);
  EXPECT_EQ(t1.processes(), 2);

  const std::vector<double> payload = {1.0, -2.0, 3.5};
  (void)t0.send(0, 1, 3, payload.data());
  t0.end_step();
  const Message m = t1.recv(1, 0);
  ASSERT_EQ(m.payload.size(), 3u);
  EXPECT_DOUBLE_EQ(m.payload[1], -2.0);
  EXPECT_EQ(m.seq, 0);
  EXPECT_TRUE(m.intact());
  t1.end_step();

  // Accounting splits at the process boundary: the sender charges the
  // send-side half, the receiver the receive-side half; the merge is the
  // single-transport run.
  const TransportStats s0 = t0.stats_snapshot();
  const TransportStats s1 = t1.stats_snapshot();
  EXPECT_EQ(s0.messages, 1);
  EXPECT_EQ(s0.bytes_sent[0], 12);
  EXPECT_EQ(s0.bytes_received[1], 0);
  EXPECT_EQ(s1.bytes_received[1], 12);
  EXPECT_EQ(s1.messages, 0);
  const TransportStats merged = merge_transport_stats({s0, s1});
  EXPECT_EQ(merged.messages, 1);
  EXPECT_EQ(merged.total_wire_bytes, 12);
  EXPECT_EQ(merged.bytes_sent[0], 12);
  EXPECT_EQ(merged.bytes_received[1], 12);
}

TEST(SocketTransport, BlockingRecvWaitsForTheWire) {
  const auto addrs = unix_addrs(2);
  SocketTransport t0(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 0, addrs));
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs));
  t0.wait_ready();
  t1.wait_ready();

  std::atomic<bool> got{false};
  std::thread receiver([&] {
    const Message m = t1.recv(1, 0);
    EXPECT_DOUBLE_EQ(m.payload[0], 42.0);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got.load());  // nothing sent yet: the recv is blocked
  const double v = 42.0;
  (void)t0.send(0, 1, 1, &v);
  t0.end_step();
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(SocketTransport, PeerDisconnectRaisesEndpointDown) {
  const auto addrs = unix_addrs(2);
  auto t0 = std::make_unique<SocketTransport>(
      LinkGrid::uniform(2, 100.0), two_proc_config({0, 1}, 0, addrs));
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs));
  t0->wait_ready();
  t1.wait_ready();
  t0.reset();  // process 0 dies; endpoint 0 is now churned out
  try {
    (void)t1.recv(1, 0);
    FAIL() << "recv from a dead peer process must throw";
  } catch (const EndpointDownError& e) {
    EXPECT_EQ(e.endpoint(), 0);
  }
  EXPECT_THROW((void)t1.send(1, 0, 1), EndpointDownError);
}

/// A data-frame body laid out as SocketTransport ships it.
struct ForgedData {
  int64_t src = 2, dst = 0, elems = 2, wire_bytes = 8, seq = 0;
  std::vector<double> payload{1.5, -2.5};

  [[nodiscard]] std::vector<uint8_t> body() const {
    tensor::ByteWriter w;
    w.i64(src);
    w.i64(dst);
    w.i64(elems);
    w.i64(wire_bytes);
    w.i64(seq);
    w.u64(0);   // checksum (the decoder does not verify it)
    w.u8(0);    // flags
    w.i64(-1);  // deliver_after_step
    w.f64(0.0);  // span
    w.f64s(payload);
    return w.bytes();
  }
};

// A peer that ships a malformed data frame is a lost peer: its endpoints go
// dead and a matched receive from them raises EndpointDownError. The reader
// thread must not let the decode error end the process, and a payload whose
// length disagrees with `elems` must never reach a mailbox.
TEST(SocketTransport, MalformedPeerDataFramesLoseThePeerNotTheProcess) {
  constexpr uint16_t kHello = 1, kData = 2;  // data-plane frame types
  const auto truncated = [] {
    auto b = ForgedData{}.body();
    b.resize(b.size() - 3);
    return b;
  };
  const auto trailing = [] {
    auto b = ForgedData{}.body();
    b.push_back(0);
    return b;
  };
  const auto forged = [](auto edit) {
    ForgedData f;
    edit(f);
    return f.body();
  };
  const auto count_lie = [] {
    // The payload's count claims 2^28 doubles; four bytes follow.
    auto b = ForgedData{}.body();
    const size_t count_at = b.size() - 2 * sizeof(double) - sizeof(uint32_t);
    b.resize(count_at);
    tensor::ByteWriter w;
    w.u32(uint32_t{1} << 28);
    w.u32(0);
    b.insert(b.end(), w.bytes().begin(), w.bytes().end());
    return b;
  };
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> cases{
      {"truncated body", truncated()},
      {"trailing bytes", trailing()},
      {"dst out of range", forged([](ForgedData& f) { f.dst = 3; })},
      {"negative dst", forged([](ForgedData& f) { f.dst = -1; })},
      {"src out of range", forged([](ForgedData& f) { f.src = 99; })},
      {"src == dst", forged([](ForgedData& f) { f.dst = 2; })},
      {"src the sender does not own",
       forged([](ForgedData& f) { f.src = 1; })},
      {"payload shorter than elems",
       forged([](ForgedData& f) { f.elems = 3; })},
      {"payload longer than elems",
       forged([](ForgedData& f) { f.elems = 1; })},
      {"negative elems", forged([](ForgedData& f) {
         f.elems = -1;
         f.payload.clear();
       })},
      {"count lie", count_lie()},
  };
  for (const auto& [what, body] : cases) {
    // This process hosts endpoints 0 and 1; the test plays process 1,
    // which owns endpoint 2.
    const auto addrs = unix_addrs(2);
    SocketTransport t(LinkGrid::uniform(3, 100.0),
                      two_proc_config({0, 0, 1}, 0, addrs));
    const int fd = dial(parse_address(addrs[0]), /*timeout_sec=*/5.0);
    ASSERT_GE(fd, 0) << what;
    tensor::ByteWriter hello;
    hello.i64(1);
    ASSERT_TRUE(send_frame(fd, kHello, hello.bytes(), nullptr)) << what;
    t.wait_ready();
    // A well-formed frame first: the forged one differs only in its flaw.
    ASSERT_TRUE(send_frame(fd, kData, ForgedData{}.body(), nullptr)) << what;
    const Message good = t.recv(0, 2);
    EXPECT_EQ(good.payload, (std::vector<double>{1.5, -2.5})) << what;
    ASSERT_TRUE(send_frame(fd, kData, body, nullptr)) << what;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (t.endpoint_alive(2) && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_FALSE(t.endpoint_alive(2)) << what;
    EXPECT_TRUE(t.endpoint_alive(0)) << what;
    EXPECT_THROW((void)t.recv(0, 2), EndpointDownError) << what;
    EXPECT_FALSE(t.try_recv(0).has_value()) << what;
    EXPECT_FALSE(t.try_recv(1).has_value()) << what;
    close_fd(fd);
  }
}

TEST(SocketTransport, TcpLoopbackMesh) {
  // Port 0 binds an ephemeral port; the peer dials the concrete bound
  // address the first transport reports.
  SocketTransport t0(
      LinkGrid::uniform(2, 100.0),
      two_proc_config({0, 1}, 0,
                      {"tcp:127.0.0.1:0", "tcp:127.0.0.1:0"}));
  SocketTransport t1(
      LinkGrid::uniform(2, 100.0),
      two_proc_config({0, 1}, 1,
                      {t0.bound_address(), "tcp:127.0.0.1:0"}));
  t0.wait_ready();
  t1.wait_ready();
  const double v = -3.25;
  (void)t0.send(0, 1, 1, &v);
  t0.end_step();
  EXPECT_DOUBLE_EQ(t1.recv(1, 0).payload[0], -3.25);
}

/// Back-to-back allreduces of `sizes` elements (the way a round's buckets
/// share one mesh), run once through the registry over an InProcTransport
/// and once split across two SocketTransports with AsyncCollective and an
/// owned mask. Asserts bit-identical owned buffers and exactly merged
/// stats, step by step.
void check_distributed_allreduce(Protocol protocol,
                                 const std::vector<int64_t>& sizes) {
  constexpr int64_t kAgents = 4;
  using Buffers = std::vector<std::vector<double>>;
  const auto make_buffers = [](int64_t elems) {
    Buffers bufs(kAgents);
    tensor::Rng rng(99 + static_cast<uint64_t>(elems));
    for (auto& b : bufs) {
      b.resize(static_cast<size_t>(elems));
      for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
    }
    return bufs;
  };

  // Single-process reference: the registry path, every endpoint owned.
  InProcTransport inproc(LinkGrid::uniform(kAgents, 100.0));
  std::vector<Buffers> ref;
  for (const int64_t elems : sizes) {
    ref.push_back(make_buffers(elems));
    CollectiveRequest req;
    req.elems = elems;
    for (auto& b : ref.back()) req.buffers.push_back(b.data());
    (void)collective(protocol).run(inproc, req);
  }

  // The same collectives split across two SocketTransports (endpoints 0,1
  // on process 0; endpoints 2,3 on process 1), driven concurrently.
  const auto addrs = unix_addrs(2);
  const std::vector<int64_t> owner = {0, 0, 1, 1};
  SocketTransport t0(LinkGrid::uniform(kAgents, 100.0),
                     two_proc_config(owner, 0, addrs));
  SocketTransport t1(LinkGrid::uniform(kAgents, 100.0),
                     two_proc_config(owner, 1, addrs));
  std::vector<Buffers> got0, got1;
  const auto drive = [&](SocketTransport& t, std::vector<Buffers>& got,
                         int64_t self) {
    t.wait_ready();
    for (const int64_t elems : sizes) {
      got.push_back(make_buffers(elems));
      CollectiveRequest req;
      req.elems = elems;
      for (int64_t e = 0; e < kAgents; ++e) {
        req.buffers.push_back(got.back()[static_cast<size_t>(e)].data());
        req.owned.push_back(owner[static_cast<size_t>(e)] == self ? 1 : 0);
      }
      AsyncCollective op(protocol, t, std::move(req));
      op.wait();
    }
  };
  std::thread w0(drive, std::ref(t0), std::ref(got0), 0);
  std::thread w1(drive, std::ref(t1), std::ref(got1), 1);
  w0.join();
  w1.join();

  // Owned rows are bit-identical to the reference mean.
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (const size_t e : {0u, 1u})
      EXPECT_EQ(got0[c][e], ref[c][e]) << "collective " << c << " endpoint "
                                       << e;
    for (const size_t e : {2u, 3u})
      EXPECT_EQ(got1[c][e], ref[c][e]) << "collective " << c << " endpoint "
                                       << e;
  }

  // Merged per-process accounting reproduces the single-transport run.
  const TransportStats want = inproc.stats();
  const TransportStats got =
      merge_transport_stats({t0.stats_snapshot(), t1.stats_snapshot()});
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.total_wire_bytes, want.total_wire_bytes);
  EXPECT_DOUBLE_EQ(got.seconds, want.seconds);
  EXPECT_EQ(got.bytes_sent, want.bytes_sent);
  EXPECT_EQ(got.bytes_received, want.bytes_received);
  EXPECT_EQ(got.step_message_counts, want.step_message_counts);
  ASSERT_EQ(got.step_spans.size(), want.step_spans.size());
  for (size_t i = 0; i < want.step_spans.size(); ++i)
    EXPECT_DOUBLE_EQ(got.step_spans[i], want.step_spans[i]) << "step " << i;
}

TEST(SocketTransport, DistributedRingAllreduceMatchesInProc) {
  check_distributed_allreduce(Protocol::kRingAllReduce, {24});
}

TEST(SocketTransport, DistributedHalvingDoublingMatchesInProc) {
  check_distributed_allreduce(Protocol::kHalvingDoublingAllReduce, {24});
}

TEST(SocketTransport, BackToBackCollectivesOfDifferentSizesShareOneMesh) {
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    SCOPED_TRACE(collective(p).name());
    check_distributed_allreduce(p, {24, 7});
  }
}

TEST(SocketTransport, ReliableChannelRecoversCrossProcessDropViaNack) {
  // The first step's message on 0 -> 1 is dropped at the sender; the
  // receiver's ReliableChannel NACKs across the wire and the owning
  // process retransmits from its parked copy.
  FaultPlan faults;
  faults.seed = 7;
  FaultPlan::MessageFault rule;
  rule.src = 0;
  rule.dst = 1;
  rule.first_step = 0;
  rule.last_step = 0;
  rule.drop_prob = 1.0;
  faults.message_faults.push_back(rule);

  const auto addrs = unix_addrs(2);
  SocketTransport t0(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 0, addrs), nullptr, faults);
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs), nullptr, faults);
  t0.wait_ready();
  t1.wait_ready();

  const std::vector<double> payload = {5.0, 6.0};
  ReliableChannel sender(t0);
  sender.send(0, 1, 2, payload.data());
  t0.end_step();

  RetryPolicy policy;
  policy.max_retries = 8;
  policy.backoff_base_sec = 0.001;
  ReliableChannel receiver(t1, policy);
  const Message m = receiver.recv(1, 0);
  EXPECT_EQ(m.seq, 0);
  ASSERT_EQ(m.payload.size(), 2u);
  EXPECT_DOUBLE_EQ(m.payload[1], 6.0);
  EXPECT_GE(receiver.retransmits(), 1);
  // Give the sender's reader thread a moment to finish accounting the
  // retransmission it issued on our behalf.
  for (int i = 0; i < 200 && t0.stats_snapshot().retransmit_messages == 0;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const TransportStats s0 = t0.stats_snapshot();
  EXPECT_GE(s0.retransmit_messages, 1);
  EXPECT_EQ(s0.dropped_messages, 1);
  // Goodput excludes the retransmit: still the fault-free schedule bytes.
  EXPECT_EQ(s0.goodput_bytes(), 8);
}

TEST(SocketTransport, DeliveryTimeoutNamesTheCrossProcessEdge) {
  FaultPlan faults;
  faults.seed = 11;
  FaultPlan::MessageFault rule;
  rule.src = 0;
  rule.dst = 1;
  rule.drop_prob = 1.0;  // forever: every retransmit is lost too
  faults.message_faults.push_back(rule);

  const auto addrs = unix_addrs(2);
  SocketTransport t0(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 0, addrs), nullptr, faults);
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs), nullptr, faults);
  t0.wait_ready();
  t1.wait_ready();

  const double v = 1.0;
  ReliableChannel sender(t0);
  sender.send(0, 1, 1, &v);
  t0.end_step();

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_sec = 0.001;
  ReliableChannel receiver(t1, policy);
  try {
    (void)receiver.recv(1, 0);
    FAIL() << "a black-holed edge must time out";
  } catch (const DeliveryTimeoutError& e) {
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.dst(), 1);
    EXPECT_GE(e.attempts(), 2);
  }
}

TEST(SocketTransport, StatsSnapshotIsSafeUnderConcurrentTraffic) {
  const auto addrs = unix_addrs(2);
  SocketTransport t0(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 0, addrs));
  SocketTransport t1(LinkGrid::uniform(2, 100.0),
                     two_proc_config({0, 1}, 1, addrs));
  t0.wait_ready();
  t1.wait_ready();
  constexpr int kMessages = 100;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    // Hammer the snapshot API from another thread while the reader thread
    // injects inbound traffic; every copy must be internally consistent.
    while (!done.load()) {
      const TransportStats s = t1.stats_snapshot();
      EXPECT_EQ(s.bytes_received[0], 0);
      EXPECT_LE(s.bytes_received[1], kMessages * 8);
    }
  });
  const double v[2] = {2.0, 2.0};
  for (int i = 0; i < kMessages; ++i) {
    (void)t0.send(0, 1, 2, v);
    t0.end_step();
    (void)t1.recv(1, 0);
    t1.end_step();
  }
  done.store(true);
  observer.join();
  EXPECT_EQ(t1.stats_snapshot().bytes_received[1], kMessages * 8);
}

}  // namespace
}  // namespace comdml::comm

// ---- fleetd: the full multi-process fleet -----------------------------------

namespace comdml::daemon {
namespace {

TEST(DaemonProtocol, OwnerMapIsRoundRobinAndTotal) {
  const auto owner = owner_map(5, 2);
  EXPECT_EQ(owner, (std::vector<int64_t>{0, 1, 0, 1, 0}));
  EXPECT_THROW((void)owner_map(1, 2), std::invalid_argument);
}

TEST(DaemonProtocol, TaskResultRoundTripsAndRefusesAForgedLossCount) {
  core::RealFleet::TaskResult t;
  t.loss_sum = 1.5f;
  t.loss_count = 2;
  t.fast_losses = {0.75f, 0.5f};
  // A kTaskResults body: slot count, filled slots, one (slot, result).
  tensor::ByteWriter w;
  w.i64(4);
  w.u32(1);
  w.i64(2);
  write_task_result(w, t);
  {
    tensor::ByteReader r(w.bytes());
    (void)r.i64();
    (void)r.u32();
    (void)r.i64();
    const core::RealFleet::TaskResult t2 = read_task_result(r);
    r.expect_done();
    EXPECT_EQ(t2.loss_sum, 1.5f);
    EXPECT_EQ(t2.loss_count, 2);
    EXPECT_EQ(t2.fast_losses, t.fast_losses);
  }
  // The fast_losses count is the u32 before the body's last two floats:
  // claiming 2^32-1 of them must throw, not size a 16 GB vector.
  std::vector<uint8_t> forged = w.bytes();
  const size_t count_at = forged.size() - 2 * sizeof(float) - sizeof(uint32_t);
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(forged.data() + count_at, &huge, sizeof(huge));
  tensor::ByteReader r(forged);
  (void)r.i64();
  (void)r.u32();
  (void)r.i64();
  EXPECT_THROW((void)read_task_result(r), std::invalid_argument);
}

TEST(DaemonProtocol, SpecAndReportRoundTrip) {
  FleetSpec spec;
  spec.agents = 6;
  spec.seed = 123;
  spec.protocol = "ring";
  spec.mbps = 25.0;
  tensor::ByteWriter w;
  write_spec(w, spec);
  core::RoundReport rep;
  rep.round = 3;
  rep.round_seconds = 1.5;
  rep.aggregation_bytes = 4096;
  rep.mean_loss = 0.25f;
  write_report(w, rep);
  tensor::ByteReader r(w.bytes());
  const FleetSpec spec2 = read_spec(r);
  const core::RoundReport rep2 = read_report(r);
  r.expect_done();
  EXPECT_EQ(spec2.agents, 6);
  EXPECT_EQ(spec2.seed, 123u);
  EXPECT_EQ(spec2.protocol, "ring");
  EXPECT_DOUBLE_EQ(spec2.mbps, 25.0);
  EXPECT_EQ(rep2.round, 3);
  EXPECT_DOUBLE_EQ(rep2.round_seconds, 1.5);
  EXPECT_EQ(rep2.aggregation_bytes, 4096);
  EXPECT_FLOAT_EQ(rep2.mean_loss, 0.25f);
}

/// Extra environment for a spawned fleetd process — how the crash tests
/// arm the in-binary COMDML_TEST_CRASH_* hooks on exactly one worker.
using SpawnEnv = std::vector<std::pair<std::string, std::string>>;

pid_t spawn(const std::string& bin, const std::vector<std::string>& args,
            const SpawnEnv& env = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (const auto& kv : env)
    ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  std::perror("execv fleetd");
  ::_exit(127);
}

/// Kills every still-running fleet process on scope exit so a failing
/// assertion cannot leak daemons into later tests. Reaped pids are no-ops.
struct ProcReaper {
  std::vector<pid_t> pids;
  ~ProcReaper() {
    for (const pid_t p : pids) ::kill(p, SIGKILL);
    for (const pid_t p : pids) (void)::waitpid(p, nullptr, WNOHANG);
  }
};

std::string unique_control_addr() {
  static std::atomic<int> counter{0};
  return "unix:/tmp/comdml_fleetd_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::vector<uint8_t> fleet_weights(core::FleetRuntime& fleet) {
  return tensor::pack_tensors(
      nn::state_of(fleet.model(fleet.live_agents().front())));
}

/// waitpid with a deadline; SIGKILLs and reports -1 on timeout.
int wait_with_timeout(pid_t pid, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    if (r < 0) return -3;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(Fleetd, MultiProcessFleetMatchesSingleProcessBitForBit) {
  const std::string bin = std::string(COMDML_BIN_DIR) + "/fleetd";
  if (::access(bin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "fleetd binary not built at " << bin;
  const std::string addr = "unix:/tmp/comdml_fleetd_" +
                           std::to_string(::getpid()) + ".sock";
  constexpr int64_t kRounds = 3;
  const FleetSpec spec;  // defaults: 4 agents, seed 42, hd

  const pid_t coord = spawn(
      bin, {"--listen", addr, "--workers", "2", "--agents", "4", "--seed",
            "42"});
  const pid_t worker0 =
      spawn(bin, {"--worker", "--index", "0", "--connect", addr});
  const pid_t worker1 =
      spawn(bin, {"--worker", "--index", "1", "--connect", addr});

  std::vector<core::RoundReport> dist_reports;
  std::vector<uint8_t> dist_weights, dist_checkpoint;
  comm::TransportStats dist_stats;
  try {
    FleetClient client(addr, /*timeout_sec=*/60.0);
    EXPECT_EQ(client.agents(), 4);
    EXPECT_EQ(client.workers(), 2);
    for (int64_t r = 0; r < kRounds; ++r)
      dist_reports.push_back(client.round());
    dist_stats = client.stats();
    dist_weights = client.weights();
    dist_checkpoint = client.checkpoint();
    client.shutdown();
  } catch (...) {
    ::kill(coord, SIGKILL);
    ::kill(worker0, SIGKILL);
    ::kill(worker1, SIGKILL);
    throw;
  }
  EXPECT_EQ(wait_with_timeout(coord, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(worker0, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(worker1, 30.0), 0);

  // The same fleet, stepped entirely in this process.
  core::FleetRuntime local = build_spec_fleet(spec);
  std::vector<core::RoundReport> local_reports;
  for (int64_t r = 0; r < kRounds; ++r)
    local_reports.push_back(local.step());

  ASSERT_EQ(dist_reports.size(), local_reports.size());
  for (size_t r = 0; r < local_reports.size(); ++r) {
    const auto& dist = dist_reports[r];
    const auto& want = local_reports[r];
    EXPECT_EQ(dist.round, want.round);
    // Losses come out of identical replicas: exactly equal, not close.
    EXPECT_EQ(dist.mean_loss, want.mean_loss) << "round " << r;
    EXPECT_EQ(dist.mean_slow_loss, want.mean_slow_loss) << "round " << r;
    EXPECT_EQ(dist.num_pairs, 0) << "uniform profiles pair nobody";
    EXPECT_EQ(dist.aggregation_bytes, want.aggregation_bytes)
        << "round " << r;
    // The merged collective clock reproduces the single-process one (the
    // compute term round-trips through one extra subtraction, hence NEAR).
    EXPECT_NEAR(dist.aggregation_seconds, want.aggregation_seconds, 1e-9);
    EXPECT_NEAR(dist.round_seconds, want.round_seconds, 1e-9)
        << "round " << r;
    // One aggregation path: the round's shape matches too.
    EXPECT_EQ(dist.buckets, want.buckets) << "round " << r;
    EXPECT_EQ(dist.split_early_buckets, want.split_early_buckets)
        << "round " << r;
    EXPECT_EQ(dist.late_agents, want.late_agents) << "round " << r;
    EXPECT_EQ(dist.dropped_agents, want.dropped_agents) << "round " << r;
  }

  // Transport-stats parity over the wire: the merged snapshot is fault
  // free, so goodput == total and real traffic flowed.
  EXPECT_GT(dist_stats.messages, 0);
  EXPECT_GT(dist_stats.total_wire_bytes, 0);
  EXPECT_EQ(dist_stats.goodput_bytes(), dist_stats.total_wire_bytes);

  // The headline guarantee: final consensus weights across 2 OS processes
  // are byte-for-byte the single-process weights.
  const auto local_weights = tensor::pack_tensors(
      nn::state_of(local.model(local.live_agents().front())));
  ASSERT_FALSE(dist_weights.empty());
  EXPECT_EQ(dist_weights, local_weights);

  // The gathered checkpoint restores into a fresh single-process fleet at
  // the same round with the same weights.
  core::FleetRuntime restored = build_spec_fleet(spec);
  restored.restore(dist_checkpoint);
  EXPECT_EQ(restored.rounds_executed(), kRounds);
  EXPECT_EQ(tensor::pack_tensors(nn::state_of(
                restored.model(restored.live_agents().front()))),
            local_weights);
}

TEST(DaemonProtocol, SpecRoundTripsComputeScales) {
  FleetSpec spec;
  spec.agents = 4;
  spec.compute_scales = {1.0, 0.25, 1.0, 0.25};
  tensor::ByteWriter w;
  write_spec(w, spec);
  tensor::ByteReader r(w.bytes());
  const FleetSpec spec2 = read_spec(r);
  r.expect_done();
  EXPECT_EQ(spec2.compute_scales, spec.compute_scales);
}

TEST(FleetClient, FailsFastOnStaleControlSocket) {
  // Bind then close: the unix socket file survives with nobody listening —
  // exactly what a SIGKILLed coordinator leaves behind.
  const std::string addr = unique_control_addr();
  const comm::SocketAddress parsed = comm::parse_address(addr);
  const int fd = comm::listen_on(parsed);
  ::close(fd);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    FleetClient client(addr, /*timeout_sec=*/20.0);
    FAIL() << "a stale control socket must be detected, not spun on";
  } catch (const CoordinatorUnreachable& e) {
    EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos)
        << e.what();
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0) << "detection must not burn the connect timeout";
  ::unlink(parsed.path.c_str());
}

/// 3-worker/6-agent crash fixture: worker 2 (owner of agents 2 and 5, by
/// the round-robin owner map) is armed to _exit(137) at `point` of round 1.
struct CrashFleet {
  std::string bin;
  std::string addr;
  pid_t coord = -1;
  std::array<pid_t, 3> workers{-1, -1, -1};
  ProcReaper reaper;

  [[nodiscard]] bool start(const std::string& crash_point) {
    bin = std::string(COMDML_BIN_DIR) + "/fleetd";
    if (::access(bin.c_str(), X_OK) != 0) return false;
    addr = unique_control_addr();
    coord = spawn(bin, {"--listen", addr, "--workers", "3", "--agents",
                        "6", "--seed", "42"});
    reaper.pids.push_back(coord);
    for (int i = 0; i < 3; ++i) {
      SpawnEnv env;
      if (i == 2)
        env = {{"COMDML_TEST_CRASH_AT_ROUND", "1"},
               {"COMDML_TEST_CRASH_POINT", crash_point}};
      workers[static_cast<size_t>(i)] =
          spawn(bin, {"--worker", "--index", std::to_string(i),
                      "--connect", addr},
                env);
      reaper.pids.push_back(workers[static_cast<size_t>(i)]);
    }
    return true;
  }
};

/// The survivor-side reference for a crash in round 1: the same fleet
/// stepped single-process where agents 2 and 5 leave at the boundary.
core::FleetRuntime leave_reference(const FleetSpec& spec,
                                   std::vector<core::RoundReport>* reports,
                                   int64_t rounds_after) {
  core::FleetRuntime ref = build_spec_fleet(spec);
  reports->push_back(ref.step());
  ref.leave(2);
  ref.leave(5);
  for (int64_t r = 0; r < rounds_after; ++r) reports->push_back(ref.step());
  return ref;
}

TEST(Fleetd, WorkerCrashMidTrainingSurvivorsFinishTheRound) {
  CrashFleet fleet;
  if (!fleet.start("train")) GTEST_SKIP() << "fleetd binary not built";

  std::vector<core::RoundReport> dist;
  std::vector<uint8_t> dist_weights;
  FleetClient client(fleet.addr, /*timeout_sec=*/60.0);
  for (int64_t r = 0; r < 3; ++r) dist.push_back(client.round());
  dist_weights = client.weights();
  client.shutdown();

  EXPECT_EQ(wait_with_timeout(fleet.workers[2], 30.0), 137)
      << "the armed worker must die by the crash hook";
  EXPECT_EQ(wait_with_timeout(fleet.coord, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[1], 30.0), 0);

  EXPECT_EQ(dist[0].dropped_agents, 0);
  EXPECT_EQ(dist[1].dropped_agents, 2) << "worker 2 owned agents 2 and 5";
  EXPECT_EQ(dist[2].dropped_agents, 0);

  // A worker that dies before training contributes nothing to the round:
  // losses and post-round weights match the fleet where its agents left
  // at the same boundary.
  FleetSpec spec;
  spec.agents = 6;
  std::vector<core::RoundReport> want;
  core::FleetRuntime ref = leave_reference(spec, &want, 2);
  ASSERT_EQ(dist.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(dist[r].round, want[r].round);
    EXPECT_EQ(dist[r].mean_loss, want[r].mean_loss) << "round " << r;
  }
  EXPECT_EQ(dist_weights, fleet_weights(ref));
}

TEST(Fleetd, WorkerCrashMidCollectiveSurvivorsReFormAndFinish) {
  CrashFleet fleet;
  if (!fleet.start("collective")) GTEST_SKIP() << "fleetd binary not built";

  std::vector<core::RoundReport> dist;
  std::vector<uint8_t> dist_weights;
  FleetClient client(fleet.addr, /*timeout_sec=*/60.0);
  for (int64_t r = 0; r < 3; ++r) dist.push_back(client.round());
  dist_weights = client.weights();
  client.shutdown();

  EXPECT_EQ(wait_with_timeout(fleet.workers[2], 30.0), 137);
  EXPECT_EQ(wait_with_timeout(fleet.coord, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[1], 30.0), 0);

  EXPECT_EQ(dist[1].dropped_agents, 2) << "worker 2 owned agents 2 and 5";

  // The crash lands after training results merged but before the
  // aggregation collective: survivors re-form over the surviving owners
  // and the post-round weights match the leave-at-the-boundary fleet.
  // (Round 1's mean_loss is exempt — the dead worker's losses were merged
  // before it died, so the distributed fold legitimately includes them.)
  FleetSpec spec;
  spec.agents = 6;
  std::vector<core::RoundReport> want;
  core::FleetRuntime ref = leave_reference(spec, &want, 2);
  EXPECT_EQ(dist[0].mean_loss, want[0].mean_loss);
  EXPECT_EQ(dist[2].mean_loss, want[2].mean_loss)
      << "post-crash rounds must re-converge exactly";
  EXPECT_EQ(dist_weights, fleet_weights(ref));
}

TEST(Fleetd, WorkerCrashDuringCheckpointGatherStillYieldsACheckpoint) {
  CrashFleet fleet;
  if (!fleet.start("gather")) GTEST_SKIP() << "fleetd binary not built";

  FleetClient client(fleet.addr, /*timeout_sec=*/60.0);
  (void)client.round();
  (void)client.round();
  // The hook fires on the first kCheckpointReq once two rounds ran: the
  // gather loses worker 2 mid-checkpoint, drops its agents, and still
  // assembles a restorable blob from the survivors.
  const std::vector<uint8_t> blob = client.checkpoint();
  const std::vector<uint8_t> live_weights = client.weights();

  FleetSpec spec;
  spec.agents = 6;
  core::FleetRuntime restored = build_spec_fleet(spec);
  restored.restore(blob);
  EXPECT_EQ(restored.rounds_executed(), 2);
  EXPECT_EQ(restored.live_agents(), (std::vector<int64_t>{0, 1, 3, 4}));
  EXPECT_EQ(fleet_weights(restored), live_weights);

  // Survivors keep driving rounds after the mid-gather loss.
  const core::RoundReport after = client.round();
  EXPECT_EQ(after.round, 2);
  EXPECT_EQ(after.dropped_agents, 0)
      << "the agents died between rounds, not during one";
  client.shutdown();

  EXPECT_EQ(wait_with_timeout(fleet.workers[2], 30.0), 137);
  EXPECT_EQ(wait_with_timeout(fleet.coord, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[1], 30.0), 0);
}

TEST(Fleetd, CrashedWorkerRejoinsFromConsensusBetweenRounds) {
  CrashFleet fleet;
  if (!fleet.start("train")) GTEST_SKIP() << "fleetd binary not built";
  FleetSpec spec;
  spec.agents = 6;

  FleetClient client(fleet.addr, /*timeout_sec=*/60.0);
  (void)client.round();
  const core::RoundReport crashed = client.round();
  EXPECT_EQ(crashed.dropped_agents, 2);
  EXPECT_EQ(wait_with_timeout(fleet.workers[2], 30.0), 137);

  // Re-spawn worker 2 as a --rejoin replacement and wait for its agents
  // to revive from consensus (visible through the gathered checkpoint).
  const pid_t replacement =
      spawn(fleet.bin, {"--worker", "--index", "2", "--connect", fleet.addr,
                        "--rejoin"});
  fleet.reaper.pids.push_back(replacement);
  core::FleetRuntime ref = build_spec_fleet(spec);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ref.restore(client.checkpoint());
    if (ref.live_agents().size() == 6u) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "rejoin never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const core::RoundReport healed = client.round();
  EXPECT_EQ(healed.round, 2);
  EXPECT_EQ(healed.dropped_agents, 0);
  const std::vector<uint8_t> dist_weights = client.weights();
  client.shutdown();

  EXPECT_EQ(wait_with_timeout(fleet.coord, 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(fleet.workers[1], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(replacement, 30.0), 0);

  // The healed fleet is bit-identical to a single-process fleet resumed
  // from the very consensus checkpoint the rejoin settled on: revived
  // agents carry consensus weights and a reset data stream (their
  // in-flight positions died with the crashed worker).
  EXPECT_EQ(ref.rounds_executed(), 2);
  const core::RoundReport want = ref.step();
  EXPECT_EQ(healed.mean_loss, want.mean_loss);
  EXPECT_EQ(dist_weights, fleet_weights(ref));
}

TEST(Fleetd, QuorumShardCheckpointRestoresBitIdentically) {
  const std::string bin = std::string(COMDML_BIN_DIR) + "/fleetd";
  if (::access(bin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "fleetd binary not built at " << bin;
  const std::string addr = unique_control_addr();
  const std::string dir =
      "/tmp/comdml_shards_" + std::to_string(::getpid());

  ProcReaper reaper;
  reaper.pids.push_back(spawn(
      bin, {"--listen", addr, "--workers", "2", "--agents", "4"}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "0", "--connect", addr}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "1", "--connect", addr}));

  FleetClient client(addr, /*timeout_sec=*/60.0);
  (void)client.round();
  (void)client.round();
  std::vector<std::string> paths = client.shard_checkpoint(dir);
  ASSERT_EQ(paths.size(), 2u);
  std::sort(paths.begin(), paths.end());  // worker order: ...w00, ...w01
  const std::vector<uint8_t> dist_weights = client.weights();
  client.shutdown();
  for (const pid_t p : reaper.pids)
    EXPECT_EQ(wait_with_timeout(p, 30.0), 0);

  std::vector<std::vector<uint8_t>> shards;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    shards.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>{});
    ASSERT_FALSE(shards.back().empty()) << path;
  }

  // The full quorum reassembles the fleet bit for bit, coordinator-free.
  FleetSpec spec;  // defaults: 4 agents, seed 42
  core::FleetRuntime full = build_spec_fleet(spec);
  std::vector<uint8_t> frames;
  for (const auto& shard : shards)
    frames.insert(frames.end(), shard.begin(), shard.end());
  full.restore(frames);
  EXPECT_EQ(full.rounds_executed(), 2);
  EXPECT_EQ(full.live_agents().size(), 4u);
  EXPECT_EQ(fleet_weights(full), dist_weights);

  // Any quorum: worker 0's shard alone revives exactly its owned agents;
  // the rest stay rejoinable.
  core::FleetRuntime partial = build_spec_fleet(spec);
  partial.restore(shards[0]);
  EXPECT_EQ(partial.rounds_executed(), 2);
  EXPECT_EQ(partial.live_agents(), (std::vector<int64_t>{0, 2}));

  for (const auto& path : paths) ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(Fleetd, HeterogeneousScalesPairAcrossProcessesBitForBit) {
  const std::string bin = std::string(COMDML_BIN_DIR) + "/fleetd";
  if (::access(bin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "fleetd binary not built at " << bin;
  const std::string addr = unique_control_addr();
  FleetSpec spec;
  spec.agents = 4;
  spec.compute_scales = {1.0, 0.25, 1.0, 0.25};

  ProcReaper reaper;
  reaper.pids.push_back(
      spawn(bin, {"--listen", addr, "--workers", "2", "--agents", "4",
                  "--scale", "1.0,0.25,1.0,0.25"}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "0", "--connect", addr}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "1", "--connect", addr}));

  std::vector<core::RoundReport> dist;
  std::vector<uint8_t> dist_weights;
  FleetClient client(addr, /*timeout_sec=*/60.0);
  for (int64_t r = 0; r < 3; ++r) dist.push_back(client.round());
  dist_weights = client.weights();
  client.shutdown();
  for (const pid_t p : reaper.pids)
    EXPECT_EQ(wait_with_timeout(p, 30.0), 0);

  // A 4x speed gap must pair every slow agent with a fast helper, and the
  // distributed pairing path (borrowed replicas shipped over the control
  // plane) must reproduce the single-process run exactly.
  core::FleetRuntime local = build_spec_fleet(spec);
  ASSERT_EQ(dist.size(), 3u);
  for (size_t r = 0; r < dist.size(); ++r) {
    const core::RoundReport want = local.step();
    EXPECT_GE(want.num_pairs, 1) << "round " << r;
    EXPECT_EQ(dist[r].num_pairs, want.num_pairs) << "round " << r;
    EXPECT_EQ(dist[r].mean_loss, want.mean_loss) << "round " << r;
    EXPECT_EQ(dist[r].mean_slow_loss, want.mean_slow_loss)
        << "round " << r;
    EXPECT_EQ(dist[r].buckets, want.buckets) << "round " << r;
    EXPECT_EQ(dist[r].split_early_buckets, want.split_early_buckets)
        << "round " << r;
    EXPECT_EQ(dist[r].late_agents, want.late_agents) << "round " << r;
    EXPECT_EQ(dist[r].dropped_agents, want.dropped_agents) << "round " << r;
  }
  EXPECT_EQ(dist_weights, fleet_weights(local));
}

TEST(Fleetd, HeterogeneousLeaveAcrossProcessesBitForBit) {
  // A leave changes the pairing across workers: round 0 pairs slow agent
  // 1 with agent 0 and trains 2 and 3 solo at home; after agent 0 leaves,
  // agent 2 helps agent 1 on worker 1. It must train there from the
  // momentum and batch position its round-0 training left on worker 0.
  const std::string bin = std::string(COMDML_BIN_DIR) + "/fleetd";
  if (::access(bin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "fleetd binary not built at " << bin;
  const std::string addr = unique_control_addr();
  FleetSpec spec;
  spec.agents = 4;
  spec.compute_scales = {4.0, 0.2, 1.0, 1.0};

  ProcReaper reaper;
  reaper.pids.push_back(
      spawn(bin, {"--listen", addr, "--workers", "2", "--agents", "4",
                  "--scale", "4,0.2,1,1"}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "0", "--connect", addr}));
  reaper.pids.push_back(
      spawn(bin, {"--worker", "--index", "1", "--connect", addr}));

  std::vector<core::RoundReport> dist;
  FleetClient client(addr, /*timeout_sec=*/60.0);
  dist.push_back(client.round());
  client.leave(0);
  for (int64_t r = 0; r < 3; ++r) dist.push_back(client.round());
  const std::vector<uint8_t> dist_weights = client.weights();
  client.shutdown();
  for (const pid_t p : reaper.pids)
    EXPECT_EQ(wait_with_timeout(p, 30.0), 0);

  core::FleetRuntime local = build_spec_fleet(spec);
  std::vector<core::RoundReport> want;
  want.push_back(local.step());
  local.leave(0);
  for (int64_t r = 0; r < 3; ++r) want.push_back(local.step());
  ASSERT_EQ(dist.size(), want.size());
  EXPECT_GE(want[0].num_pairs, 1);
  EXPECT_GE(want[1].num_pairs, 1);
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(dist[r].round, want[r].round);
    EXPECT_EQ(dist[r].num_pairs, want[r].num_pairs) << "round " << r;
    EXPECT_EQ(dist[r].mean_loss, want[r].mean_loss) << "round " << r;
    EXPECT_EQ(dist[r].mean_slow_loss, want[r].mean_slow_loss)
        << "round " << r;
    EXPECT_EQ(dist[r].dropped_agents, want[r].dropped_agents)
        << "round " << r;
  }
  EXPECT_EQ(dist_weights, fleet_weights(local));
}

TEST(Fleetd, WorkerKilledBetweenRoundsLeavesAtTheBoundary) {
  // Worker 2 (agents 2 and 5) is SIGKILLed and reaped while the fleet is
  // idle. The next round must notice it before training starts — its
  // agents leave at the boundary — and match the single-process fleet
  // where they left there. Such a round reports no dropped agents; a
  // death found only when kRound bounced would drop both mid-round, after
  // a pairing that still counted them.
  const std::string bin = std::string(COMDML_BIN_DIR) + "/fleetd";
  if (::access(bin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "fleetd binary not built at " << bin;
  const std::string addr = unique_control_addr();
  FleetSpec spec;
  spec.agents = 6;
  spec.compute_scales = {1.0, 0.3, 1.0, 0.3, 1.0, 0.3};

  ProcReaper reaper;
  reaper.pids.push_back(
      spawn(bin, {"--listen", addr, "--workers", "3", "--agents", "6",
                  "--scale", "1,0.3,1,0.3,1,0.3"}));
  std::array<pid_t, 3> workers{};
  for (int i = 0; i < 3; ++i) {
    workers[static_cast<size_t>(i)] = spawn(
        bin, {"--worker", "--index", std::to_string(i), "--connect", addr});
    reaper.pids.push_back(workers[static_cast<size_t>(i)]);
  }

  std::vector<core::RoundReport> dist;
  FleetClient client(addr, /*timeout_sec=*/60.0);
  dist.push_back(client.round());
  ASSERT_EQ(::kill(workers[2], SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(workers[2], &status, 0), workers[2]);
  EXPECT_TRUE(WIFSIGNALED(status));
  reaper.pids.erase(
      std::find(reaper.pids.begin(), reaper.pids.end(), workers[2]));
  for (int64_t r = 0; r < 2; ++r) dist.push_back(client.round());
  const std::vector<uint8_t> dist_weights = client.weights();
  client.shutdown();
  EXPECT_EQ(wait_with_timeout(reaper.pids[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(workers[0], 30.0), 0);
  EXPECT_EQ(wait_with_timeout(workers[1], 30.0), 0);

  std::vector<core::RoundReport> want;
  core::FleetRuntime ref = leave_reference(spec, &want, 2);
  ASSERT_EQ(dist.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(dist[r].round, want[r].round);
    EXPECT_EQ(dist[r].num_pairs, want[r].num_pairs) << "round " << r;
    EXPECT_EQ(dist[r].mean_loss, want[r].mean_loss) << "round " << r;
    EXPECT_EQ(dist[r].dropped_agents, 0) << "round " << r;
  }
  EXPECT_EQ(want[1].num_pairs, 2) << "agents 2 and 5 gone: two pairs left";
  EXPECT_EQ(dist_weights, fleet_weights(ref));
}

}  // namespace
}  // namespace comdml::daemon
