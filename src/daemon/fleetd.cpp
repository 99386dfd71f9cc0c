#include "daemon/fleetd.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/socket_io.hpp"
#include "comm/socket_transport.hpp"
#include "nn/module.hpp"
#include "tensor/check.hpp"

namespace comdml::daemon {

namespace {

std::string blob_to_str(const std::vector<uint8_t>& blob) {
  return std::string(blob.begin(), blob.end());
}

std::vector<uint8_t> str_to_blob(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// One worker's control connection, from the coordinator's side. A dead
/// worker keeps its slot (indices are wire format) with alive == false;
/// a rejoin revives the slot with a fresh fd.
struct WorkerLink {
  int fd = -1;
  bool alive = false;
};

/// Deterministic crash injection for the fault-tolerance tests: the
/// worker _exit(137)s — indistinguishable from SIGKILL to every peer — at
/// a protocol point chosen via environment variables.
///   COMDML_TEST_CRASH_AT_ROUND  round index the hook arms at
///   COMDML_TEST_CRASH_POINT     "train" | "collective" | "gather"
struct CrashHook {
  int64_t round = -1;
  std::string point;
  CrashHook() {
    if (const char* r = std::getenv("COMDML_TEST_CRASH_AT_ROUND"))
      round = std::atoll(r);
    if (const char* p = std::getenv("COMDML_TEST_CRASH_POINT")) point = p;
  }
  [[nodiscard]] bool fires(int64_t r, const char* p) const {
    return round >= 0 && r == round && point == p;
  }
};

[[noreturn]] void crash_now(int64_t index, const char* where) {
  std::fprintf(stderr, "fleetd worker %lld: test crash hook firing at %s\n",
               (long long)index, where);
  std::fflush(stderr);
  ::_exit(137);
}

/// The coordinator: owns the worker links and drives the round protocol.
/// Worker death is survivable everywhere after the join phase: a gather
/// that loses a worker marks its agents dead, tells the survivors, and
/// completes over what is left.
class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& options)
      : options_(options) {}

  ~Coordinator() {
    for (WorkerLink& w : workers_)
      if (w.fd >= 0) comm::close_fd(w.fd);
    for (const int fd : pending_clients_) comm::close_fd(fd);
    if (listen_fd_ >= 0) comm::close_fd(listen_fd_);
  }

  int run() {
    const comm::SocketAddress addr = comm::parse_address(options_.listen);
    listen_fd_ = comm::listen_on(addr);

    // Phase 1: every worker joins (kJoin names its index), then all get
    // the same kStart — spec, fleet partition, and the data-mesh
    // addresses their SocketTransports will form a full mesh over. A
    // client that connects during this phase gets its hello answered and
    // is parked until the fleet is up.
    workers_.resize(static_cast<size_t>(options_.workers));
    for (int64_t joined = 0; joined < options_.workers;) {
      const int fd = comm::accept_on(listen_fd_);
      COMDML_REQUIRE(fd >= 0, "fleetd accept failed while waiting for "
                              "workers to join");
      try {
        const comm::WireFrame frame = recv_msg(fd, "joining peer");
        if (frame.type == static_cast<uint16_t>(Msg::kClientHello)) {
          tensor::ByteWriter w;
          w.i64(options_.spec.agents);
          w.i64(options_.workers);
          reply(fd, Msg::kClientHello, w.bytes());
          pending_clients_.push_back(fd);
          continue;
        }
        COMDML_REQUIRE(frame.type == static_cast<uint16_t>(Msg::kJoin),
                       "joining peer sent frame type " << frame.type
                                                       << ", not kJoin");
        tensor::ByteReader r(frame.body);
        const int64_t index = r.i64();
        r.expect_done();
        COMDML_REQUIRE(index >= 0 && index < options_.workers,
                       "worker joined with out-of-range index " << index);
        COMDML_REQUIRE(workers_[static_cast<size_t>(index)].fd < 0,
                       "two workers joined with index " << index);
        workers_[static_cast<size_t>(index)].fd = fd;
        workers_[static_cast<size_t>(index)].alive = true;
        ++joined;
      } catch (const std::exception& e) {
        comm::close_fd(fd);
        std::fprintf(stderr, "fleetd: rejected a joining peer: %s\n",
                     e.what());
      }
    }
    owner_ = owner_map(options_.spec.agents, options_.workers);
    agent_live_.assign(static_cast<size_t>(options_.spec.agents), 1);
    agent_left_.assign(static_cast<size_t>(options_.spec.agents), 0);
    const std::vector<std::string> mesh =
        mesh_addresses(options_.listen, options_.workers);
    {
      tensor::ByteWriter w;
      write_spec(w, options_.spec);
      w.i64(options_.workers);
      w.i64s(owner_);
      w.u32(static_cast<uint32_t>(mesh.size()));
      for (const std::string& a : mesh) w.str(a);
      broadcast(Msg::kStart, w.bytes());
    }
    for (const WorkerLink& w : workers_)
      (void)expect_msg(w.fd, Msg::kReady, "worker");
    std::printf("fleetd: %lld workers ready, %lld agents, serving on %s\n",
                (long long)options_.workers,
                (long long)options_.spec.agents, options_.listen.c_str());
    std::fflush(stdout);

    // Phase 2: serve clients, one connection at a time (a fleet has one
    // driver). While a client is connected the listen fd stays polled, so
    // a re-spawned worker can rejoin mid-session; other clients queue.
    for (;;) {
      while (!pending_clients_.empty()) {
        const int client = pending_clients_.front();
        pending_clients_.pop_front();
        const bool shutdown = serve_client(client);
        comm::close_fd(client);
        if (shutdown) return 0;
      }
      accept_peer();
    }
  }

 private:
  /// Serve one client until it disconnects; true when it asked the whole
  /// fleet to shut down. The listen fd is polled alongside the client so
  /// rejoining workers (and queueing clients) are admitted between RPCs.
  bool serve_client(int client) {
    for (;;) {
      struct pollfd fds[2];
      fds[0] = {client, POLLIN, 0};
      fds[1] = {listen_fd_, POLLIN, 0};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if ((fds[1].revents & POLLIN) != 0) accept_peer();
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto frame = comm::recv_frame(client);
      if (!frame.has_value()) return false;  // client went away
      try {
        if (handle_client(client, *frame)) return true;
      } catch (const std::exception& e) {
        // Surface the failure to the client instead of dying; a request
        // the degraded fleet cannot serve keeps erroring, which is the
        // honest signal.
        const std::string what = e.what();
        (void)send_msg(client, Msg::kError, str_to_blob(what));
      }
    }
  }

  /// Admit one connection from the listen backlog: a client's hello is
  /// answered and the fd parked until its turn; a kRejoin runs the rejoin
  /// protocol inline (the fleet is idle between client RPCs).
  void accept_peer() {
    const int fd = comm::accept_on(listen_fd_);
    if (fd < 0) return;
    int64_t rejoin_index = -1;
    try {
      const comm::WireFrame frame = recv_msg(fd, "connecting peer");
      if (frame.type == static_cast<uint16_t>(Msg::kClientHello)) {
        tensor::ByteWriter w;
        w.i64(options_.spec.agents);
        w.i64(options_.workers);
        reply(fd, Msg::kClientHello, w.bytes());
        pending_clients_.push_back(fd);
        return;
      }
      if (frame.type == static_cast<uint16_t>(Msg::kRejoin)) {
        tensor::ByteReader r(frame.body);
        rejoin_index = r.i64();
        r.expect_done();
        handle_rejoin(fd, rejoin_index);
        return;
      }
      (void)send_msg(fd, Msg::kError,
                     str_to_blob("unexpected first frame type " +
                                 std::to_string(frame.type)));
      comm::close_fd(fd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetd: rejected a connecting peer: %s\n",
                   e.what());
      const bool adopted =
          rejoin_index >= 0 &&
          workers_[static_cast<size_t>(rejoin_index)].alive &&
          workers_[static_cast<size_t>(rejoin_index)].fd == fd;
      if (!adopted) {
        (void)send_msg(fd, Msg::kError, str_to_blob(e.what()));
        comm::close_fd(fd);
      }
    }
  }

  bool handle_client(int client, const comm::WireFrame& frame) {
    switch (static_cast<Msg>(frame.type)) {
      case Msg::kClientHello: {
        tensor::ByteWriter w;
        w.i64(options_.spec.agents);
        w.i64(options_.workers);
        reply(client, Msg::kClientHello, w.bytes());
        return false;
      }
      case Msg::kClientRound: {
        const core::RoundReport rep = run_round();
        tensor::ByteWriter w;
        write_report(w, rep);
        reply(client, Msg::kRoundReport, w.bytes());
        return false;
      }
      case Msg::kClientStats: {
        std::vector<comm::TransportStats> parts;
        for (const comm::WireFrame& resp :
             ask_live_workers(Msg::kStatsReq, {}, Msg::kStatsResp)) {
          tensor::ByteReader r(resp.body);
          parts.push_back(read_stats(r));
          r.expect_done();
        }
        COMDML_REQUIRE(!parts.empty(), "every fleetd worker has crashed");
        tensor::ByteWriter w;
        write_stats(w, comm::merge_transport_stats(parts));
        reply(client, Msg::kClientStatsResp, w.bytes());
        return false;
      }
      case Msg::kClientWeights: {
        // Any live worker holds the consensus model; walk past crashes.
        for (;;) {
          const int64_t t = first_alive_worker();
          const int tfd = workers_[static_cast<size_t>(t)].fd;
          if (!send_msg(tfd, Msg::kWeightsReq)) {
            notify_agents_died(mark_worker_dead(t));
            continue;
          }
          auto resp = recv_from_worker(t, Msg::kWeights);
          if (!resp.has_value()) {
            notify_agents_died(mark_worker_dead(t));
            continue;
          }
          reply(client, Msg::kWeights, resp->body);
          return false;
        }
      }
      case Msg::kClientCheckpoint: {
        reply(client, Msg::kCheckpointBlob, gather_checkpoint());
        return false;
      }
      case Msg::kClientShardCheckpoint: {
        tensor::ByteReader r(frame.body);
        const std::string dir = r.str();
        r.expect_done();
        reap_exited_workers();
        tensor::ByteWriter req;
        req.str(dir);
        std::vector<std::string> paths;
        for (const comm::WireFrame& resp : ask_live_workers(
                 Msg::kShardCheckpoint, req.bytes(), Msg::kShardDone)) {
          tensor::ByteReader rr(resp.body);
          paths.push_back(rr.str());
          rr.expect_done();
        }
        COMDML_REQUIRE(!paths.empty(), "every fleetd worker has crashed");
        tensor::ByteWriter w;
        w.u32(static_cast<uint32_t>(paths.size()));
        for (const std::string& p : paths) w.str(p);
        reply(client, Msg::kShardPaths, w.bytes());
        return false;
      }
      case Msg::kClientLeave: {
        tensor::ByteReader r(frame.body);
        const int64_t agent = r.i64();
        r.expect_done();
        COMDML_REQUIRE(agent >= 0 && agent < options_.spec.agents,
                       "leave agent " << agent << " out of range");
        tensor::ByteWriter w;
        w.i64(agent);
        (void)ask_live_workers(Msg::kLeave, w.bytes(), Msg::kAck);
        agent_live_[static_cast<size_t>(agent)] = 0;
        agent_left_[static_cast<size_t>(agent)] = 1;
        reply(client, Msg::kAck, {});
        return false;
      }
      case Msg::kClientShutdown: {
        for (const int64_t i : live_worker_ids())
          (void)send_msg(workers_[static_cast<size_t>(i)].fd,
                         Msg::kShutdown);
        reply(client, Msg::kAck, {});
        return true;
      }
      default:
        reply(client, Msg::kError,
              str_to_blob("unknown client request type " +
                          std::to_string(frame.type)));
        return false;
    }
  }

  core::RoundReport run_round() {
    // Catch workers that died while the fleet sat idle, so the round
    // starts from an agreed live set instead of discovering the corpse
    // mid-protocol.
    reap_exited_workers();
    (void)first_alive_worker();

    std::vector<int64_t> died_mid;
    {
      tensor::ByteWriter w;
      w.i64(round_);
      for (const int64_t i : live_worker_ids())
        if (!send_msg(workers_[static_cast<size_t>(i)].fd, Msg::kRound,
                      w.bytes()))
          append(died_mid, mark_worker_dead(i));
    }

    // Gather the result slots each worker filled, merge, and send every
    // worker the full vector (no agent state: every agent trained on its
    // owner). This doubles as the round barrier: every worker sits inside
    // its exchange() until the merged vector lands. A worker that dies
    // here (crash mid-training) loses its slots — its agents ride the died
    // list so the survivors kill them before forming the aggregation
    // collective.
    int64_t n_slots = -1;
    std::vector<core::RealFleet::TaskResult> merged;
    for (const int64_t i : live_worker_ids()) {
      try {
        const comm::WireFrame frame = expect_msg(
            workers_[static_cast<size_t>(i)].fd, Msg::kTaskResults,
            "worker");
        tensor::ByteReader r(frame.body);
        const int64_t n = r.i64();
        if (n_slots < 0) {
          n_slots = n;
          merged.resize(static_cast<size_t>(n));
        }
        COMDML_REQUIRE(n == n_slots,
                       "workers disagree on the round's slot count ("
                           << n << " vs " << n_slots << ")");
        const uint32_t count = r.u32();
        for (uint32_t t = 0; t < count; ++t) {
          const int64_t slot = r.i64();
          COMDML_REQUIRE(slot >= 0 && slot < n_slots,
                         "slot index " << slot << " out of range");
          merged[static_cast<size_t>(slot)] = read_task_result(r);
        }
        r.expect_done();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetd: worker %lld lost mid-training: %s\n",
                     (long long)i, e.what());
        append(died_mid, mark_worker_dead(i));
      }
    }
    COMDML_REQUIRE(n_slots >= 0,
                   "every worker died before reporting task results");
    std::sort(died_mid.begin(), died_mid.end());
    tensor::ByteWriter merged_msg;
    merged_msg.u32(static_cast<uint32_t>(merged.size()));
    for (const core::RealFleet::TaskResult& t : merged)
      write_task_result(merged_msg, t);
    merged_msg.i64s(died_mid);
    for (const int64_t i : live_worker_ids())
      if (!send_msg(workers_[static_cast<size_t>(i)].fd, Msg::kMergedResults,
                    merged_msg.bytes()))
        (void)mark_worker_dead(i);  // the sync barrier drops its agents

    // Crash barrier: after every collective attempt the workers report
    // (ok, live view); the coordinator arbitrates. Agreement = every
    // surviving worker completed the schedule over exactly the agreed
    // set. Anything else gets a fresh data mesh (a new generation, so no
    // stale frame from the aborted schedule can pollute the retry) and
    // another attempt over the shrunk set.
    for (;;) {
      struct SyncResp {
        int64_t worker = 0;
        bool ok = false;
        std::vector<int64_t> view;
      };
      std::vector<SyncResp> resps;
      for (const int64_t i : live_worker_ids()) {
        try {
          const comm::WireFrame f = expect_msg(
              workers_[static_cast<size_t>(i)].fd, Msg::kCollectiveSync,
              "worker");
          tensor::ByteReader r(f.body);
          SyncResp resp;
          resp.worker = i;
          resp.ok = r.u8() != 0;
          resp.view = r.i64s();
          r.expect_done();
          std::sort(resp.view.begin(), resp.view.end());
          resps.push_back(std::move(resp));
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "fleetd: worker %lld lost in the collective: %s\n",
                       (long long)i, e.what());
          (void)mark_worker_dead(i);
        }
      }
      COMDML_REQUIRE(!resps.empty(),
                     "every worker died inside the aggregation collective");
      std::vector<int64_t> agreed;
      {
        std::vector<int64_t> cnt(static_cast<size_t>(options_.spec.agents),
                                 0);
        for (const SyncResp& resp : resps)
          for (const int64_t a : resp.view)
            if (a >= 0 && a < options_.spec.agents)
              ++cnt[static_cast<size_t>(a)];
        for (int64_t a = 0; a < options_.spec.agents; ++a)
          if (agent_live_[static_cast<size_t>(a)] != 0 &&
              cnt[static_cast<size_t>(a)] ==
                  static_cast<int64_t>(resps.size()))
            agreed.push_back(a);
      }
      bool all_ok = true;
      for (const SyncResp& resp : resps)
        if (!resp.ok || resp.view != agreed) {
          all_ok = false;
          break;
        }
      if (all_ok) {
        tensor::ByteWriter w;
        w.u8(1);
        w.i64s(agreed);
        for (const SyncResp& resp : resps)
          if (workers_[static_cast<size_t>(resp.worker)].alive &&
              !send_msg(workers_[static_cast<size_t>(resp.worker)].fd,
                        Msg::kCollectiveAgree, w.bytes()))
            (void)mark_worker_dead(resp.worker);
        break;
      }
      ++mesh_gen_;
      const std::vector<std::string> mesh =
          mesh_addresses(options_.listen, options_.workers, mesh_gen_);
      tensor::ByteWriter w;
      w.u8(0);
      w.i64s(agreed);
      w.i64(mesh_gen_);
      w.i64s(live_worker_ids());
      w.u32(static_cast<uint32_t>(mesh.size()));
      for (const std::string& a : mesh) w.str(a);
      for (const SyncResp& resp : resps)
        if (workers_[static_cast<size_t>(resp.worker)].alive &&
            !send_msg(workers_[static_cast<size_t>(resp.worker)].fd,
                      Msg::kCollectiveAgree, w.bytes()))
          (void)mark_worker_dead(resp.worker);
    }

    // Every surviving worker finishes the round and reports its
    // RoundReport + transport snapshot.
    core::RoundReport report;
    bool have_report = false;
    std::vector<comm::TransportStats> parts;
    for (const int64_t i : live_worker_ids()) {
      try {
        const comm::WireFrame frame = expect_msg(
            workers_[static_cast<size_t>(i)].fd, Msg::kRoundDone, "worker");
        tensor::ByteReader r(frame.body);
        const core::RoundReport rep = read_report(r);
        parts.push_back(read_stats(r));
        r.expect_done();
        if (!have_report) {
          report = rep;
          have_report = true;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "fleetd: worker %lld lost finishing the round: %s\n",
                     (long long)i, e.what());
        (void)mark_worker_dead(i);
      }
    }
    COMDML_REQUIRE(have_report,
                   "every worker died before finishing the round");

    // The losses are identical on every worker (that is the point); the
    // clock is not — each worker's transport only saw its own sends, so
    // the fleet-level collective time comes from the positional merge of
    // the per-worker step histories.
    const comm::TransportStats stats = comm::merge_transport_stats(parts);
    const double compute = report.round_seconds - report.aggregation_seconds;
    report.aggregation_seconds = stats.seconds;
    report.aggregation_bytes = stats.max_bytes_sent();
    report.exposed_comm_seconds = stats.seconds;
    report.round_seconds = compute + stats.seconds;
    report.round = round_;
    ++round_;
    return report;
  }

  /// Every live worker's checkpoint frame (the agents it owns),
  /// concatenated in worker order; RealFleet::restore reads the result
  /// in any process. A worker crashing mid-gather loses its agents
  /// (marked dead and propagated) but not the checkpoint: the survivors'
  /// frames still restore, its agents left.
  std::vector<uint8_t> gather_checkpoint() {
    reap_exited_workers();
    std::vector<uint8_t> blob;
    for (const comm::WireFrame& frame :
         ask_live_workers(Msg::kCheckpointReq, {}, Msg::kCheckpointBlob))
      blob.insert(blob.end(), frame.body.begin(), frame.body.end());
    COMDML_REQUIRE(!blob.empty(), "every fleetd worker has crashed");
    return blob;
  }

  /// Re-admit a re-spawned worker into slot `k`: ship it the spec + the
  /// current mesh layout + a full consensus checkpoint, remesh the
  /// survivors alongside it (the mesh rendezvous is the barrier), then
  /// revive its crashed agents from consensus on every worker.
  void handle_rejoin(int fd, int64_t k) {
    COMDML_REQUIRE(k >= 0 && k < options_.workers,
                   "rejoin index " << k << " out of range");
    COMDML_REQUIRE(!workers_[static_cast<size_t>(k)].alive,
                   "worker " << k << " is alive; nothing to rejoin");
    reap_exited_workers();
    const std::vector<uint8_t> ckpt = gather_checkpoint();
    ++mesh_gen_;
    const std::vector<std::string> mesh =
        mesh_addresses(options_.listen, options_.workers, mesh_gen_);
    std::vector<int64_t> live = live_worker_ids();
    live.push_back(k);
    std::sort(live.begin(), live.end());
    {
      tensor::ByteWriter w;
      write_spec(w, options_.spec);
      w.i64(options_.workers);
      w.i64s(owner_);
      w.i64(mesh_gen_);
      w.i64s(live);
      w.u32(static_cast<uint32_t>(mesh.size()));
      for (const std::string& a : mesh) w.str(a);
      w.str(blob_to_str(ckpt));
      COMDML_REQUIRE(send_msg(fd, Msg::kRejoinState, w.bytes()),
                     "rejoining worker " << k << " vanished");
    }
    {
      tensor::ByteWriter w;
      w.i64(mesh_gen_);
      w.i64s(live);
      w.u32(static_cast<uint32_t>(mesh.size()));
      for (const std::string& a : mesh) w.str(a);
      for (const int64_t i : live_worker_ids())
        if (!send_msg(workers_[static_cast<size_t>(i)].fd, Msg::kRemesh,
                      w.bytes()))
          notify_agents_died(mark_worker_dead(i));
    }
    // Everyone confirms the new mesh; the rejoiner's kReady also means
    // its restore from the consensus checkpoint finished.
    (void)expect_msg(fd, Msg::kReady, "rejoining worker");
    for (const int64_t i : live_worker_ids()) {
      try {
        (void)expect_msg(workers_[static_cast<size_t>(i)].fd, Msg::kReady,
                         "worker");
      } catch (const std::exception&) {
        notify_agents_died(mark_worker_dead(i));
      }
    }
    workers_[static_cast<size_t>(k)].fd = fd;
    workers_[static_cast<size_t>(k)].alive = true;

    // Revive the agents the crash killed — but not agents a client
    // deliberately removed.
    std::vector<int64_t> back;
    for (int64_t a = 0; a < options_.spec.agents; ++a)
      if (owner_[static_cast<size_t>(a)] == k &&
          agent_live_[static_cast<size_t>(a)] == 0 &&
          agent_left_[static_cast<size_t>(a)] == 0)
        back.push_back(a);
    if (!back.empty()) {
      tensor::ByteWriter w;
      w.i64s(back);
      (void)ask_live_workers(Msg::kRejoinAgents, w.bytes(), Msg::kAck);
      for (const int64_t a : back) agent_live_[static_cast<size_t>(a)] = 1;
    }
    std::fprintf(stderr,
                 "fleetd: worker %lld rejoined (%lld agents revived)\n",
                 (long long)k, (long long)back.size());
  }

  // ---- crash bookkeeping ----------------------------------------------------

  [[nodiscard]] std::vector<int64_t> live_worker_ids() const {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].alive) ids.push_back(static_cast<int64_t>(i));
    return ids;
  }

  [[nodiscard]] int64_t first_alive_worker() const {
    for (size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].alive) return static_cast<int64_t>(i);
    COMDML_REQUIRE(false, "every fleetd worker has crashed");
    return -1;
  }

  /// Declare worker `i` dead: close its control fd (which also kills a
  /// live-but-wedged worker — it sees EOF and exits, taking its mesh
  /// sockets with it) and mark its live agents dead. Returns the agents
  /// that just died; the caller decides when to notify the survivors.
  std::vector<int64_t> mark_worker_dead(int64_t i) {
    WorkerLink& w = workers_[static_cast<size_t>(i)];
    if (!w.alive) return {};
    w.alive = false;
    if (w.fd >= 0) {
      comm::close_fd(w.fd);
      w.fd = -1;
    }
    std::vector<int64_t> died;
    for (int64_t a = 0; a < options_.spec.agents; ++a)
      if (owner_[static_cast<size_t>(a)] == i &&
          agent_live_[static_cast<size_t>(a)] != 0) {
        agent_live_[static_cast<size_t>(a)] = 0;
        died.push_back(a);
      }
    std::fprintf(stderr,
                 "fleetd: worker %lld is down; %lld agent(s) died\n",
                 (long long)i, (long long)died.size());
    return died;
  }

  /// Tell every surviving worker (between rounds — they are all in their
  /// serve loops) that `died` agents are gone. A worker that fails the
  /// notification is itself dead, and its agents join the next wave.
  void notify_agents_died(std::vector<int64_t> died) {
    while (!died.empty()) {
      std::sort(died.begin(), died.end());
      tensor::ByteWriter w;
      w.i64s(died);
      std::vector<int64_t> next;
      std::vector<int64_t> sent;
      for (const int64_t i : live_worker_ids()) {
        if (send_msg(workers_[static_cast<size_t>(i)].fd, Msg::kAgentsDied,
                     w.bytes()))
          sent.push_back(i);
        else
          append(next, mark_worker_dead(i));
      }
      for (const int64_t i : sent) {
        if (!workers_[static_cast<size_t>(i)].alive) continue;
        try {
          (void)expect_msg(workers_[static_cast<size_t>(i)].fd, Msg::kAck,
                           "worker");
        } catch (const std::exception&) {
          append(next, mark_worker_dead(i));
        }
      }
      died = std::move(next);
    }
  }

  /// Heartbeat between requests, without a round trip: the fleet is idle
  /// (every worker sits in its serve loop and owes the coordinator no
  /// frame), so a control socket that polls readable with nothing to read
  /// is a worker that exited. One zero-timeout poll over the live workers'
  /// sockets finds them; they are marked dead and their agents' deaths
  /// propagate to the survivors before the next request goes out.
  void reap_exited_workers() {
    std::vector<struct pollfd> fds;
    std::vector<int64_t> ids;
    for (const int64_t i : live_worker_ids()) {
      fds.push_back({workers_[static_cast<size_t>(i)].fd, POLLIN, 0});
      ids.push_back(i);
    }
    int rc = 0;
    do {
      rc = ::poll(fds.data(), fds.size(), 0);
    } while (rc < 0 && errno == EINTR);
    std::vector<int64_t> died;
    for (size_t k = 0; rc > 0 && k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      char byte = 0;
      const ssize_t n =
          ::recv(fds[k].fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR))
        append(died, mark_worker_dead(ids[k]));
    }
    notify_agents_died(std::move(died));
  }

  /// Send one request to every live worker, then collect each one's
  /// `want` reply in worker order. Workers that vanish on the way are
  /// marked dead, and their agents' deaths reach the survivors once every
  /// reply is in (a worker still owing its reply cannot take the notice).
  /// A kError reply throws after the others were drained.
  std::vector<comm::WireFrame> ask_live_workers(
      Msg type, const std::vector<uint8_t>& body, Msg want) {
    std::vector<int64_t> died;
    std::vector<int64_t> sent;
    for (const int64_t i : live_worker_ids()) {
      if (send_msg(workers_[static_cast<size_t>(i)].fd, type, body))
        sent.push_back(i);
      else
        append(died, mark_worker_dead(i));
    }
    std::vector<comm::WireFrame> replies;
    std::optional<std::runtime_error> failed;
    for (const int64_t i : sent) {
      try {
        auto resp = recv_from_worker(i, want);
        if (resp.has_value())
          replies.push_back(std::move(*resp));
        else
          append(died, mark_worker_dead(i));
      } catch (const std::runtime_error& e) {
        if (!failed) failed.emplace(e);
      }
    }
    notify_agents_died(std::move(died));
    if (failed) throw *failed;
    return replies;
  }

  /// Receive one frame from worker `i` where only `want` or death make
  /// sense: nullopt means the worker vanished (the caller marks it dead);
  /// a kError frame throws — the worker is alive, its failure belongs to
  /// the client driving this RPC.
  [[nodiscard]] std::optional<comm::WireFrame> recv_from_worker(int64_t i,
                                                                Msg want) {
    auto frame = comm::recv_frame(workers_[static_cast<size_t>(i)].fd);
    if (!frame.has_value()) return std::nullopt;
    if (frame->type == static_cast<uint16_t>(Msg::kError))
      throw std::runtime_error(
          "worker " + std::to_string(i) + ": " +
          std::string(frame->body.begin(), frame->body.end()));
    COMDML_REQUIRE(frame->type == static_cast<uint16_t>(want),
                   "worker " << i << " sent frame type " << frame->type
                             << ", expected "
                             << static_cast<uint16_t>(want));
    return frame;
  }

  static void append(std::vector<int64_t>& into,
                     const std::vector<int64_t>& more) {
    into.insert(into.end(), more.begin(), more.end());
  }

  /// Join-phase broadcast: every worker must still be there.
  void broadcast(Msg type, const std::vector<uint8_t>& body) {
    for (size_t i = 0; i < workers_.size(); ++i)
      COMDML_REQUIRE(send_msg(workers_[i].fd, type, body),
                     "worker " << i << " is gone");
  }

  void reply(int client, Msg type, const std::vector<uint8_t>& body) {
    // A vanished client is not an error worth killing the fleet over.
    (void)send_msg(client, type, body);
  }

  CoordinatorOptions options_;
  int listen_fd_ = -1;
  std::vector<WorkerLink> workers_;
  std::vector<int64_t> owner_;
  /// The coordinator's consensus agent liveness: crashes and client
  /// leaves clear bits; rejoins set them back.
  std::vector<char> agent_live_;
  /// Agents removed by an explicit client leave — a rejoining worker does
  /// not resurrect these.
  std::vector<char> agent_left_;
  std::deque<int> pending_clients_;
  /// Data-mesh generation; bumped on every remesh (crash recovery and
  /// worker rejoin) so a rebuilt mesh never collides with the sockets of
  /// the one it replaces.
  int64_t mesh_gen_ = 0;
  int64_t round_ = 0;
};

}  // namespace

int run_coordinator(const CoordinatorOptions& options) {
  try {
    Coordinator coordinator(options);
    return coordinator.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd coordinator: %s\n", e.what());
    return 1;
  }
}

int run_worker(const WorkerOptions& options) {
  try {
    const comm::SocketAddress addr = comm::parse_address(options.connect);
    const int fd = comm::dial(addr, 30.0);
    COMDML_REQUIRE(fd >= 0, "cannot reach coordinator at "
                                << options.connect);
    FleetSpec spec;
    int64_t workers = 0;
    std::vector<int64_t> owner;
    std::vector<int64_t> live_workers;
    std::vector<std::string> mesh_addrs;
    std::vector<uint8_t> restore_blob;
    if (!options.rejoin) {
      tensor::ByteWriter w;
      w.i64(options.index);
      COMDML_REQUIRE(send_msg(fd, Msg::kJoin, w.bytes()),
                     "coordinator closed the connection");
      const comm::WireFrame start =
          expect_msg(fd, Msg::kStart, "coordinator");
      tensor::ByteReader r(start.body);
      spec = read_spec(r);
      workers = r.i64();
      owner = r.i64s();
      const uint32_t naddr = r.u32();
      for (uint32_t i = 0; i < naddr; ++i) mesh_addrs.push_back(r.str());
      r.expect_done();
      for (int64_t i = 0; i < workers; ++i) live_workers.push_back(i);
    } else {
      tensor::ByteWriter w;
      w.i64(options.index);
      COMDML_REQUIRE(send_msg(fd, Msg::kRejoin, w.bytes()),
                     "coordinator closed the connection");
      const comm::WireFrame state =
          expect_msg(fd, Msg::kRejoinState, "coordinator");
      tensor::ByteReader r(state.body);
      spec = read_spec(r);
      workers = r.i64();
      owner = r.i64s();
      (void)r.i64();  // mesh generation, implied by the address list
      live_workers = r.i64s();
      const uint32_t naddr = r.u32();
      for (uint32_t i = 0; i < naddr; ++i) mesh_addrs.push_back(r.str());
      restore_blob = str_to_blob(r.str());
      r.expect_done();
    }

    // The full deterministic fleet — identical replicas on every worker;
    // the DistContext below is what narrows training to owned agents.
    core::FleetRuntime fleet = build_spec_fleet(spec);
    core::RealFleet* rf = fleet.real_comdml();
    COMDML_REQUIRE(rf != nullptr, "spec fleet is not a real ComDML fleet");

    // The data mesh is rebuilt on every generation change (crash
    // recovery, rejoin); the unique_ptr swap tears the old one down
    // first so its reader threads and sockets are gone before the new
    // rendezvous starts.
    std::unique_ptr<comm::SocketTransport> mesh;
    const auto build_mesh = [&](const std::vector<int64_t>& live,
                                const std::vector<std::string>& addrs) {
      comm::SocketPeerConfig cfg;
      cfg.owner = owner;
      cfg.self = options.index;
      cfg.addrs = addrs;
      if (static_cast<int64_t>(live.size()) < workers) {
        cfg.process_alive.assign(static_cast<size_t>(workers), 0);
        for (const int64_t p : live)
          cfg.process_alive[static_cast<size_t>(p)] = 1;
      }
      mesh.reset();
      mesh = std::make_unique<comm::SocketTransport>(
          comm::LinkGrid::uniform(spec.agents, spec.mbps, spec.latency_sec),
          cfg);
      mesh->wait_ready();
    };
    build_mesh(live_workers, mesh_addrs);

    const CrashHook crash;

    core::RealFleet::DistContext ctx;
    ctx.shard = options.index;
    ctx.shards = workers;
    ctx.owner = owner;
    ctx.transport = mesh.get();
    ctx.exchange = [&](core::RealFleet::ExchangeIO& io) {
      const std::vector<int64_t>& slot_agent = *io.slot_agent;
      std::vector<core::RealFleet::TaskResult>& results = *io.results;
      std::vector<int64_t> filled;
      for (size_t t = 0; t < slot_agent.size(); ++t)
        if (owner[static_cast<size_t>(slot_agent[t])] == options.index)
          filled.push_back(static_cast<int64_t>(t));
      tensor::ByteWriter w;
      w.i64(static_cast<int64_t>(results.size()));
      w.u32(static_cast<uint32_t>(filled.size()));
      for (const int64_t t : filled) {
        w.i64(t);
        write_task_result(w, results[static_cast<size_t>(t)]);
      }
      COMDML_REQUIRE(send_msg(fd, Msg::kTaskResults, w.bytes()),
                     "coordinator is gone");
      const comm::WireFrame merged =
          expect_msg(fd, Msg::kMergedResults, "coordinator");
      tensor::ByteReader r(merged.body);
      const uint32_t n = r.u32();
      COMDML_REQUIRE(n == results.size(),
                     "merged results cover " << n << " slots, expected "
                                             << results.size());
      for (uint32_t t = 0; t < n; ++t) results[t] = read_task_result(r);
      io.died = r.i64s();
      r.expect_done();
      if (crash.fires(rf->round(), "collective"))
        crash_now(options.index, "the aggregation collective");
    };
    ctx.collective_sync =
        [&](const std::vector<int64_t>& view,
            bool ok) -> std::pair<std::vector<int64_t>, comm::Transport*> {
      {
        tensor::ByteWriter w;
        w.u8(ok ? 1 : 0);
        w.i64s(view);
        COMDML_REQUIRE(send_msg(fd, Msg::kCollectiveSync, w.bytes()),
                       "coordinator is gone");
      }
      const comm::WireFrame agree =
          expect_msg(fd, Msg::kCollectiveAgree, "coordinator");
      tensor::ByteReader r(agree.body);
      const bool done = r.u8() != 0;
      std::vector<int64_t> agreed = r.i64s();
      if (done) {
        r.expect_done();
        return {std::move(agreed), nullptr};
      }
      (void)r.i64();  // mesh generation, implied by the address list
      const std::vector<int64_t> live = r.i64s();
      const uint32_t naddr = r.u32();
      std::vector<std::string> addrs;
      for (uint32_t i = 0; i < naddr; ++i) addrs.push_back(r.str());
      r.expect_done();
      build_mesh(live, addrs);
      return {std::move(agreed), mesh.get()};
    };
    rf->set_dist_context(std::move(ctx));
    // A rejoiner restores after the context is installed (the context
    // requires a fresh fleet; the restore then fast-forwards it to the
    // consensus round). Its own agents are in no survivor's frame, so
    // they come up left until kRejoinAgents revives them.
    if (options.rejoin) fleet.restore(restore_blob);

    // This worker's checkpoint frame covers the agents it owns: the same
    // bytes whether they go to the coordinator or to a shard file.
    const auto own_frame = [&] {
      std::vector<int64_t> owned;
      for (int64_t a = 0; a < spec.agents; ++a)
        if (owner[static_cast<size_t>(a)] == options.index)
          owned.push_back(a);
      return fleet.checkpoint_shard(options.index, workers, owned);
    };
    COMDML_REQUIRE(send_msg(fd, Msg::kReady), "coordinator is gone");

    for (;;) {
      auto frame = comm::recv_frame(fd);
      if (!frame.has_value()) {
        std::fprintf(stderr, "fleetd worker %lld: coordinator vanished\n",
                     (long long)options.index);
        return 1;
      }
      try {
        switch (static_cast<Msg>(frame->type)) {
          case Msg::kRound: {
            if (crash.fires(fleet.rounds_executed(), "train"))
              crash_now(options.index, "training");
            // New round, clean transport slate — stats and mail reset
            // before any training (the exchange barrier guarantees no
            // peer reaches the aggregation while anyone is still here).
            mesh->reset();
            const core::RoundReport rep = fleet.step();
            tensor::ByteWriter w;
            write_report(w, rep);
            write_stats(w, mesh->stats_snapshot());
            COMDML_REQUIRE(send_msg(fd, Msg::kRoundDone, w.bytes()),
                           "coordinator is gone");
            break;
          }
          case Msg::kAgentsDied: {
            tensor::ByteReader req(frame->body);
            const std::vector<int64_t> died = req.i64s();
            req.expect_done();
            for (const int64_t a : died) fleet.leave(a);
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kRemesh: {
            tensor::ByteReader req(frame->body);
            (void)req.i64();  // mesh generation
            const std::vector<int64_t> live = req.i64s();
            const uint32_t naddr = req.u32();
            std::vector<std::string> addrs;
            for (uint32_t i = 0; i < naddr; ++i) addrs.push_back(req.str());
            req.expect_done();
            build_mesh(live, addrs);
            rf->set_dist_transport(mesh.get());
            (void)send_msg(fd, Msg::kReady);
            break;
          }
          case Msg::kRejoinAgents: {
            tensor::ByteReader req(frame->body);
            const std::vector<int64_t> back = req.i64s();
            req.expect_done();
            for (const int64_t a : back) fleet.rejoin(a);
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kStatsReq: {
            tensor::ByteWriter w;
            write_stats(w, mesh->stats_snapshot());
            (void)send_msg(fd, Msg::kStatsResp, w.bytes());
            break;
          }
          case Msg::kCheckpointReq: {
            if (crash.point == "gather" && crash.round >= 0 &&
                fleet.rounds_executed() >= crash.round)
              crash_now(options.index, "the checkpoint gather");
            (void)send_msg(fd, Msg::kCheckpointBlob, own_frame());
            break;
          }
          case Msg::kShardCheckpoint: {
            tensor::ByteReader req(frame->body);
            const std::string dir = req.str();
            req.expect_done();
            const std::vector<uint8_t> blob = own_frame();
            std::filesystem::create_directories(dir);
            char name[64];
            std::snprintf(name, sizeof(name), "fleet_r%06lld.w%02lld.cmdl",
                          (long long)fleet.rounds_executed(),
                          (long long)options.index);
            const std::string path = dir + "/" + name;
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            COMDML_REQUIRE(out.good(), "cannot open shard file " << path);
            out.write(reinterpret_cast<const char*>(blob.data()),
                      static_cast<std::streamsize>(blob.size()));
            out.flush();
            COMDML_REQUIRE(out.good(),
                           "short write to shard file " << path);
            tensor::ByteWriter w;
            w.str(path);
            (void)send_msg(fd, Msg::kShardDone, w.bytes());
            break;
          }
          case Msg::kWeightsReq: {
            const std::vector<int64_t> live = fleet.live_agents();
            COMDML_REQUIRE(!live.empty(), "no live agents");
            (void)send_msg(
                fd, Msg::kWeights,
                tensor::pack_tensors(nn::state_of(fleet.model(live[0]))));
            break;
          }
          case Msg::kLeave: {
            tensor::ByteReader req(frame->body);
            fleet.leave(req.i64());
            req.expect_done();
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kShutdown:
            return 0;
          default:
            (void)send_msg(fd, Msg::kError,
                           str_to_blob("unknown worker request type " +
                                       std::to_string(frame->type)));
        }
      } catch (const std::exception& e) {
        (void)send_msg(fd, Msg::kError, str_to_blob(e.what()));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd worker %lld: %s\n",
                 (long long)options.index, e.what());
    return 1;
  }
}

FleetClient::FleetClient(const std::string& address, double timeout_sec) {
  const comm::SocketAddress addr = comm::parse_address(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_sec));
  int refused_in_a_row = 0;
  int err = 0;
  for (;;) {
    fd_ = comm::dial_once(addr, &err);
    if (fd_ >= 0) break;
    // A unix socket file that exists but persistently refuses connections
    // is a corpse: a dead coordinator's leftover. Fail fast instead of
    // burning the whole timeout (ENOENT, by contrast, may just be a
    // coordinator that has not bound yet).
    if (addr.kind == comm::SocketAddress::Kind::kUnix &&
        err == ECONNREFUSED) {
      if (++refused_in_a_row >= 3)
        throw CoordinatorUnreachable(
            "stale fleetd control socket at " + address +
            ": the socket file exists but nothing is listening (dead "
            "coordinator?); remove the file or restart fleetd");
    } else {
      refused_in_a_row = 0;
    }
    if (std::chrono::steady_clock::now() >= deadline)
      throw CoordinatorUnreachable(
          "cannot reach fleetd at " + address + " within " +
          std::to_string(timeout_sec) + "s (" + std::strerror(err) + ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  const comm::WireFrame hello =
      rpc(Msg::kClientHello, {}, Msg::kClientHello);
  tensor::ByteReader r(hello.body);
  agents_ = r.i64();
  workers_ = r.i64();
  r.expect_done();
}

FleetClient::~FleetClient() {
  if (fd_ >= 0) comm::close_fd(fd_);
}

comm::WireFrame FleetClient::rpc(Msg type, const std::vector<uint8_t>& body,
                                 Msg want) {
  COMDML_REQUIRE(send_msg(fd_, type, body), "fleetd is gone");
  return expect_msg(fd_, want, "fleetd");
}

core::RoundReport FleetClient::round() {
  const comm::WireFrame frame = rpc(Msg::kClientRound, {}, Msg::kRoundReport);
  tensor::ByteReader r(frame.body);
  core::RoundReport rep = read_report(r);
  r.expect_done();
  return rep;
}

comm::TransportStats FleetClient::stats() {
  const comm::WireFrame frame =
      rpc(Msg::kClientStats, {}, Msg::kClientStatsResp);
  tensor::ByteReader r(frame.body);
  comm::TransportStats s = read_stats(r);
  r.expect_done();
  return s;
}

std::vector<uint8_t> FleetClient::weights() {
  return rpc(Msg::kClientWeights, {}, Msg::kWeights).body;
}

std::vector<uint8_t> FleetClient::checkpoint() {
  return rpc(Msg::kClientCheckpoint, {}, Msg::kCheckpointBlob).body;
}

std::vector<std::string> FleetClient::shard_checkpoint(
    const std::string& dir) {
  tensor::ByteWriter w;
  w.str(dir);
  const comm::WireFrame frame =
      rpc(Msg::kClientShardCheckpoint, w.bytes(), Msg::kShardPaths);
  tensor::ByteReader r(frame.body);
  const uint32_t n = r.u32();
  std::vector<std::string> paths;
  for (uint32_t i = 0; i < n; ++i) paths.push_back(r.str());
  r.expect_done();
  return paths;
}

void FleetClient::leave(int64_t agent) {
  tensor::ByteWriter w;
  w.i64(agent);
  (void)rpc(Msg::kClientLeave, w.bytes(), Msg::kAck);
}

void FleetClient::shutdown() {
  (void)rpc(Msg::kClientShutdown, {}, Msg::kAck);
}

}  // namespace comdml::daemon
