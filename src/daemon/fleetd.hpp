// fleetd — host one ComDML fleet across OS processes.
//
// One coordinator process owns the control plane: it listens on a
// unix/tcp address, waits for `workers` worker processes to join, ships
// each the FleetSpec + owner map + data-mesh addresses, and then drives
// rounds on behalf of connected clients. Each worker builds the full
// deterministic fleet from the spec (identical replicas everywhere),
// connects a comm::SocketTransport data mesh to its sibling workers, and
// trains only its own agents: a pair's split half on the slow agent's
// worker, the fast agent's own training on the fast agent's. Task results
// flow through the coordinator (gather -> merge -> broadcast); no agent
// state does. The aggregation collective runs rank-partitioned over the
// socket mesh. The result is bit-identical to the same fleet stepped in a
// single process — the socket_test asserts final weights byte-for-byte.
//
//   fleetd --listen unix:/tmp/fleet.sock --workers 2 --agents 4   # coord
//   fleetd --worker --index 0 --connect unix:/tmp/fleet.sock      # worker
//   fleetd --worker --index 1 --connect unix:/tmp/fleet.sock
//   fleet_cli --connect unix:/tmp/fleet.sock --rounds 3           # client
//
// FleetClient is the embeddable client the CLI and tests use: one blocking
// RPC per call, over the same framed wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/protocol.hpp"

namespace comdml::daemon {

struct CoordinatorOptions {
  std::string listen;  ///< control address ("unix:..." | "tcp:host:port")
  int64_t workers = 2;
  FleetSpec spec;
};

/// Run the coordinator until a client sends kClientShutdown (forwarded to
/// every worker). Returns a process exit code.
int run_coordinator(const CoordinatorOptions& options);

struct WorkerOptions {
  std::string connect;  ///< the coordinator's control address
  int64_t index = 0;
  /// Re-spawned replacement for a crashed worker: instead of the kJoin
  /// handshake it sends kRejoin, receives the spec + current mesh layout +
  /// the live workers' checkpoint frames, restores mid-history, and
  /// re-enters the serve loop. Its previously-dead agents then rejoin from
  /// consensus on every worker.
  bool rejoin = false;
};

/// Run one worker until the coordinator sends kShutdown (or dies).
/// Returns a process exit code.
int run_worker(const WorkerOptions& options);

/// The coordinator cannot be reached: nothing ever answered within the
/// connect timeout, or — caught early, without burning the timeout — a
/// unix control socket exists but persistently refuses connections, the
/// signature of a stale socket file left behind by a dead coordinator.
/// Typed so fleet_cli can print an actionable message (and exit code)
/// instead of a generic connect failure.
class CoordinatorUnreachable : public std::runtime_error {
 public:
  explicit CoordinatorUnreachable(const std::string& what)
      : std::runtime_error(what) {}
};

/// Blocking client for a running fleetd coordinator. Every method is one
/// RPC; errors from the daemon surface as std::runtime_error.
class FleetClient {
 public:
  /// Connects and completes the hello handshake. Throws
  /// CoordinatorUnreachable on timeout or on a stale unix control socket
  /// (detected in ~quarter of a second, not the full timeout).
  explicit FleetClient(const std::string& address,
                       double timeout_sec = 30.0);
  ~FleetClient();
  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  [[nodiscard]] int64_t agents() const noexcept { return agents_; }
  [[nodiscard]] int64_t workers() const noexcept { return workers_; }

  /// Drive one fleet round; the report carries worker 0's losses (every
  /// worker computes identical ones) and the merged transport clock.
  core::RoundReport round();
  /// Merged per-worker transport stats of the last round.
  [[nodiscard]] comm::TransportStats stats();
  /// pack_tensors() of the consensus model (first live agent's replica).
  [[nodiscard]] std::vector<uint8_t> weights();
  /// Whole-fleet checkpoint: every live worker's checkpoint frame (the
  /// agents it owns), concatenated in worker order. RealFleet::restore
  /// reads it in any process; the agents of a worker that crashed before
  /// answering come up left.
  [[nodiscard]] std::vector<uint8_t> checkpoint();
  /// Quorum checkpoint: every live worker writes the same frame into
  /// `dir` (a path valid on the workers' filesystem) and the call returns
  /// the file paths. Any quorum of the files, concatenated, restores
  /// through RealFleet::restore.
  [[nodiscard]] std::vector<std::string> shard_checkpoint(
      const std::string& dir);
  /// Remove an agent from the fleet on every worker.
  void leave(int64_t agent);
  /// Stop the coordinator and all workers.
  void shutdown();

 private:
  comm::WireFrame rpc(Msg type, const std::vector<uint8_t>& body,
                      Msg want);

  int fd_ = -1;
  int64_t agents_ = 0;
  int64_t workers_ = 0;
};

}  // namespace comdml::daemon
