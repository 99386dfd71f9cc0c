// Real-wire transport backend: the exact message-level API of
// InProcTransport over Unix-domain (default) or TCP sockets.
//
// A fleet's endpoints are partitioned across OS processes by an owner map;
// each process runs one SocketTransport over the full LinkGrid. Sends
// between two locally-owned endpoints take the ordinary in-process path.
// Sends to a remote endpoint run the SAME shared accounting core — codec
// encode, per-edge seq numbers, word-wise FNV-1a checksums, deterministic
// fault decisions — and then ship a length-prefixed data frame to the owning
// process, where a reader thread injects it into the destination mailbox
// and charges the receive-side half of the accounting. Because both halves
// come from the one core in comm/transport.cpp, predicted-vs-executed
// parity and goodput_bytes() invariance keep holding across processes:
// merge_transport_stats() over the per-process snapshots reproduces the
// single-transport numbers exactly for lockstep schedules.
//
// Processes form a full mesh at startup: process i dials every j < i
// (retrying while the peer boots) and accepts from every j > i, each
// connection opening with a hello frame naming the dialing process. A peer
// disconnect marks every endpoint it owns dead, so blocked receives and
// later sends surface as the existing typed EndpointDownError instead of
// hanging — process death is endpoint churn, same as in-process.
//
// Loss recovery across processes: a receiver-side ReliableChannel cannot
// re-send a remote sender's payload, so nack() ships a NACK control frame
// to the owning process, which retransmits from a parked per-edge copy of
// the last payload (parked only when a FaultPlan is configured) and closes
// a step so the deterministic drop hash advances.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <thread>
#include <unordered_map>

#include "comm/socket_io.hpp"
#include "comm/transport.hpp"

namespace comdml::comm {

/// How a fleet's endpoints map onto OS processes, and where each process
/// listens for its peers' data frames.
struct SocketPeerConfig {
  std::vector<int64_t> owner;       ///< endpoint -> owning process
  int64_t self = 0;                 ///< this process's index
  std::vector<std::string> addrs;   ///< per process: "unix:..." | "tcp:..."
  /// Per-process liveness mask; empty means every process participates.
  /// A mesh rebuilt after a worker crash lists the dead process as 0: no
  /// dial/accept is attempted for it and every endpoint it owns starts
  /// failed, so the survivor schedule sees the same EndpointDownError
  /// surface a live-then-crashed peer would have produced.
  std::vector<char> process_alive;
  double connect_timeout_sec = 30.0;
  /// Real-time window try_recv_from waits for an in-flight frame before
  /// reporting "nothing pending" — absorbs wire latency so a
  /// ReliableChannel doesn't fire spurious retransmits.
  double recv_grace_sec = 0.05;
  /// Blocking recv() gives up after this long (a schedule bug or a wedged
  /// peer; peer *death* is detected separately and throws earlier).
  double recv_timeout_sec = 120.0;
};

class SocketTransport final : public Transport {
 public:
  SocketTransport(LinkGrid grid, SocketPeerConfig peers,
                  const Codec* codec = nullptr, FaultPlan faults = {});
  ~SocketTransport() override;

  /// Block until the full peer mesh is connected (throws if setup failed).
  void wait_ready() const;
  /// The concrete listen address — for "tcp:host:0" this carries the real
  /// bound port.
  [[nodiscard]] std::string bound_address() const { return bound_.str(); }
  [[nodiscard]] int64_t owner_of(int64_t endpoint) const;
  [[nodiscard]] int64_t processes() const noexcept {
    return static_cast<int64_t>(cfg_.addrs.size());
  }
  /// True when `process` participates in this mesh (alive per the config
  /// mask at construction; crashes afterwards are tracked by peer_lost).
  [[nodiscard]] bool process_in_mesh(int64_t process) const noexcept {
    return cfg_.process_alive.empty() ||
           cfg_.process_alive[static_cast<size_t>(process)] != 0;
  }
  /// Processes participating in this mesh.
  [[nodiscard]] int64_t live_processes() const noexcept {
    if (cfg_.process_alive.empty()) return processes();
    int64_t n = 0;
    for (const char alive : cfg_.process_alive) n += alive != 0 ? 1 : 0;
    return n;
  }

  /// Blocking matched receive: waits for the frame to arrive off the wire
  /// (up to recv_timeout_sec) when the sender lives in another process.
  [[nodiscard]] Message recv(int64_t dst, int64_t src) override;
  /// Matched receive with a real-time grace window for remote senders.
  [[nodiscard]] std::optional<Message> try_recv_from(int64_t dst,
                                                     int64_t src) override;
  /// Ship a retransmission request to the process owning `src`.
  [[nodiscard]] bool nack(int64_t src, int64_t dst,
                          int64_t last_delivered_seq) override;

 protected:
  [[nodiscard]] bool delivers_payload() const noexcept override {
    return true;
  }
  [[nodiscard]] bool local_endpoint(int64_t endpoint) const override;
  void forward_remote(RemoteFrame&& frame) override;

 private:
  struct Peer {
    int fd = -1;
    std::thread reader;
    std::mutex write_mutex;
    std::atomic<bool> down{false};
  };

  /// True once any peer process vanished after the mesh formed. A doomed
  /// collective aborts promptly everywhere: a blocked recv whose frame has
  /// not arrived throws EndpointDownError as soon as the flag is up, even
  /// when the awaited endpoint itself is owned by a live peer — the sender
  /// may have aborted its schedule before sending, and only the recovery
  /// barrier can tell. Frames already delivered still drain first.
  [[nodiscard]] bool mesh_degraded() const noexcept {
    return peer_died_.load();
  }

  void setup_mesh();
  void reader_loop(int64_t process);
  void peer_lost(int64_t process);
  /// Decode and deliver a data frame from `process`. Throws on a malformed
  /// body (truncated, trailing bytes, an edge outside the mesh or not owned
  /// as claimed, a payload whose length is not `elems`); reader_loop then
  /// treats the peer as lost.
  void handle_data(int64_t process, const std::vector<uint8_t>& body);
  void handle_nack_frame(const std::vector<uint8_t>& body);
  [[nodiscard]] bool send_to_peer(int64_t process, uint16_t type,
                                  const std::vector<uint8_t>& body);

  SocketPeerConfig cfg_;
  SocketAddress bound_;
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Peer>> peers_;  // index == process, self empty
  std::thread setup_thread_;
  std::atomic<bool> running_{true};
  /// Set by peer_lost: a peer vanished after construction (a mask-dead
  /// process configured at construction does not count).
  std::atomic<bool> peer_died_{false};

  mutable std::mutex ready_mutex_;
  mutable std::condition_variable ready_cv_;
  bool ready_ = false;
  std::string setup_error_;

  // Wakes receives blocked on remote frames (inject / peer death).
  mutable std::mutex mail_mutex_;
  mutable std::condition_variable mail_cv_;

  // Last payload sent per remote directed edge, kept pre-codec so a NACK
  // retransmission re-encodes exactly like a fresh send. Only populated
  // when the FaultPlan can actually lose messages.
  struct Parked {
    int64_t seq = -1;
    int64_t elems = 0;
    std::vector<double> data;
  };
  std::mutex park_mutex_;
  std::unordered_map<int64_t, Parked> parked_;  // key: src * endpoints + dst
  bool park_enabled_ = false;
};

}  // namespace comdml::comm
