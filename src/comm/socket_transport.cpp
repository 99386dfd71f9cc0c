#include "comm/socket_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "tensor/check.hpp"
#include "tensor/serialize.hpp"

namespace comdml::comm {

namespace {

using Clock = std::chrono::steady_clock;

// Data-plane frame types (the control plane in src/daemon has its own).
constexpr uint16_t kPeerHello = 1;
constexpr uint16_t kPeerData = 2;
constexpr uint16_t kPeerNack = 3;

constexpr uint8_t kFlagCorrupted = 1u << 0;
constexpr uint8_t kFlagRetransmit = 1u << 1;
constexpr uint8_t kFlagReorder = 1u << 2;
constexpr uint8_t kFlagDupCopy = 1u << 3;

Clock::duration seconds_of(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

SocketTransport::SocketTransport(LinkGrid grid, SocketPeerConfig peers,
                                 const Codec* codec, FaultPlan faults)
    : Transport(std::move(grid), codec, std::move(faults)),
      cfg_(std::move(peers)) {
  const int64_t n = endpoints();
  const auto procs = static_cast<int64_t>(cfg_.addrs.size());
  COMDML_REQUIRE(procs >= 1, "SocketTransport needs at least one process");
  COMDML_REQUIRE(cfg_.self >= 0 && cfg_.self < procs,
                 "self index " << cfg_.self << " outside " << procs
                               << " processes");
  COMDML_REQUIRE(static_cast<int64_t>(cfg_.owner.size()) == n,
                 "owner map covers " << cfg_.owner.size() << " endpoints, "
                                     << "transport has " << n);
  for (int64_t e = 0; e < n; ++e)
    COMDML_REQUIRE(cfg_.owner[static_cast<size_t>(e)] >= 0 &&
                       cfg_.owner[static_cast<size_t>(e)] < procs,
                   "endpoint " << e << " owned by out-of-range process "
                               << cfg_.owner[static_cast<size_t>(e)]);
  if (!cfg_.process_alive.empty()) {
    COMDML_REQUIRE(static_cast<int64_t>(cfg_.process_alive.size()) == procs,
                   "process_alive mask covers " << cfg_.process_alive.size()
                                                << " of " << procs
                                                << " processes");
    COMDML_REQUIRE(cfg_.process_alive[static_cast<size_t>(cfg_.self)] != 0,
                   "this process (" << cfg_.self
                                    << ") is marked dead in its own mesh");
  }
  park_enabled_ = has_message_faults();
  peers_.resize(static_cast<size_t>(procs));
  for (auto& p : peers_) p = std::make_unique<Peer>();
  // Endpoints owned by processes excluded from the mesh are dead on
  // arrival — sends and matched receives surface EndpointDownError
  // immediately instead of dialing a peer that will never answer.
  for (int64_t p = 0; p < procs; ++p) {
    if (process_in_mesh(p)) continue;
    peers_[static_cast<size_t>(p)]->down.store(true);
    for (int64_t e = 0; e < n; ++e)
      if (cfg_.owner[static_cast<size_t>(e)] == p) fail_endpoint(e);
  }
  if (live_processes() == 1) {
    // Degenerate single-process mesh (one process configured, or the sole
    // survivor of a crash): every live endpoint is local, no wire.
    bound_ = parse_address(cfg_.addrs[static_cast<size_t>(cfg_.self)]);
    std::lock_guard<std::mutex> guard(ready_mutex_);
    ready_ = true;
    return;
  }
  const SocketAddress listen_addr =
      parse_address(cfg_.addrs[static_cast<size_t>(cfg_.self)]);
  listen_fd_ = listen_on(listen_addr, &bound_);
  setup_thread_ = std::thread(&SocketTransport::setup_mesh, this);
}

SocketTransport::~SocketTransport() {
  running_.store(false);
  if (setup_thread_.joinable()) setup_thread_.join();
  for (auto& p : peers_)
    if (p->fd >= 0) (void)::shutdown(p->fd, SHUT_RDWR);
  for (auto& p : peers_)
    if (p->reader.joinable()) p->reader.join();
  for (auto& p : peers_) close_fd(p->fd);
  if (listen_fd_ >= 0) {
    close_fd(listen_fd_);
    if (bound_.kind == SocketAddress::Kind::kUnix)
      (void)::unlink(bound_.path.c_str());
  }
  mail_cv_.notify_all();
}

void SocketTransport::wait_ready() const {
  std::unique_lock<std::mutex> guard(ready_mutex_);
  ready_cv_.wait(guard, [this] {
    return ready_ || !setup_error_.empty() || !running_.load();
  });
  if (!setup_error_.empty())
    throw std::runtime_error("SocketTransport mesh setup failed: " +
                             setup_error_);
  COMDML_REQUIRE(ready_, "SocketTransport torn down before the mesh formed");
}

int64_t SocketTransport::owner_of(int64_t endpoint) const {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  return cfg_.owner[static_cast<size_t>(endpoint)];
}

bool SocketTransport::local_endpoint(int64_t endpoint) const {
  return cfg_.owner[static_cast<size_t>(endpoint)] == cfg_.self;
}

void SocketTransport::setup_mesh() {
  try {
    const auto deadline =
        Clock::now() + seconds_of(cfg_.connect_timeout_sec);
    // Dial every lower-indexed peer (their listeners may still be booting;
    // retry until the connect budget runs out), then accept the rest.
    for (int64_t j = 0; j < cfg_.self; ++j) {
      if (!process_in_mesh(j)) continue;
      const SocketAddress addr =
          parse_address(cfg_.addrs[static_cast<size_t>(j)]);
      int fd = -1;
      while (running_.load()) {
        fd = dial(addr, /*timeout_sec=*/0.25);
        if (fd >= 0) break;
        COMDML_REQUIRE(Clock::now() < deadline,
                       "cannot connect to peer process "
                           << j << " at " << addr.str() << " within "
                           << cfg_.connect_timeout_sec << "s");
      }
      if (fd < 0) return;  // torn down during setup
      tensor::ByteWriter hello;
      hello.i64(cfg_.self);
      COMDML_REQUIRE(send_frame(fd, kPeerHello, hello.bytes(), nullptr),
                     "peer process " << j << " hung up during hello");
      peers_[static_cast<size_t>(j)]->fd = fd;
    }
    int64_t pending = 0;
    for (int64_t j = cfg_.self + 1; j < processes(); ++j)
      if (process_in_mesh(j)) ++pending;
    while (pending > 0 && running_.load()) {
      const int fd = accept_on(listen_fd_, &running_);
      if (fd < 0) {
        COMDML_REQUIRE(!running_.load(),
                       "accept failed while forming the peer mesh");
        return;
      }
      const auto frame = recv_frame(fd);
      COMDML_REQUIRE(frame.has_value() && frame->type == kPeerHello,
                     "first frame from a connecting peer was not hello");
      tensor::ByteReader reader(frame->body);
      const int64_t j = reader.i64();
      COMDML_REQUIRE(j > cfg_.self && j < processes() &&
                         peers_[static_cast<size_t>(j)]->fd < 0,
                     "bad hello from peer process " << j);
      peers_[static_cast<size_t>(j)]->fd = fd;
      --pending;
    }
    for (int64_t p = 0; p < processes(); ++p)
      if (p != cfg_.self && peers_[static_cast<size_t>(p)]->fd >= 0)
        peers_[static_cast<size_t>(p)]->reader =
            std::thread(&SocketTransport::reader_loop, this, p);
    {
      std::lock_guard<std::mutex> guard(ready_mutex_);
      ready_ = true;
    }
    ready_cv_.notify_all();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> guard(ready_mutex_);
      setup_error_ = e.what();
    }
    ready_cv_.notify_all();
  }
}

void SocketTransport::reader_loop(int64_t process) {
  Peer& peer = *peers_[static_cast<size_t>(process)];
  for (;;) {
    std::optional<WireFrame> frame;
    try {
      frame = recv_frame(peer.fd);
    } catch (const std::exception&) {
      frame = std::nullopt;  // desynchronized peer == lost peer
    }
    if (!frame.has_value()) break;
    // A body that fails to decode or names impossible endpoints is a
    // desynchronized or hostile peer too: drop it like a failed recv_frame
    // rather than let the exception end the process from this thread.
    try {
      switch (frame->type) {
        case kPeerData:
          handle_data(process, frame->body);
          break;
        case kPeerNack:
          handle_nack_frame(frame->body);
          break;
        default:
          break;  // forward-compatible: ignore unknown control frames
      }
    } catch (const std::exception&) {
      break;
    }
  }
  if (running_.load()) peer_lost(process);
}

void SocketTransport::peer_lost(int64_t process) {
  Peer& peer = *peers_[static_cast<size_t>(process)];
  if (peer.down.exchange(true)) return;  // already handled
  // A dead process is endpoint churn: every endpoint it owns dies, so
  // blocked receives and later sends surface as EndpointDownError through
  // the ordinary liveness machinery instead of hanging.
  for (int64_t e = 0; e < endpoints(); ++e)
    if (cfg_.owner[static_cast<size_t>(e)] == process) fail_endpoint(e);
  peer_died_.store(true);
  mail_cv_.notify_all();
}

void SocketTransport::handle_data(int64_t process,
                                  const std::vector<uint8_t>& body) {
  tensor::ByteReader reader(body);
  RemoteFrame frame;
  frame.msg.src = reader.i64();
  frame.msg.dst = reader.i64();
  frame.msg.elems = reader.i64();
  frame.msg.wire_bytes = reader.i64();
  frame.msg.seq = reader.i64();
  frame.msg.checksum = reader.u64();
  const uint8_t flags = reader.u8();
  frame.msg.corrupted = (flags & kFlagCorrupted) != 0;
  frame.msg.retransmit = (flags & kFlagRetransmit) != 0;
  frame.reorder = (flags & kFlagReorder) != 0;
  frame.dup_copy = (flags & kFlagDupCopy) != 0;
  frame.msg.deliver_after_step = reader.i64();
  frame.span = reader.f64();
  frame.msg.payload = reader.f64s();
  reader.expect_done();
  const Message& m = frame.msg;
  const int64_t n = endpoints();
  COMDML_REQUIRE(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n &&
                     m.src != m.dst,
                 "data frame names edge " << m.src << " -> " << m.dst
                                          << " over " << n << " endpoints");
  COMDML_REQUIRE(owner_of(m.src) == process && local_endpoint(m.dst),
                 "process " << process << " sent a frame for edge " << m.src
                            << " -> " << m.dst
                            << " it does not own the source of, or that "
                               "this process does not host");
  COMDML_REQUIRE(m.elems >= 0 && (m.payload.empty() ||
                                  static_cast<int64_t>(m.payload.size()) ==
                                      m.elems),
                 "data frame carries " << m.payload.size() << " values for "
                                       << m.elems << " elements");
  inject_remote(std::move(frame));
  mail_cv_.notify_all();
}

void SocketTransport::handle_nack_frame(const std::vector<uint8_t>& body) {
  tensor::ByteReader reader(body);
  const int64_t src = reader.i64();
  const int64_t dst = reader.i64();
  const int64_t last_delivered = reader.i64();
  reader.expect_done();
  COMDML_REQUIRE(src >= 0 && src < endpoints() && dst >= 0 &&
                     dst < endpoints() && src != dst && local_endpoint(src),
                 "NACK names edge " << src << " -> " << dst
                                    << " whose source this process does "
                                       "not host");
  if (!park_enabled_) return;
  Parked copy;
  {
    std::lock_guard<std::mutex> guard(park_mutex_);
    const auto it = parked_.find(src * endpoints() + dst);
    if (it == parked_.end()) return;
    if (it->second.seq <= last_delivered) {
      parked_.erase(it);  // receiver has it; the park served its purpose
      return;
    }
    copy = it->second;
  }
  // Retransmit through the full send path: fresh accounting, a fresh
  // deterministic drop decision, then a closed step so a re-dropped
  // retransmit draws a *different* hash on the next NACK instead of being
  // dropped forever.
  SendOptions opts;
  opts.retransmit = true;
  opts.seq = copy.seq;
  try {
    (void)send(src, dst, copy.elems,
               copy.data.empty() ? nullptr : copy.data.data(), opts);
  } catch (const EndpointDownError&) {
    return;  // the receiver died between NACK and retransmit
  }
  end_step();
}

bool SocketTransport::send_to_peer(int64_t process, uint16_t type,
                                   const std::vector<uint8_t>& body) {
  Peer& peer = *peers_[static_cast<size_t>(process)];
  if (peer.down.load()) return false;
  if (send_frame(peer.fd, type, body, &peer.write_mutex)) return true;
  peer_lost(process);
  return false;
}

void SocketTransport::forward_remote(RemoteFrame&& frame) {
  COMDML_REQUIRE(local_endpoint(frame.msg.src),
                 "send from endpoint " << frame.msg.src
                                       << " which this process does not own");
  wait_ready();
  if (park_enabled_ && !frame.dup_copy && !frame.original.empty()) {
    std::lock_guard<std::mutex> guard(park_mutex_);
    auto& slot = parked_[frame.msg.src * endpoints() + frame.msg.dst];
    slot.seq = frame.msg.seq;
    slot.elems = frame.msg.elems;
    slot.data = std::move(frame.original);
  }
  if (frame.dropped) return;  // the wire never saw it; the park might serve
  const int64_t process = cfg_.owner[static_cast<size_t>(frame.msg.dst)];
  tensor::ByteWriter w;
  w.i64(frame.msg.src);
  w.i64(frame.msg.dst);
  w.i64(frame.msg.elems);
  w.i64(frame.msg.wire_bytes);
  w.i64(frame.msg.seq);
  w.u64(frame.msg.checksum);
  uint8_t flags = 0;
  if (frame.msg.corrupted) flags |= kFlagCorrupted;
  if (frame.msg.retransmit) flags |= kFlagRetransmit;
  if (frame.reorder) flags |= kFlagReorder;
  if (frame.dup_copy) flags |= kFlagDupCopy;
  w.u8(flags);
  w.i64(frame.msg.deliver_after_step);
  w.f64(frame.span);
  w.f64s(frame.msg.payload);
  if (!send_to_peer(process, kPeerData, w.bytes()))
    throw EndpointDownError(frame.msg.dst,
                            "peer process " + std::to_string(process) +
                                " disconnected (send " +
                                std::to_string(frame.msg.src) + " -> " +
                                std::to_string(frame.msg.dst) + ")");
}

bool SocketTransport::nack(int64_t src, int64_t dst,
                           int64_t last_delivered_seq) {
  if (local_endpoint(src)) return false;  // caller retransmits locally
  wait_ready();
  tensor::ByteWriter w;
  w.i64(src);
  w.i64(dst);
  w.i64(last_delivered_seq);
  // A failed control send means the peer died; its endpoints are now dead
  // and the caller's next receive raises EndpointDownError. Either way the
  // retransmission is out of the caller's hands.
  (void)send_to_peer(cfg_.owner[static_cast<size_t>(src)], kPeerNack,
                     w.bytes());
  return true;
}

Message SocketTransport::recv(int64_t dst, int64_t src) {
  if (local_endpoint(src)) return Transport::recv(dst, src);
  wait_ready();
  const auto deadline = Clock::now() + seconds_of(cfg_.recv_timeout_sec);
  for (;;) {
    if (auto msg = Transport::try_recv_from(dst, src))
      return std::move(*msg);
    // A peer died after the mesh formed: this schedule is doomed (the
    // recovery barrier will re-form it), and the awaited sender may have
    // aborted before sending — waiting out the full timeout would hang
    // every survivor whose next frame came from an aborted schedule leg.
    if (peer_died_.load())
      throw EndpointDownError(
          src, "peer process died mid-schedule; frame " +
                   std::to_string(src) + " -> " + std::to_string(dst) +
                   " may never arrive");
    COMDML_REQUIRE(Clock::now() < deadline,
                   "socket recv timeout waiting for "
                       << src << " -> " << dst
                       << " (schedule bug, or a wedged peer process)");
    std::unique_lock<std::mutex> guard(mail_mutex_);
    mail_cv_.wait_for(guard, std::chrono::milliseconds(2));
  }
}

std::optional<Message> SocketTransport::try_recv_from(int64_t dst,
                                                      int64_t src) {
  if (local_endpoint(src)) return Transport::try_recv_from(dst, src);
  wait_ready();
  // A remote frame takes real wall-clock time to arrive; grant it a grace
  // window before reporting "nothing pending", or a ReliableChannel would
  // mistake wire latency for loss and flood the edge with retransmits.
  const auto deadline = Clock::now() + seconds_of(cfg_.recv_grace_sec);
  for (;;) {
    if (auto msg = Transport::try_recv_from(dst, src)) return msg;
    if (Clock::now() >= deadline) return std::nullopt;
    std::unique_lock<std::mutex> guard(mail_mutex_);
    mail_cv_.wait_for(guard, std::chrono::milliseconds(1));
  }
}

}  // namespace comdml::comm
