#include "daemon/protocol.hpp"

#include <stdexcept>

#include "comm/socket_io.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "tensor/check.hpp"

namespace comdml::daemon {

void write_spec(tensor::ByteWriter& w, const FleetSpec& spec) {
  w.i64(spec.agents);
  w.u64(spec.seed);
  w.i64(spec.batch_size);
  w.i64(spec.batches_per_round);
  w.f32(spec.lr);
  w.f32(spec.momentum);
  w.str(spec.protocol);
  w.f64(spec.mbps);
  w.f64(spec.latency_sec);
  w.f64s(spec.compute_scales);
}

FleetSpec read_spec(tensor::ByteReader& r) {
  FleetSpec spec;
  spec.agents = r.i64();
  spec.seed = r.u64();
  spec.batch_size = r.i64();
  spec.batches_per_round = r.i64();
  spec.lr = r.f32();
  spec.momentum = r.f32();
  spec.protocol = r.str();
  spec.mbps = r.f64();
  spec.latency_sec = r.f64();
  spec.compute_scales = r.f64s();
  return spec;
}

void write_stats(tensor::ByteWriter& w, const comm::TransportStats& s) {
  w.i64(s.steps);
  w.i64(s.messages);
  w.i64(s.dropped_messages);
  w.i64(s.total_wire_bytes);
  w.f64(s.seconds);
  w.i64s(s.bytes_sent);
  w.i64s(s.bytes_received);
  w.f64s(s.send_seconds);
  w.f64s(s.recv_seconds);
  w.i64s(s.dropped_per_edge);
  w.i64(s.retransmit_messages);
  w.i64(s.retransmit_wire_bytes);
  w.i64(s.duplicated_messages);
  w.i64(s.duplicated_wire_bytes);
  w.i64(s.corrupt_messages);
  w.i64(s.delayed_messages);
  w.i64(s.reordered_messages);
  w.f64(s.backoff_seconds);
  w.f64s(s.step_spans);
  w.i64s(s.step_message_counts);
}

comm::TransportStats read_stats(tensor::ByteReader& r) {
  comm::TransportStats s;
  s.steps = r.i64();
  s.messages = r.i64();
  s.dropped_messages = r.i64();
  s.total_wire_bytes = r.i64();
  s.seconds = r.f64();
  s.bytes_sent = r.i64s();
  s.bytes_received = r.i64s();
  s.send_seconds = r.f64s();
  s.recv_seconds = r.f64s();
  s.dropped_per_edge = r.i64s();
  s.retransmit_messages = r.i64();
  s.retransmit_wire_bytes = r.i64();
  s.duplicated_messages = r.i64();
  s.duplicated_wire_bytes = r.i64();
  s.corrupt_messages = r.i64();
  s.delayed_messages = r.i64();
  s.reordered_messages = r.i64();
  s.backoff_seconds = r.f64();
  s.step_spans = r.f64s();
  s.step_message_counts = r.i64s();
  return s;
}

void write_report(tensor::ByteWriter& w, const core::RoundReport& rep) {
  w.i64(rep.round);
  w.f64(rep.round_seconds);
  w.f64(rep.compute_seconds);
  w.f64(rep.comm_seconds);
  w.f64(rep.aggregation_seconds);
  w.f64(rep.idle_seconds);
  w.f64(rep.unbalanced_seconds);
  w.i64(rep.aggregation_bytes);
  w.i64(rep.buckets);
  w.f64(rep.exposed_comm_seconds);
  w.i64(rep.split_early_buckets);
  w.i64(rep.num_pairs);
  w.i64(rep.dropped_agents);
  w.i64(rep.late_agents);
  w.i64(rep.retransmit_bytes);
  w.f32(rep.mean_loss);
  w.f32(rep.mean_slow_loss);
  w.f64(rep.mean_dcor);
  w.f64(rep.mean_wire_compression);
}

core::RoundReport read_report(tensor::ByteReader& r) {
  core::RoundReport rep;
  rep.round = r.i64();
  rep.round_seconds = r.f64();
  rep.compute_seconds = r.f64();
  rep.comm_seconds = r.f64();
  rep.aggregation_seconds = r.f64();
  rep.idle_seconds = r.f64();
  rep.unbalanced_seconds = r.f64();
  rep.aggregation_bytes = r.i64();
  rep.buckets = r.i64();
  rep.exposed_comm_seconds = r.f64();
  rep.split_early_buckets = r.i64();
  rep.num_pairs = r.i64();
  rep.dropped_agents = r.i64();
  rep.late_agents = r.i64();
  rep.retransmit_bytes = r.i64();
  rep.mean_loss = r.f32();
  rep.mean_slow_loss = r.f32();
  rep.mean_dcor = r.f64();
  rep.mean_wire_compression = r.f64();
  return rep;
}

void write_task_result(tensor::ByteWriter& w,
                       const core::RealFleet::TaskResult& t) {
  w.f32(t.slow_loss_sum);
  w.f32(t.loss_sum);
  w.i64(t.loss_count);
  w.f64(t.dcor);
  w.f64(t.wire_compression);
  w.i64(t.dcor_count);
  w.i64(t.split_early_buckets);
  w.f32s(t.fast_losses);
}

core::RealFleet::TaskResult read_task_result(tensor::ByteReader& r) {
  core::RealFleet::TaskResult t;
  t.slow_loss_sum = r.f32();
  t.loss_sum = r.f32();
  t.loss_count = r.i64();
  t.dcor = r.f64();
  t.wire_compression = r.f64();
  t.dcor_count = r.i64();
  t.split_early_buckets = r.i64();
  t.fast_losses = r.f32s();
  return t;
}

std::vector<int64_t> owner_map(int64_t agents, int64_t workers) {
  COMDML_REQUIRE(workers > 0 && agents >= workers,
                 "a fleet of " << agents << " agents cannot be partitioned "
                               << "across " << workers << " workers");
  std::vector<int64_t> owner(static_cast<size_t>(agents));
  for (int64_t a = 0; a < agents; ++a)
    owner[static_cast<size_t>(a)] = a % workers;
  return owner;
}

std::vector<std::string> mesh_addresses(const std::string& control_addr,
                                        int64_t workers,
                                        int64_t generation) {
  const comm::SocketAddress control = comm::parse_address(control_addr);
  const std::string suffix =
      generation > 0 ? ".g" + std::to_string(generation) : std::string();
  std::vector<std::string> addrs;
  addrs.reserve(static_cast<size_t>(workers));
  for (int64_t i = 0; i < workers; ++i) {
    if (control.kind == comm::SocketAddress::Kind::kUnix) {
      addrs.push_back("unix:" + control.path + ".peer" + std::to_string(i) +
                      suffix);
    } else {
      addrs.push_back("tcp:" + control.host + ":" +
                      std::to_string(control.port + 1 +
                                     workers * generation + i));
    }
  }
  return addrs;
}

comm::AllReduceAlgo spec_algo(const std::string& name) {
  if (name == "hd") return comm::AllReduceAlgo::kHalvingDoubling;
  if (name == "ring") return comm::AllReduceAlgo::kRing;
  throw std::invalid_argument("unknown aggregation protocol " + name +
                              " (hd | ring)");
}

core::FleetRuntime build_spec_fleet(const FleetSpec& spec,
                                    data::Dataset* eval_out) {
  // fleet_cli's real-mode geometry (synthetic blobs, iid shards, small
  // MLP). With no compute scales the resource profiles are uniform, so
  // the pairing pass never produces an offload pair (pairing needs a
  // strict speed gap) and every round is solo-only; per-agent scales turn
  // on the fast/slow offload path across workers too.
  COMDML_REQUIRE(spec.compute_scales.empty() ||
                     static_cast<int64_t>(spec.compute_scales.size()) ==
                         spec.agents,
                 "spec carries " << spec.compute_scales.size()
                                 << " compute scales for " << spec.agents
                                 << " agents");
  constexpr int64_t kClasses = 3, kFeatures = 6, kPerAgent = 60;
  tensor::Rng rng(spec.seed + 1);
  const auto ds = data::make_blobs(spec.agents * kPerAgent, kClasses,
                                   kFeatures, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), spec.agents, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  if (eval_out != nullptr) *eval_out = shards[0];

  core::FleetOptions opt;
  opt.seed = spec.seed;
  opt.train.batch_size = spec.batch_size;
  opt.train.batches_per_round = spec.batches_per_round;
  opt.train.sgd.lr = spec.lr;
  opt.train.sgd.momentum = spec.momentum;
  opt.comms.aggregation = spec_algo(spec.protocol);
  opt.comms.latency_sec = spec.latency_sec;

  std::vector<sim::ResourceProfile> profiles(
      static_cast<size_t>(spec.agents),
      sim::ResourceProfile{1.0, spec.mbps});
  for (size_t a = 0; a < spec.compute_scales.size(); ++a) {
    COMDML_REQUIRE(spec.compute_scales[a] > 0.0,
                   "compute scale for agent " << a << " must be positive");
    profiles[a].cpu = spec.compute_scales[a];
  }
  core::ModelFactory factory = [](tensor::Rng& r) {
    return nn::mlp({kFeatures, 24, 24, kClasses}, r);
  };
  return core::FleetBuilder()
      .method(learncurve::Method::kComDML)
      .options(opt)
      .topology(sim::Topology::full_mesh(profiles))
      .model(factory, kClasses)
      .shards(std::move(shards))
      .build();
}

bool send_msg(int fd, Msg type, const std::vector<uint8_t>& body) {
  return comm::send_frame(fd, static_cast<uint16_t>(type), body);
}

comm::WireFrame recv_msg(int fd, const std::string& who) {
  auto frame = comm::recv_frame(fd);
  if (!frame.has_value())
    throw std::runtime_error(who + " disconnected");
  if (frame->type == static_cast<uint16_t>(Msg::kError))
    throw std::runtime_error(
        who + " reported: " +
        std::string(frame->body.begin(), frame->body.end()));
  return std::move(*frame);
}

comm::WireFrame expect_msg(int fd, Msg want, const std::string& who) {
  comm::WireFrame frame = recv_msg(fd, who);
  if (frame.type != static_cast<uint16_t>(want))
    throw std::runtime_error("unexpected frame type " +
                             std::to_string(frame.type) + " from " + who +
                             " (wanted " +
                             std::to_string(static_cast<uint16_t>(want)) +
                             ")");
  return frame;
}

}  // namespace comdml::daemon
