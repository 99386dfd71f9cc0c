// fleet_cli — run any ComDML/baseline scenario from the command line
// through the unified core::FleetRuntime facade. This is the "downstream
// user" entry point: pick a method, fleet size, dataset geometry, topology
// and partition, and get per-round timing plus time-to-target-accuracy.
// Every method — ComDML and all five baselines — goes through the same
// FleetBuilder/FleetRuntime interface; the facade picks the right engine.
//
//   ./examples/fleet_cli --method comdml --agents 20 --dataset cifar10
//       --partition iid --target 0.85 --topology 0.5 --rounds 50
//
// `--real` switches from the paper-scale timing simulation to real tensor
// training on synthetic blobs (same facade, real-execution engines):
//
//   ./examples/fleet_cli --real --method fedavg --agents 6 --rounds 10
//
// `--connect <addr>` turns the CLI into a client of a running fleetd
// daemon — the same round table, driven over the wire:
//
//   ./examples/fleet_cli --connect unix:/tmp/fleet.sock --rounds 3 --shutdown
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_spec.hpp"
#include "core/fleet_runtime.hpp"
#include "core/real_fleet.hpp"
#include "daemon/fleetd.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/module.hpp"

namespace {

using namespace comdml;
using learncurve::Method;
using learncurve::PartitionKind;

struct Args {
  std::string method = "comdml";
  std::string dataset = "cifar10";
  std::string partition = "iid";
  int64_t agents = 10;
  int64_t rounds = 30;
  double participation = 1.0;
  double topology = 1.0;  // link probability; 1.0 = full mesh
  double target = 0.8;
  double dropout = 0.0;
  bool real = false;
  /// Bucketed/overlapped aggregation (real mode): state bucket size in
  /// bytes (0 = one whole-state bucket), whether bucket collectives overlap
  /// the compute tail, the bucket wire codec, and error feedback.
  int64_t bucket_bytes = 0;
  bool overlap = false;
  std::string codec = "fp32";  // fp32 | quantized
  bool error_feedback = true;
  uint64_t seed = 42;
  /// Injected agent failures, "A@R[:bN|:kN|:cS]" specs (RealFleet methods).
  std::vector<std::string> fail_agents;
  /// Unreliable-network / straggler / autonomy knobs (RealFleet methods).
  double drop_prob = 0.0;
  double deadline_ms = 0.0;
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Durable state: write a checkpoint after the run / load one before it.
  std::string checkpoint_path;
  std::string restore_path;
  /// Quorum shards: per-worker shard files to assemble a fleet from
  /// (local mode), or the directory workers write their shards into
  /// (client mode).
  std::vector<std::string> restore_shards;
  std::string shard_dir;
  /// Client mode: drive a running fleetd daemon instead of a local fleet.
  std::string connect;
  double connect_timeout_sec = 30.0;
  /// Local mode: build the fleetd FleetSpec fleet (uniform profiles) so a
  /// single-process run is bit-comparable with a multi-process one.
  bool uniform = false;
  /// Per-agent compute multipliers for the spec fleet (with --uniform),
  /// matching a fleetd coordinator started with the same --scale.
  std::string scale_csv;
  /// Write the final consensus weights (tensor::pack_tensors blob) here.
  std::string weights_out;
  bool print_stats = false;  ///< client mode: print merged transport stats
  bool shutdown = false;     ///< client mode: stop the daemon afterwards
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--method" && (v = need_value("--method"))) args.method = v;
    else if (flag == "--dataset" && (v = need_value("--dataset"))) args.dataset = v;
    else if (flag == "--partition" && (v = need_value("--partition"))) args.partition = v;
    else if (flag == "--agents" && (v = need_value("--agents"))) args.agents = std::stoll(v);
    else if (flag == "--rounds" && (v = need_value("--rounds"))) args.rounds = std::stoll(v);
    else if (flag == "--participation" && (v = need_value("--participation"))) args.participation = std::stod(v);
    else if (flag == "--topology" && (v = need_value("--topology"))) args.topology = std::stod(v);
    else if (flag == "--target" && (v = need_value("--target"))) args.target = std::stod(v);
    else if (flag == "--dropout" && (v = need_value("--dropout"))) args.dropout = std::stod(v);
    else if (flag == "--seed" && (v = need_value("--seed"))) args.seed = std::stoull(v);
    else if (flag == "--real") { args.real = true; continue; }
    else if (flag == "--bucket-bytes" && (v = need_value("--bucket-bytes"))) args.bucket_bytes = std::stoll(v);
    else if (flag == "--overlap") { args.overlap = true; continue; }
    else if (flag == "--codec" && (v = need_value("--codec"))) {
      args.codec = v;
      if (args.codec != "fp32" && args.codec != "quantized") {
        std::fprintf(stderr, "unknown codec %s (fp32 | quantized)\n", v);
        return false;
      }
    }
    else if (flag == "--no-error-feedback") { args.error_feedback = false; continue; }
    else if (flag == "--fail-agent" && (v = need_value("--fail-agent"))) {
      core::FleetOptions::FaultOptions::AgentFailure probe;
      std::string why;
      if (!core::parse_fault_spec(v, probe, &why)) {
        std::fprintf(stderr,
                     "bad --fail-agent spec '%s': %s\n"
                     "usage: --fail-agent A@R[:bN|:kN|:cS]\n", v,
                     why.c_str());
        return false;
      }
      args.fail_agents.push_back(v);
    }
    else if (flag == "--drop-prob" && (v = need_value("--drop-prob"))) args.drop_prob = std::stod(v);
    else if (flag == "--deadline-ms" && (v = need_value("--deadline-ms"))) args.deadline_ms = std::stod(v);
    else if (flag == "--checkpoint-every" && (v = need_value("--checkpoint-every"))) args.checkpoint_every = std::stoll(v);
    else if (flag == "--checkpoint-dir" && (v = need_value("--checkpoint-dir"))) args.checkpoint_dir = v;
    else if (flag == "--checkpoint" && (v = need_value("--checkpoint"))) args.checkpoint_path = v;
    else if (flag == "--restore" && (v = need_value("--restore"))) args.restore_path = v;
    else if (flag == "--restore-shard" && (v = need_value("--restore-shard"))) args.restore_shards.push_back(v);
    else if (flag == "--shard-checkpoint" && (v = need_value("--shard-checkpoint"))) args.shard_dir = v;
    else if (flag == "--connect" && (v = need_value("--connect"))) args.connect = v;
    else if (flag == "--connect-timeout-sec" && (v = need_value("--connect-timeout-sec"))) args.connect_timeout_sec = std::stod(v);
    else if (flag == "--uniform") { args.uniform = true; continue; }
    else if (flag == "--scale" && (v = need_value("--scale"))) args.scale_csv = v;
    else if (flag == "--weights-out" && (v = need_value("--weights-out"))) args.weights_out = v;
    else if (flag == "--stats") { args.print_stats = true; continue; }
    else if (flag == "--shutdown") { args.shutdown = true; continue; }
    else if (flag == "--help") {
      std::printf(
          "usage: fleet_cli [--method comdml|fedavg|fedprox|gossip|"
          "braintorrent|allreduce]\n"
          "  [--dataset cifar10|cifar100|cinic10] [--partition iid|dirichlet]\n"
          "  [--agents N] [--rounds N] [--participation F] [--topology P]\n"
          "  [--target ACC] [--dropout P] [--seed N] [--real]\n"
          "  (--participation and --dropout: simulation only; --dropout:\n"
          "   comdml only)\n"
          "  Only --real comdml|allreduce take these (without --uniform or\n"
          "  --connect; everything else refuses them):\n"
          "  [--bucket-bytes N] [--overlap]   (bucketed / overlapped\n"
          "   aggregation through the round pipeline; 0 = one whole-state\n"
          "   bucket)\n"
          "  [--codec fp32|quantized] [--no-error-feedback]   (bucket wire\n"
          "   codec: quantized ships dense int8 payloads ~4x smaller;\n"
          "   error feedback carries the quantization error across rounds)\n"
          "  [--fail-agent A@R[:bN|:kN|:cS]]   (agent A leaves before round\n"
          "   R, or dies after N batches (:bN), after publishing N buckets\n"
          "   (:kN), or at collective step S (:cS); repeatable)\n"
          "  [--drop-prob P]   (drop each aggregation message with\n"
          "   probability P; the collectives retransmit with backoff — tune\n"
          "   via COMDML_RETRY_MAX and COMDML_BACKOFF_BASE_MS)\n"
          "  [--deadline-ms MS]   (defer solo stragglers whose round would\n"
          "   outlast MS; their late update rides the error-feedback\n"
          "   residual into the next round)\n"
          "  [--checkpoint-every N] [--checkpoint-dir DIR]   (write a\n"
          "   checksummed checkpoint to DIR every N rounds, keeping the\n"
          "   newest two)\n"
          "  [--checkpoint PATH] [--restore PATH]   (save the fleet state\n"
          "   after the run / resume from a saved state)\n"
          "  [--restore-shard PATH]   (repeatable: assemble the fleet from\n"
          "   per-worker quorum shards before the run; agents missing from\n"
          "   the shards come up as left)\n"
          "  [--connect ADDR]   (client mode: drive a running fleetd at\n"
          "   unix:/path.sock or tcp:host:port instead of a local fleet;\n"
          "   combine with --rounds, --weights-out, --stats, --shutdown)\n"
          "  [--connect-timeout-sec S]   (client mode: give up dialing the\n"
          "   coordinator after S seconds; a stale unix socket fails fast)\n"
          "  [--shard-checkpoint DIR]   (client mode: every live worker\n"
          "   writes its owned-agent shard into DIR after the rounds)\n"
          "  [--uniform]   (real comdml: build the fleetd FleetSpec fleet —\n"
          "   uniform resource profiles — so this single-process run is\n"
          "   bit-comparable with a fleetd multi-process run)\n"
          "  [--scale F,F,...]   (with --uniform: per-agent compute\n"
          "   multipliers, matching a fleetd started with the same --scale)\n"
          "  [--weights-out PATH]   (write the final consensus weights as a\n"
          "   raw tensor blob; works locally and in client mode)\n");
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", flag.c_str());
      return false;
    }
    if (v == nullptr && flag != "--help") return false;
  }
  if (args.real && (args.participation != 1.0 || args.dropout != 0.0)) {
    std::fprintf(stderr,
                 "--participation and --dropout apply only to the simulated "
                 "fleet; the --real fleets train every agent every round\n");
    return false;
  }
  // comdml and allreduce run on the RealFleet engine. The simulated fleet,
  // the other real baselines, the --uniform fleetd spec fleet and a fleetd
  // client have no pipeline, fault injection or autonomy settings of their
  // own, so those flags are refused rather than silently dropped.
  const bool real_fleet =
      args.method == "comdml" || args.method == "allreduce";
  const bool durable = !args.checkpoint_path.empty() ||
                       !args.restore_path.empty() ||
                       !args.restore_shards.empty();
  if (durable && (!(args.real || args.uniform) || !real_fleet)) {
    std::fprintf(stderr, "error: --checkpoint/--restore/--restore-shard "
                         "need --real --method comdml|allreduce\n");
    return false;
  }
  const std::pair<const char*, bool> real_fleet_only[] = {
      {"--fail-agent", !args.fail_agents.empty()},
      {"--drop-prob", args.drop_prob != 0.0},
      {"--deadline-ms", args.deadline_ms != 0.0},
      {"--checkpoint-every", args.checkpoint_every != 0},
      {"--bucket-bytes", args.bucket_bytes != 0},
      {"--overlap", args.overlap},
      {"--codec", args.codec != "fp32"},
  };
  for (const auto& [name, set] : real_fleet_only) {
    if (!set) continue;
    const char* why = nullptr;
    if (!args.connect.empty())
      why = "the fleetd daemon's spec does not carry it";
    else if (!args.real)
      why = "the simulated fleet would run without it";
    else if (!real_fleet)
      why = "this real baseline would run without it";
    else if (args.uniform)
      why = "the --uniform fleetd spec fleet would run without it";
    if (why != nullptr) {
      std::fprintf(stderr,
                   "error: %s needs --real --method comdml|allreduce "
                   "(without --uniform or --connect); %s\n",
                   name, why);
      return false;
    }
  }
  return true;
}

Method parse_method(const std::string& name) {
  if (name == "comdml") return Method::kComDML;
  if (name == "fedavg") return Method::kFedAvg;
  if (name == "fedprox") return Method::kFedProx;
  if (name == "gossip") return Method::kGossip;
  if (name == "braintorrent") return Method::kBrainTorrent;
  if (name == "allreduce") return Method::kAllReduceDML;
  throw std::invalid_argument("unknown method " + name);
}

data::DatasetSpec parse_dataset(const std::string& name) {
  if (name == "cifar10") return data::cifar10_spec();
  if (name == "cifar100") return data::cifar100_spec();
  if (name == "cinic10") return data::cinic10_spec();
  throw std::invalid_argument("unknown dataset " + name);
}

/// Paper-scale timing simulation through the facade.
core::FleetRuntime build_simulated(const Args& args, Method method,
                                   sim::Topology topology,
                                   std::vector<int64_t> sizes) {
  core::FleetOptions opt = core::FleetOptions::paper_defaults();
  opt.seed = args.seed;
  opt.scale.participation = args.participation;
  opt.scale.agent_dropout = args.dropout;
  opt.scale.max_split_points = 16;
  return core::FleetBuilder()
      .method(method)
      .options(opt)
      .topology(std::move(topology))
      .architecture(nn::resnet56_spec(parse_dataset(args.dataset).classes))
      .shard_sizes(std::move(sizes))
      .build();
}

/// Real tensor training on synthetic blobs through the same facade.
core::FleetRuntime build_real(const Args& args, Method method,
                              sim::Topology topology,
                              data::Dataset* eval_out) {
  constexpr int64_t kClasses = 3, kFeatures = 6, kPerAgent = 60;
  tensor::Rng rng(args.seed + 1);
  const auto ds = data::make_blobs(args.agents * kPerAgent, kClasses,
                                   kFeatures, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), args.agents, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  *eval_out = shards[0];

  core::FleetOptions opt;
  opt.seed = args.seed;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  opt.comms.bucket_bytes = args.bucket_bytes;
  opt.comms.overlap = args.overlap;
  if (args.codec == "quantized") {
    opt.comms.codec = core::FleetOptions::CommOptions::Codec::kInt8Quantized;
  } else if (args.codec != "fp32") {
    throw std::invalid_argument("unknown codec " + args.codec +
                                " (fp32 | quantized)");
  }
  opt.comms.error_feedback = args.error_feedback;
  for (const std::string& spec : args.fail_agents) {
    core::FleetOptions::FaultOptions::AgentFailure f;
    if (core::parse_fault_spec(spec, f)) opt.faults.failures.push_back(f);
  }
  opt.faults.message_drop_prob = args.drop_prob;
  opt.faults.deadline_sec = args.deadline_ms * 1e-3;
  opt.faults.checkpoint_every = args.checkpoint_every;
  opt.faults.checkpoint_dir = args.checkpoint_dir;
  core::ModelFactory factory = [](tensor::Rng& r) {
    return nn::mlp({kFeatures, 24, 24, kClasses}, r);
  };
  return core::FleetBuilder()
      .method(method)
      .options(opt)
      .topology(std::move(topology))
      .model(factory, kClasses)
      .shards(std::move(shards))
      .build();
}

bool write_blob(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return true;
}

/// Parse "1.0,0.35,1.0" into per-agent compute multipliers.
std::vector<double> parse_scales(const std::string& csv) {
  std::vector<double> scales;
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (item.empty()) throw std::invalid_argument("empty --scale entry");
    scales.push_back(std::stod(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return scales;
}

/// Client mode: drive a running fleetd daemon round by round.
int run_client(const Args& args) {
  daemon::FleetClient client(args.connect, args.connect_timeout_sec);
  std::printf("connected to fleetd at %s: %lld agents across %lld workers\n",
              args.connect.c_str(), (long long)client.agents(),
              (long long)client.workers());
  std::printf("%6s %12s %10s %8s %10s %10s\n", "round", "time(s)", "pairs",
              "dropped", "agg(B)", "loss");
  double total_seconds = 0.0;
  for (int64_t r = 0; r < args.rounds; ++r) {
    const core::RoundReport rep = client.round();
    total_seconds += rep.round_seconds;
    if (r < 10 || r % 10 == 0)
      std::printf("%6lld %12.2f %10lld %8lld %10lld %10.4f\n",
                  (long long)rep.round, rep.round_seconds,
                  (long long)rep.num_pairs, (long long)rep.dropped_agents,
                  (long long)rep.aggregation_bytes, rep.mean_loss);
  }
  if (args.rounds > 0)
    std::printf("\nmean round time: %.2fs\n",
                total_seconds / static_cast<double>(args.rounds));
  if (args.print_stats) {
    const comm::TransportStats stats = client.stats();
    std::printf("last-round transport: %lld messages, %lld wire bytes, "
                "%.4fs collective\n",
                (long long)stats.messages, (long long)stats.total_wire_bytes,
                stats.seconds);
  }
  if (!args.weights_out.empty()) {
    const std::vector<uint8_t> blob = client.weights();
    if (!write_blob(args.weights_out, blob)) return 1;
    std::printf("weights (%zu bytes) written to %s\n", blob.size(),
                args.weights_out.c_str());
  }
  if (!args.checkpoint_path.empty()) {
    const std::vector<uint8_t> blob = client.checkpoint();
    if (!write_blob(args.checkpoint_path, blob)) return 1;
    std::printf("checkpoint (%zu bytes) written to %s\n", blob.size(),
                args.checkpoint_path.c_str());
  }
  if (!args.shard_dir.empty()) {
    const std::vector<std::string> paths =
        client.shard_checkpoint(args.shard_dir);
    std::printf("quorum checkpoint: %zu shard(s) in %s\n", paths.size(),
                args.shard_dir.c_str());
    for (const std::string& p : paths) std::printf("  %s\n", p.c_str());
  }
  if (args.shutdown) {
    client.shutdown();
    std::printf("fleetd shut down\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 1;

  try {
    if (!args.connect.empty()) return run_client(args);
    const Method method = parse_method(args.method);
    const PartitionKind partition = args.partition == "iid"
                                        ? PartitionKind::kIID
                                        : PartitionKind::kDirichlet05;

    tensor::Rng rng(args.seed);
    const auto profiles = sim::assign_profiles(args.agents, rng);
    auto topology =
        args.topology >= 1.0
            ? sim::Topology::full_mesh(profiles)
            : sim::Topology::random_graph(profiles, args.topology, rng);
    if (!topology.is_connected()) {
      std::fprintf(stderr,
                   "drawn topology is disconnected; raise --topology\n");
      return 1;
    }

    std::printf("method=%s mode=%s dataset=%s partition=%s agents=%lld "
                "topology=%.2f seed=%llu\n",
                args.method.c_str(), args.real ? "real" : "simulated",
                args.dataset.c_str(), args.partition.c_str(),
                (long long)args.agents, args.topology,
                (unsigned long long)args.seed);

    if (args.uniform && (!args.real || method != Method::kComDML)) {
      std::fprintf(stderr, "error: --uniform needs --real --method comdml\n");
      return 1;
    }
    data::Dataset eval_set;
    auto sizes = core::shard_sizes_for(parse_dataset(args.dataset),
                                       args.agents, partition, rng);
    core::FleetRuntime fleet = [&] {
      if (args.uniform) {
        // The exact fleet a fleetd spec with these agents/seed builds.
        daemon::FleetSpec spec;
        spec.agents = args.agents;
        spec.seed = args.seed;
        if (!args.scale_csv.empty())
          spec.compute_scales = parse_scales(args.scale_csv);
        return daemon::build_spec_fleet(spec, &eval_set);
      }
      return args.real
                 ? build_real(args, method, std::move(topology), &eval_set)
                 : build_simulated(args, method, std::move(topology),
                                   std::move(sizes));
    }();

    if (!args.restore_shards.empty()) {
      std::vector<std::vector<uint8_t>> blobs;
      for (const std::string& path : args.restore_shards) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "error: cannot read shard %s\n",
                       path.c_str());
          return 1;
        }
        blobs.emplace_back((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      }
      try {
        fleet.restore_shards(blobs);
      } catch (const core::CheckpointError& e) {
        std::fprintf(stderr,
                     "error: shard set is unusable: %s\n"
                     "(a shard is truncated, corrupted, or the shards come "
                     "from different checkpoints; gather a consistent "
                     "quorum and retry)\n",
                     e.what());
        return 1;
      }
      std::printf("restored %zu shard(s); %zu live agent(s), resuming at "
                  "round %lld\n",
                  blobs.size(), fleet.live_agents().size(),
                  (long long)fleet.rounds_executed());
    }
    if (!args.restore_path.empty()) {
      std::ifstream in(args.restore_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n",
                     args.restore_path.c_str());
        return 1;
      }
      const std::vector<uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      try {
        fleet.restore(bytes);
      } catch (const core::CheckpointError& e) {
        std::fprintf(stderr,
                     "error: checkpoint %s is unusable: %s\n"
                     "(the file is truncated, corrupted, or from an "
                     "incompatible fleet; restart from scratch or pick an "
                     "older checkpoint)\n",
                     args.restore_path.c_str(), e.what());
        return 1;
      }
      std::printf("restored fleet state from %s (resuming at round %lld)\n",
                  args.restore_path.c_str(),
                  (long long)fleet.rounds_executed());
    }

    std::printf("%6s %12s %10s %8s %10s %10s\n", "round", "time(s)",
                "pairs", "dropped", "agg(B)", "loss");
    core::RunReport report;
    for (int64_t r = 0; r < args.rounds; ++r) {
      const auto rep = fleet.step();
      if (r < 10 || r % 10 == 0) {
        std::printf("%6lld %12.2f %10lld %8lld %10lld ", (long long)r,
                    rep.round_seconds, (long long)rep.num_pairs,
                    (long long)rep.dropped_agents,
                    (long long)rep.aggregation_bytes);
        if (fleet.real())
          std::printf("%10.4f\n", rep.mean_loss);
        else
          std::printf("%10s\n", "-");
      }
      report.rounds.push_back(rep);
    }
    if (args.rounds > 0)
      std::printf("\nmean round time: %.2fs\n",
                  report.mean_round_seconds());

    if (!args.checkpoint_path.empty()) {
      const auto bytes = fleet.checkpoint();
      if (!write_blob(args.checkpoint_path, bytes)) return 1;
      std::printf("checkpoint (%zu bytes) written to %s\n", bytes.size(),
                  args.checkpoint_path.c_str());
    }

    if (!args.weights_out.empty()) {
      if (!fleet.real()) {
        std::fprintf(stderr, "error: --weights-out needs --real (the "
                             "simulators train no tensors)\n");
        return 1;
      }
      const int64_t agent =
          fleet.real_comdml() != nullptr ? fleet.live_agents().front() : 0;
      const auto blob = tensor::pack_tensors(nn::state_of(fleet.model(agent)));
      if (!write_blob(args.weights_out, blob)) return 1;
      std::printf("weights (%zu bytes) written to %s\n", blob.size(),
                  args.weights_out.c_str());
    }

    if (fleet.real()) {
      std::printf("accuracy on shard-0 data after %lld rounds: %.3f\n",
                  (long long)args.rounds, fleet.evaluate(eval_set));
      return 0;
    }
    const std::string model_name = "resnet56";
    const auto curve = learncurve::make_accuracy_model(
        args.dataset, model_name, partition, method, args.participation);
    if (const auto rounds = curve.rounds_to(args.target)) {
      const double needed =
          *rounds * learncurve::fleet_rounds_factor(args.agents);
      std::printf("estimated rounds to %.0f%%: %.0f  ->  total %.0fs\n",
                  100 * args.target, needed,
                  report.time_for_rounds(needed));
    } else {
      std::printf("target %.0f%% exceeds the calibrated ceiling\n",
                  100 * args.target);
    }
  } catch (const daemon::CoordinatorUnreachable& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
