// perfbench — measured ComDML rounds through the public API.
//
//   perfbench --workload cnn-hetero|mlp-int8-overlap|fleetd-2w --seed N
//             --seconds S --trace 0|1 [--commit ID] [--trace-file PATH]
//
// A run repeats episodes until S seconds have passed: an episode builds the
// workload from the seed (the timed set-up), drives warm-up rounds, then a
// fixed number of measured rounds, then checks the outputs. Traffic is a
// closed loop with one caller: a round is issued only after the previous
// one returned. Every episode of a run replays the same seeded fleet, so
// its final loss must repeat bit for bit. loss_final and accuracy_final
// come from one more, untimed episode on a fixed quality seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced episodes, replays single-layer calls after them, prints the
// per-layer metrics and writes the spans as Chrome trace-event JSON.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is nonzero when any output check failed.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/collective.hpp"
#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "core/workspace.hpp"
#include "daemon/fleetd.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "privacy/dcor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"
#include "trace.hpp"

// ---- heap-allocation counter (mem.heap_allocs_per_round) -------------------

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The nothrow form is replaced too: memory from it is released through the
// plain operator delete below (std::get_temporary_buffer does this).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace cd = comdml;
using perfbench::Span;
using perfbench::Tracer;
using perfbench::traced;

constexpr int kThreads = 4;  // in-process pool size of every workload
constexpr uint64_t kQualitySeed = 1;  // loss_final / accuracy_final fleet

// ---- small helpers -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// user+sys CPU seconds of a live child, from /proc/<pid>/stat.
double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0.0, stime = 0.0;
  // Field 3 (state) is the first after the command; utime/stime are 14/15.
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a live child in MB.
double child_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

int64_t arena_allocs() {
  return cd::core::Workspace::aggregate_stats().heap_allocs;
}

/// Median seconds per call of `fn`, timed in batches for about `budget_s`.
double time_call(const std::function<void()>& fn, double budget_s = 0.05) {
  fn();  // warm caches and lazy set-up
  const double t0 = now_s();
  fn();
  const double one = std::max(now_s() - t0, 1e-9);
  const int per_batch = std::max(1, static_cast<int>(1e-3 / one));
  std::vector<double> per_call;
  const double stop = now_s() + budget_s;
  while (per_call.size() < 5 || (now_s() < stop && per_call.size() < 2000)) {
    const double b0 = now_s();
    for (int i = 0; i < per_batch; ++i) fn();
    per_call.push_back((now_s() - b0) / per_batch);
  }
  return median(per_call);
}

// ---- result assembly -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< why a check failed

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  [[nodiscard]] double value(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return m.value;
    return 0.0;
  }
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back(why);
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << std::max<int64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---- workloads -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_file;
};

/// One in-process workload: a RealFleet stepped by RealFleet::step().
struct InProcSpec {
  std::string name;
  int64_t agents = 0;
  std::vector<double> scales;  ///< compute scales, cycled over agents
  int64_t batch = 16;
  int64_t batches = 2;
  int64_t per_agent = 0;  ///< training samples per agent
  int64_t test = 0;       ///< held-out samples
  int64_t warmup = 0;     ///< unmeasured rounds per episode
  int64_t rounds = 0;     ///< measured rounds per episode
  float accuracy_floor = 0.0f;
  bool int8_overlap = false;  ///< 64 KiB buckets, int8 + EF, overlap
  bool cnn = false;
};

InProcSpec cnn_hetero() {
  InProcSpec s;
  s.name = "cnn-hetero";
  s.agents = 8;
  s.scales = {4.0, 0.25, 2.0, 0.5};
  s.per_agent = 128;
  s.test = 500;
  s.warmup = 2;
  s.rounds = 16;
  s.accuracy_floor = 0.5f;
  s.cnn = true;
  return s;
}

InProcSpec mlp_int8_overlap() {
  InProcSpec s;
  s.name = "mlp-int8-overlap";
  s.agents = 16;
  s.scales = {4.0, 0.2, 2.0, 0.5};
  s.per_agent = 256;
  s.test = 1000;
  s.warmup = 3;
  s.rounds = 60;
  s.accuracy_floor = 0.5f;
  s.int8_overlap = true;
  return s;
}

constexpr int64_t kClasses = 10;
constexpr int64_t kMlpFeatures = 32;

struct FleetData {
  std::vector<cd::data::Dataset> shards;
  cd::data::Dataset test;
};

/// Seeded inputs: one generator call for train + held-out, so both come
/// from the same class prototypes; the train part is split iid.
FleetData make_data(const InProcSpec& w, uint64_t seed) {
  cd::tensor::Rng rng(seed);
  const int64_t train = w.agents * w.per_agent;
  const cd::data::Dataset all =
      w.cnn ? cd::data::make_synthetic_images(train + w.test, kClasses,
                                              {3, 16, 16}, 1.0f, rng)
            : cd::data::make_blobs(train + w.test, kClasses, kMlpFeatures,
                                   1.6f, rng);
  FleetData d;
  for (const auto& idx : cd::data::iid_partition(train, w.agents, rng))
    d.shards.push_back(all.subset(idx));
  std::vector<int64_t> held(static_cast<size_t>(w.test));
  for (int64_t i = 0; i < w.test; ++i) held[static_cast<size_t>(i)] = train + i;
  d.test = all.subset(held);
  return d;
}

/// Per-agent link speeds are drawn from the seed (100 Mbps +-10%), so the
/// analytic clock is an input of the run rather than a constant.
std::vector<double> link_mbps(int64_t agents, uint64_t seed) {
  cd::tensor::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<double> mbps;
  for (int64_t a = 0; a < agents; ++a)
    mbps.push_back(100.0 * (0.9 + 0.2 * rng.uniform()));
  return mbps;
}

cd::sim::Topology make_topology(const InProcSpec& w, uint64_t seed) {
  const std::vector<double> mbps = link_mbps(w.agents, seed);
  std::vector<cd::sim::ResourceProfile> profiles;
  for (int64_t a = 0; a < w.agents; ++a)
    profiles.push_back(
        {w.scales[static_cast<size_t>(a) % w.scales.size()],
         mbps[static_cast<size_t>(a)]});
  return cd::sim::Topology::full_mesh(profiles);
}

cd::nn::ModulePtr unit(cd::nn::ModulePtr inner, const char* label,
                       int32_t agent, bool wrap) {
  if (!wrap) return inner;
  return std::make_unique<perfbench::TracedUnit>(std::move(inner), label,
                                                 agent);
}

/// ResNet-20 geometry (3 blocks per stage, base 8, 10 classes) assembled
/// unit by unit: the same units, in the same RNG order, as
/// nn::make_resnet_cifar(3, 8, 10).
std::unique_ptr<cd::nn::Sequential> resnet20(cd::tensor::Rng& rng,
                                             int32_t agent, bool wrap) {
  using namespace cd::nn;
  auto net = std::make_unique<Sequential>();
  auto stem = std::make_unique<Sequential>();
  stem->push(std::make_unique<Conv2d>(3, 8, 3, 1, 1, rng));
  stem->push(std::make_unique<BatchNorm2d>(8));
  stem->push(std::make_unique<ReLU>());
  net->push(unit(std::move(stem), "stem", agent, wrap));
  int64_t in = 8;
  for (int stage = 0; stage < 3; ++stage) {
    const int64_t out = int64_t{8} << stage;
    for (int b = 0; b < 3; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      net->push(unit(std::make_unique<BasicBlock>(in, out, stride, rng),
                     "basicblock", agent, wrap));
      in = out;
    }
  }
  auto head = std::make_unique<Sequential>();
  head->push(std::make_unique<GlobalAvgPool2d>());
  head->push(std::make_unique<Linear>(in, kClasses, rng));
  net->push(unit(std::move(head), "head", agent, wrap));
  return net;
}

/// MLP 32-256-256-10, one Linear(+ReLU) per unit like nn::mlp.
std::unique_ptr<cd::nn::Sequential> mlp(cd::tensor::Rng& rng, int32_t agent,
                                        bool wrap) {
  using namespace cd::nn;
  const std::vector<int64_t> widths = {kMlpFeatures, 256, 256, kClasses};
  auto net = std::make_unique<Sequential>();
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    auto u = std::make_unique<Sequential>();
    u->push(std::make_unique<Linear>(widths[i], widths[i + 1], rng));
    if (i + 2 < widths.size()) u->push(std::make_unique<ReLU>());
    net->push(unit(std::move(u), "dense", agent, wrap));
  }
  return net;
}

cd::core::FleetOptions fleet_options(const InProcSpec& w, uint64_t seed) {
  cd::core::FleetOptions o;
  o.seed = seed;
  o.train.batch_size = w.batch;
  o.train.batches_per_round = w.batches;
  o.comms.aggregation = cd::comm::AllReduceAlgo::kHalvingDoubling;
  if (w.int8_overlap) {
    o.comms.bucket_bytes = 64 * 1024;
    o.comms.codec = cd::core::FleetOptions::CommOptions::Codec::kInt8Quantized;
    o.comms.error_feedback = true;
    o.comms.overlap = true;
  }
  return o;
}

// ---- episode records -------------------------------------------------------------

struct RoundRec {
  double wall = 0.0;
  double model = 0.0;          ///< analytic round clock
  double exposed_model = 0.0;  ///< analytic exposed aggregation
  int64_t agg_bytes = 0;
  int64_t pairs = 0;
  int64_t buckets = 0;
  int64_t split_early = 0;
  int64_t start_ns = 0, end_ns = 0;  ///< tracer clock
};

struct Episode {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<RoundRec> rounds;  ///< measured rounds only
  float loss_final = 0.0f;
  float accuracy = 0.0f;
  double cpu_s = 0.0;            ///< over the measured rounds
  int64_t heap_allocs = 0;       ///< over the measured rounds
  int64_t arena_allocs = 0;      ///< over the measured rounds
  int64_t samples_per_round = 0;
  double local_round_s = 0.0;    ///< fleetd: in-process reference rounds
  double control_rtt_s = 0.0;    ///< fleetd: one stats() RPC
  cd::comm::TransportStats socket;  ///< fleetd: last round's merged stats
  double child_peak_rss_mb = 0.0;
};

/// Per-layer numbers that come from replayed calls (trace-1 runs).
struct Replays {
  double pairing_call_s = 0.0;
  double collective_wall_s = 0.0;
  int64_t collective_messages = 0;
  int64_t collective_wire_bytes = 0;
  double dcor_s = 0.0;
  double next_batch_s = 0.0;
};

std::vector<cd::core::AgentInfo> rebuild_infos(
    const cd::core::SplitProfile& profile, const cd::sim::Topology& topo,
    const cd::core::FleetOptions& o) {
  // Same broadcast state RealFleet derives each round (Algorithm 1 line 2).
  std::vector<cd::core::AgentInfo> infos(
      static_cast<size_t>(topo.agents()));
  const double flops = profile.full_flops_per_sample();
  for (int64_t i = 0; i < topo.agents(); ++i) {
    auto& a = infos[static_cast<size_t>(i)];
    a.id = i;
    const double sps =
        topo.profile(i).cpu * o.train.reference_flops / flops;
    a.proc_speed = sps / static_cast<double>(o.train.batch_size);
    a.num_batches = o.train.batches_per_round;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  }
  return infos;
}

/// Single-layer replays on the workload's own geometry. Tracing is off
/// while they run so they never mix into round spans.
Replays replay_layers(cd::nn::Sequential& model,
                      const cd::core::SplitProfile& profile,
                      const cd::sim::Topology& topo,
                      const cd::core::FleetOptions& o,
                      const cd::data::Dataset& shard,
                      const cd::comm::Codec* codec) {
  Tracer::get().set_enabled(false);
  Replays r;
  const auto infos = rebuild_infos(profile, topo, o);
  std::vector<int64_t> everyone;
  for (int64_t a = 0; a < topo.agents(); ++a) everyone.push_back(a);
  cd::core::PairingResult plan;
  r.pairing_call_s = time_call([&] {
    plan = cd::core::pair_agents(profile, infos, topo, o.train.batch_size,
                                 everyone);
  });

  // Whole-state halving-doubling allreduce over an InProcTransport at the
  // workload's agent count and state size (and wire codec).
  std::vector<cd::tensor::Tensor*> state;
  model.collect_state(state);
  int64_t elems = 0;
  for (const auto* t : state) elems += t->size();
  const int64_t n = topo.agents();
  std::vector<std::vector<double>> bufs(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(elems)));
  cd::tensor::Rng fill(5);
  for (auto& b : bufs)
    for (double& v : b) v = fill.normal();
  const auto& hd = cd::comm::collective(
      cd::comm::Protocol::kHalvingDoublingAllReduce);
  r.collective_wall_s = time_call([&] {
    cd::comm::InProcTransport t(
        cd::comm::LinkGrid::uniform(n, 100.0, o.comms.latency_sec), codec);
    cd::comm::CollectiveRequest req;
    req.elems = elems;
    for (auto& b : bufs) req.buffers.push_back(b.data());
    const cd::comm::CollectiveReport rep = hd.run(t, req);
    r.collective_messages = rep.transport.messages;
    r.collective_wire_bytes = rep.transport.total_wire_bytes;
  });

  // Distance correlation between one batch and its cut activation, once
  // per offload pair (what a round computes for privacy accounting).
  cd::data::Batcher batcher(shard, o.train.batch_size, cd::tensor::Rng(9));
  r.next_batch_s = time_call([&] { (void)batcher.next(); });
  const cd::data::Batch batch = batcher.next();
  const size_t cut = plan.pairs.empty() ? model.size() / 2 : plan.pairs[0].cut;
  const cd::tensor::Tensor h = model.forward_range(batch.x, 0, cut, false);
  r.dcor_s = time_call([&] {
               (void)cd::privacy::distance_correlation(batch.x, h);
             }) *
             static_cast<double>(plan.pairs.size());
  return r;
}

// ---- in-process episodes -----------------------------------------------------------

Episode run_inproc_episode(
    const InProcSpec& w, uint64_t seed, bool trace, Result& res,
    const std::function<void(cd::core::RealFleet&, const FleetData&,
                             const cd::sim::Topology&)>& after = nullptr) {
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(trace);
  tracer.set_round(-1);
  Episode ep;
  ep.traced = trace;

  const double t0 = now_s();
  std::optional<FleetData> data;
  std::optional<cd::sim::Topology> topo;
  std::unique_ptr<cd::core::RealFleet> fleet;
  traced("setup", w.name.c_str(), [&] {
    data.emplace(make_data(w, seed));
    topo.emplace(make_topology(w, seed));
    int32_t next_agent = 0;
    cd::core::ModelFactory factory = [&](cd::tensor::Rng& rng) {
      const int32_t agent = next_agent++;
      return w.cnn ? resnet20(rng, agent, trace) : mlp(rng, agent, trace);
    };
    fleet = std::make_unique<cd::core::RealFleet>(
        factory, kClasses, data->shards, *topo, fleet_options(w, seed));
  });
  ep.setup_s = now_s() - t0;
  ep.samples_per_round = w.agents * w.batch * w.batches;

  double cpu0 = 0.0;
  int64_t heap0 = 0, arena0 = 0;
  for (int64_t r = 0; r < w.warmup + w.rounds; ++r) {
    if (r == w.warmup) {
      cpu0 = self_cpu_s();
      heap0 = g_heap_allocs.load();
      arena0 = arena_allocs();
    }
    ++res.attempted;
    tracer.set_round(r);
    RoundRec rec;
    rec.start_ns = tracer.now_ns();
    const double s0 = now_s();
    const cd::core::RealFleet::RoundStats st =
        traced("round", w.name.c_str(), [&] { return fleet->step(); });
    rec.wall = now_s() - s0;
    rec.end_ns = tracer.now_ns();
    if (!std::isfinite(st.mean_loss))
      throw std::runtime_error("non-finite loss at round " +
                               std::to_string(r));
    rec.model = st.sim_time;
    rec.exposed_model = st.exposed_comm_seconds;
    rec.agg_bytes = st.aggregation_bytes;
    rec.pairs = st.num_pairs;
    rec.buckets = st.buckets;
    rec.split_early = st.split_early_buckets;
    ep.loss_final = st.mean_loss;
    if (r >= w.warmup) ep.rounds.push_back(rec);
  }
  ep.cpu_s = self_cpu_s() - cpu0;
  ep.heap_allocs = g_heap_allocs.load() - heap0;
  ep.arena_allocs = arena_allocs() - arena0;
  tracer.set_round(-1);
  tracer.set_enabled(false);
  ep.accuracy = fleet->evaluate(data->test);
  if (after) after(*fleet, *data, *topo);
  return ep;
}

// ---- fleetd episodes ------------------------------------------------------------

constexpr int64_t kFleetdAgents = 8;
constexpr int64_t kFleetdWarmup = 5;
constexpr int64_t kFleetdRounds = 60;
constexpr float kFleetdAccuracyFloor = 0.6f;
// build_spec_fleet's data geometry (daemon/protocol.cpp): blobs of 3
// classes x 6 features, spread 0.3, 60 samples per agent, from Rng(seed+1).
constexpr int64_t kSpecClasses = 3, kSpecFeatures = 6, kSpecPerAgent = 60;

cd::daemon::FleetSpec fleetd_spec(uint64_t seed) {
  cd::daemon::FleetSpec spec;
  spec.agents = kFleetdAgents;
  spec.seed = seed;
  spec.batches_per_round = 1;
  // Odd agents (worker 1) are slow, even agents (worker 0) fast, so the
  // offload pairs cross the process boundary.
  for (int64_t a = 0; a < kFleetdAgents; ++a)
    spec.compute_scales.push_back(a % 2 == 0 ? 1.0 : 0.3);
  spec.mbps = link_mbps(1, seed)[0];
  return spec;
}

/// The spec's data distribution continued past the training samples: the
/// same generator call with more samples, keeping only the tail.
cd::data::Dataset fleetd_heldout(const cd::daemon::FleetSpec& spec) {
  constexpr int64_t kTest = 600;
  cd::tensor::Rng rng(spec.seed + 1);
  const int64_t train = spec.agents * kSpecPerAgent;
  const auto all = cd::data::make_blobs(train + kTest, kSpecClasses,
                                        kSpecFeatures, 0.3f, rng);
  std::vector<int64_t> idx;
  for (int64_t i = train; i < train + kTest; ++i) idx.push_back(i);
  return all.subset(idx);
}

/// Forked fleetd processes; the destructor kills whatever is still running
/// and reaps every child.
class Daemons {
 public:
  Daemons() = default;
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;
  ~Daemons() {
    for (const pid_t p : pids_) ::kill(p, SIGKILL);
    for (const pid_t p : pids_) (void)::waitpid(p, nullptr, 0);
  }

  void spawn(const std::vector<std::string>& args) {
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "COMDML_NUM_THREADS=", 19) != 0)
        env_store.emplace_back(*e);
    env_store.emplace_back("COMDML_NUM_THREADS=1");
    std::vector<char*> envp;
    for (auto& s : env_store) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> argv_store = {PERFBENCH_FLEETD};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& s : argv_store) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      // The daemons' start-up banner would interleave with the result
      // line; their errors still reach stderr.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
  }

  [[nodiscard]] const std::vector<pid_t>& pids() const { return pids_; }

  /// Wait for every child to exit on its own; false on timeout or a
  /// nonzero exit (the destructor then kills the stragglers).
  bool join(double timeout_s) {
    const double stop = now_s() + timeout_s;
    bool ok = true;
    std::vector<pid_t> left;
    for (const pid_t p : pids_) {
      int status = 0;
      pid_t r = 0;
      while ((r = ::waitpid(p, &status, WNOHANG)) == 0 && now_s() < stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (r == p) {
        ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      } else {
        ok = false;
        left.push_back(p);
      }
    }
    pids_ = left;
    return ok;
  }

 private:
  std::vector<pid_t> pids_;
};

void wait_for_file(const std::string& path, double timeout_s) {
  const double stop = now_s() + timeout_s;
  while (!std::filesystem::exists(path)) {
    if (now_s() > stop)
      throw std::runtime_error("fleetd never bound " + path);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::vector<uint8_t> consensus_weights(cd::core::FleetRuntime& fleet) {
  return cd::tensor::pack_tensors(
      cd::nn::state_of(fleet.model(fleet.live_agents().front())));
}

Episode run_fleetd_episode(uint64_t seed, bool trace, Result& res,
                           const std::function<void(cd::core::FleetRuntime&,
                                                    const cd::daemon::FleetSpec&)>&
                               after = nullptr) {
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(trace);
  tracer.set_round(-1);
  Episode ep;
  ep.traced = trace;
  const cd::daemon::FleetSpec spec = fleetd_spec(seed);
  ep.samples_per_round = spec.agents * spec.batch_size * spec.batches_per_round;

  static int64_t index = 0;
  ++index;
  const std::string dir = ".bench_build/run";
  std::filesystem::create_directories(dir);
  const std::string sock = dir + "/fleetd-" + std::to_string(::getpid()) +
                           "-" + std::to_string(index) + ".sock";
  const std::string addr = "unix:" + sock;
  std::string scales;
  for (const double s : spec.compute_scales)
    scales += (scales.empty() ? "" : ",") + fmt(s);

  Daemons daemons;
  std::vector<uint8_t> weights;
  std::vector<cd::core::RoundReport> reports;
  {
    std::unique_ptr<cd::daemon::FleetClient> client;
    const double t0 = now_s();
    traced("setup", "fleetd-2w", [&] {
      daemons.spawn({"--listen", addr, "--workers", "2", "--agents",
                     std::to_string(spec.agents), "--seed",
                     std::to_string(spec.seed), "--batches",
                     std::to_string(spec.batches_per_round), "--scale", scales,
                     "--mbps", fmt(spec.mbps)});
      wait_for_file(sock, 30.0);
      for (int i = 0; i < 2; ++i)
        daemons.spawn({"--worker", "--index", std::to_string(i), "--connect",
                       addr});
      client = std::make_unique<cd::daemon::FleetClient>(addr, 30.0);
      // Parked clients are answered once every worker has joined and the
      // data mesh is up, so this first RPC marks the fleet ready.
      (void)client->stats();
    });
    ep.setup_s = now_s() - t0;

    double cpu0 = 0.0;
    for (int64_t r = 0; r < kFleetdWarmup + kFleetdRounds; ++r) {
      if (r == kFleetdWarmup) {
        cpu0 = self_cpu_s();
        for (const pid_t p : daemons.pids()) cpu0 += child_cpu_s(p);
      }
      ++res.attempted;
      tracer.set_round(r);
      RoundRec rec;
      rec.start_ns = tracer.now_ns();
      const double s0 = now_s();
      const cd::core::RoundReport rep =
          traced("round", "fleetd-2w", [&] { return client->round(); });
      rec.wall = now_s() - s0;
      rec.end_ns = tracer.now_ns();
      if (!std::isfinite(rep.mean_loss))
        throw std::runtime_error("non-finite loss at round " +
                                 std::to_string(r));
      rec.model = rep.round_seconds;
      rec.exposed_model = rep.exposed_comm_seconds;
      rec.agg_bytes = rep.aggregation_bytes;
      rec.pairs = rep.num_pairs;
      reports.push_back(rep);
      if (r >= kFleetdWarmup) ep.rounds.push_back(rec);
    }
    double cpu1 = self_cpu_s();
    for (const pid_t p : daemons.pids()) {
      cpu1 += child_cpu_s(p);
      ep.child_peak_rss_mb += child_peak_rss_mb(p);
    }
    ep.cpu_s = cpu1 - cpu0;
    tracer.set_round(-1);
    ep.socket = client->stats();
    std::vector<double> rtt;
    for (int i = 0; i < 5; ++i) {
      const double s0 = now_s();
      (void)client->stats();
      rtt.push_back(now_s() - s0);
    }
    ep.control_rtt_s = median(rtt);
    weights = client->weights();
    client->shutdown();
    client.reset();
    if (!daemons.join(30.0)) res.fail("fleetd did not shut down cleanly");
  }
  std::error_code ignored;
  for (const auto& f : std::filesystem::directory_iterator(dir, ignored))
    if (f.path().filename().string().rfind(
            "fleetd-" + std::to_string(::getpid()) + "-" +
                std::to_string(index) + ".",
            0) == 0)
      std::filesystem::remove(f.path(), ignored);
  tracer.set_enabled(false);

  // The same spec stepped in this process: the weights check, the loss
  // check, accuracy, and daemon.local_round_s.
  cd::core::FleetRuntime local = cd::daemon::build_spec_fleet(spec);
  std::vector<double> local_walls;
  cd::core::RoundReport last;
  int64_t heap0 = 0, arena0 = 0;
  for (int64_t r = 0; r < kFleetdWarmup + kFleetdRounds; ++r) {
    if (r == kFleetdWarmup) {
      heap0 = g_heap_allocs.load();
      arena0 = arena_allocs();
    }
    const double s0 = now_s();
    last = local.step();
    if (r >= kFleetdWarmup) local_walls.push_back(now_s() - s0);
  }
  ep.heap_allocs = g_heap_allocs.load() - heap0;
  ep.arena_allocs = arena_allocs() - arena0;
  ep.local_round_s = median(local_walls);
  if (consensus_weights(local) != weights)
    res.fail("fleetd weights differ from the in-process fleet");
  if (reports.back().mean_loss != last.mean_loss)
    res.fail("fleetd loss differs from the in-process fleet");
  ep.loss_final = reports.back().mean_loss;
  ep.accuracy = local.evaluate(fleetd_heldout(spec));
  if (after) after(local, spec);
  return ep;
}

// ---- metric assembly ----------------------------------------------------------

struct Pooled {
  std::vector<double> wall, model, exposed_model, agg_bytes;
  double wall_sum = 0.0;
  double cpu = 0.0;
  int64_t samples = 0, rounds = 0, heap = 0, arena = 0;
};

/// Pools the traced or the untraced episodes (a --trace 0 run has only
/// untraced ones).
Pooled pool(const std::vector<Episode>& eps, bool traced) {
  Pooled p;
  for (const Episode& e : eps) {
    if (e.traced != traced) continue;
    for (const RoundRec& r : e.rounds) {
      p.wall.push_back(r.wall);
      p.model.push_back(r.model);
      p.exposed_model.push_back(r.exposed_model);
      p.agg_bytes.push_back(static_cast<double>(r.agg_bytes));
      p.wall_sum += r.wall;
    }
    p.cpu += e.cpu_s;
    p.rounds += static_cast<int64_t>(e.rounds.size());
    p.samples += e.samples_per_round * static_cast<int64_t>(e.rounds.size());
    p.heap += e.heap_allocs;
    p.arena += e.arena_allocs;
  }
  return p;
}

/// Labels TracedUnit uses, per workload (the nn.* metric names).
const std::vector<std::string> kUnitLabels = {"stem", "basicblock", "head",
                                              "dense"};

/// Span-derived per-layer numbers over the measured rounds of the traced
/// episodes.
void span_metrics(const std::vector<Episode>& eps,
                  const std::vector<Span>& spans, Result& res) {
  std::map<std::string, double> fwd, bwd;
  double flops = 0.0, unit_s = 0.0, wall = 0.0;
  std::vector<double> imbalance, exposed;
  int64_t rounds = 0;
  // Spans carry episode-local round ids; walk the traced episodes in the
  // order they ran, matching each span to its round by time.
  for (const Episode& e : eps) {
    if (!e.traced) continue;
    for (const RoundRec& r : e.rounds) {
      std::map<int32_t, double> busy;
      int64_t last_bwd = r.start_ns;
      for (const Span& s : spans) {
        if (s.start_ns < r.start_ns || s.end_ns > r.end_ns) continue;
        const bool is_fwd = std::strcmp(s.name, "fwd") == 0;
        const bool is_bwd = std::strcmp(s.name, "bwd") == 0;
        if (!is_fwd && !is_bwd) continue;
        const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        (is_fwd ? fwd : bwd)[s.kind] += d;
        flops += s.flops;
        unit_s += d;
        busy[s.thread] += d;
        if (is_bwd) last_bwd = std::max(last_bwd, s.end_ns);
      }
      double sum = 0.0, mx = 0.0;
      for (const auto& kv : busy) {
        sum += kv.second;
        mx = std::max(mx, kv.second);
      }
      if (sum > 0.0) imbalance.push_back(mx / (sum / kThreads));
      exposed.push_back(static_cast<double>(r.end_ns - last_bwd) * 1e-9);
      wall += r.wall;
      ++rounds;
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(rounds, 1));
  for (const std::string& label : kUnitLabels) {
    res.add("nn.fwd_s." + label, fwd[label] / n, "s");
    res.add("nn.bwd_s." + label, bwd[label] / n, "s");
  }
  res.add("nn.gflops", unit_s > 0.0 ? flops / unit_s / 1e9 : 0.0, "GFLOP/s");
  res.add("core.parallel.busy_share",
          wall > 0.0 ? unit_s / (kThreads * wall) : 0.0, "ratio");
  res.add("core.parallel.busy_imbalance", median(imbalance), "ratio");
  res.add("comm.exposed_s", unit_s > 0.0 ? median(exposed) : 0.0, "s");
}

double gemm_gflops(int64_t m, int64_t k, int64_t n) {
  cd::tensor::Rng rng(3);
  const cd::tensor::Tensor a = rng.normal_tensor({m, k}, 0.0f, 1.0f);
  const cd::tensor::Tensor b = rng.normal_tensor({k, n}, 0.0f, 1.0f);
  std::vector<float> c(static_cast<size_t>(m * n));
  const double s = time_call([&] {
    cd::tensor::gemm_nn(a.flat().data(), b.flat().data(), c.data(), m, k, n);
  });
  return 2.0 * static_cast<double>(m * k * n) / s / 1e9;
}

/// quantized_codec() on one 64 KiB bucket (16384 fp32 wire elements).
std::pair<double, double> codec_gbps() {
  constexpr int64_t kElems = 16384;
  const cd::comm::Codec& codec = cd::comm::quantized_codec();
  cd::tensor::Rng rng(4);
  std::vector<double> src(kElems), buf(kElems);
  for (double& v : src) v = rng.normal();
  const double bytes = static_cast<double>(kElems) * sizeof(float);
  const double enc = time_call([&] {
    std::copy(src.begin(), src.end(), buf.begin());
    (void)codec.encode(buf.data(), kElems);
  });
  const double dec = time_call([&] {
    std::copy(src.begin(), src.end(), buf.begin());
    codec.transform(buf.data(), kElems);
  });
  return {bytes / enc / 1e9, bytes / dec / 1e9};
}

void print_env(const Args& a) {
  std::printf(
      "perfbench env {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"threads\": %d, \"fleetd_worker_threads\": 1, \"gemm_kernel\": "
      "\"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": "
      "\"%s\", \"commit\": \"%s\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      sysconf(_SC_NPROCESSORS_ONLN), cd::core::num_threads(),
      cd::tensor::gemm_kernel_name(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER, a.commit.c_str());
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = std::stoi(v) != 0;
    else if (arg == "--commit") a.commit = v;
    else if (arg == "--trace-file") a.trace_file = v;
    else throw std::invalid_argument("unknown flag " + arg);
  }
  if (a.workload != "cnn-hetero" && a.workload != "mlp-int8-overlap" &&
      a.workload != "fleetd-2w")
    throw std::invalid_argument("unknown --workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  (void)Tracer::thread_index();  // the main thread is thread 0
  cd::core::set_num_threads(kThreads);
  print_env(args);

  const bool fleetd = args.workload == "fleetd-2w";
  const InProcSpec spec =
      args.workload == "cnn-hetero" ? cnn_hetero() : mlp_int8_overlap();
  const float floor = fleetd ? kFleetdAccuracyFloor : spec.accuracy_floor;

  Result res;
  std::optional<Replays> replays;
  // One episode on `seed`; `host_replays` runs the single-layer replays on
  // the episode's fleet after its rounds.
  const auto run_episode = [&](uint64_t seed, bool trace_ep,
                               bool host_replays) {
    try {
      if (fleetd)
        return run_fleetd_episode(
            seed, trace_ep, res,
            [&](cd::core::FleetRuntime& local,
                const cd::daemon::FleetSpec& fs) {
              if (!host_replays) return;
              std::vector<cd::sim::ResourceProfile> profiles;
              for (const double s : fs.compute_scales)
                profiles.push_back({s, fs.mbps});
              cd::core::FleetOptions o;
              o.train.batch_size = fs.batch_size;
              o.train.batches_per_round = fs.batches_per_round;
              replays = replay_layers(
                  local.model(0), local.real_comdml()->profile(),
                  cd::sim::Topology::full_mesh(profiles), o,
                  fleetd_heldout(fs), nullptr);
            });
      return run_inproc_episode(
          spec, seed, trace_ep, res,
          [&](cd::core::RealFleet& f, const FleetData& d,
              const cd::sim::Topology& topo) {
            if (!host_replays) return;
            const cd::core::FleetOptions o = fleet_options(spec, seed);
            replays = replay_layers(f.model(0), f.profile(), topo, o,
                                    d.shards[0], o.comms.bucket_codec());
          });
    } catch (const std::exception& e) {
      // A round that threw, a non-finite loss, or a daemon that failed.
      res.fail(std::string("episode failed: ") + e.what());
      return Episode{};
    }
  };
  const auto check_accuracy = [&](const Episode& ep) {
    if (res.correct && !(ep.accuracy >= floor))
      res.fail("accuracy " + fmt(ep.accuracy) + " below the floor " +
               fmt(floor));
  };

  // Final loss and accuracy of a fleet vary far more between seeds than a
  // regression bound can (the fleetd spec's round-65 loss spans 0.0005 to
  // 0.03 over seeds 1-12), so loss_final and accuracy_final come from one
  // untimed episode on the workload's fixed quality seed: they repeat
  // exactly across runs, and move only when the arithmetic does.
  std::optional<Episode> quality;
  if (!args.trace) {
    quality = run_episode(kQualitySeed, false, false);
    check_accuracy(*quality);
  }

  std::vector<Episode> eps;
  const double start = now_s();
  // A run needs >= 3 timed episodes (set-up median, repeatability); a
  // traced run alternates untraced and traced episodes.
  for (int64_t k = 0;
       res.correct && (k < 3 || now_s() - start < args.seconds); ++k) {
    const bool trace_ep = args.trace && k % 2 == 1;
    Episode ep = run_episode(args.seed, trace_ep,
                             trace_ep && !replays.has_value());
    if (!res.correct) break;
    // Every episode replays the same seeded fleet, traced or not.
    if (!eps.empty() && ep.loss_final != eps.front().loss_final)
      res.fail("final loss differs between two episodes of the same seed");
    if (!eps.empty() && ep.accuracy != eps.front().accuracy)
      res.fail("accuracy differs between two episodes of the same seed");
    check_accuracy(ep);
    eps.push_back(std::move(ep));
  }

  const double self_rss = self_peak_rss_mb();
  for (const std::string& note : res.notes)
    std::fprintf(stderr, "perfbench: check failed: %s\n", note.c_str());

  const Pooled all = pool(eps, false);
  std::vector<double> setups;
  double child_rss = 0.0;
  for (const Episode& e : eps) {
    setups.push_back(e.setup_s);
    child_rss = std::max(child_rss, e.child_peak_rss_mb);
  }
  const double p50 = median(all.wall);
  const double model = median(all.model);
  // round_s_p90 is printed, not a metric: on fleetd-2w its spread over
  // seeds reached the largest bound the benchmark may set.
  std::printf(
      "perfbench %s: %zu episodes, %lld measured rounds (warm-up excluded), "
      "round_s_p50=%s round_s_p90=%s setup_s=%s\n",
      args.workload.c_str(), eps.size(), static_cast<long long>(all.rounds),
      fmt(p50).c_str(), fmt(quantile(all.wall, 0.9)).c_str(),
      fmt(median(setups)).c_str());

  if (!args.trace) {
    res.add("round_s_p50", p50, "s");
    res.add("samples_per_s",
            all.wall_sum > 0.0 ? static_cast<double>(all.samples) / all.wall_sum
                               : 0.0,
            "samples/s");
    res.add("setup_s", median(setups), "s");
    res.add("model_round_s", model, "s");
    res.add("agg_bytes_per_round", median(all.agg_bytes), "B");
    res.add("loss_final", quality->loss_final, "nats");
    res.add("accuracy_final", quality->accuracy, "ratio");
    res.add("peak_rss_mb", self_rss + child_rss, "MB");
    res.add("cpu_s_per_round",
            all.rounds > 0 ? all.cpu / static_cast<double>(all.rounds) : 0.0,
            "s");
  } else {
    const Pooled traced_p = pool(eps, true);
    std::vector<Span> spans = Tracer::get().take();
    span_metrics(eps, spans, res);
    const auto [enc, dec] = codec_gbps();
    const Replays rp = replays.value_or(Replays{});
    res.add("tensor.gemm_gflops.conv", gemm_gflops(8, 72, 256), "GFLOP/s");
    res.add("tensor.gemm_gflops.mlp", gemm_gflops(16, 256, 256), "GFLOP/s");
    std::vector<double> pairs, buckets, early;
    for (const Episode& e : eps)
      for (const RoundRec& r : e.rounds) {
        pairs.push_back(static_cast<double>(r.pairs));
        buckets.push_back(static_cast<double>(r.buckets));
        early.push_back(static_cast<double>(r.split_early));
      }
    res.add("core.pairing.pairs", median(pairs), "count");
    res.add("core.pairing.call_s", rp.pairing_call_s, "s");
    res.add("core.round_pipeline.buckets", median(buckets), "count");
    res.add("core.round_pipeline.split_early_buckets", median(early),
            "count");
    res.add("comm.exposed_model_s", median(all.exposed_model), "s");
    res.add("comm.collective.wall_s", rp.collective_wall_s, "s");
    res.add("comm.collective.messages",
            static_cast<double>(rp.collective_messages), "count");
    res.add("comm.collective.wire_bytes",
            static_cast<double>(rp.collective_wire_bytes), "B");
    res.add("comm.codec.encode_gbps", enc, "GB/s");
    res.add("comm.codec.decode_gbps", dec, "GB/s");
    const double rounds_d = static_cast<double>(std::max<int64_t>(all.rounds, 1));
    res.add("core.workspace.arena_allocs_per_round",
            static_cast<double>(all.arena) / rounds_d, "count");
    res.add("mem.heap_allocs_per_round", static_cast<double>(all.heap) / rounds_d,
            "count");
    res.add("privacy.dcor_s", rp.dcor_s, "s");
    res.add("data.next_batch_s", rp.next_batch_s, "s");
    std::vector<double> local, rtt, msgs, wire, model_s;
    for (const Episode& e : eps) {
      if (!fleetd) break;
      local.push_back(e.local_round_s);
      rtt.push_back(e.control_rtt_s);
      msgs.push_back(static_cast<double>(e.socket.messages));
      wire.push_back(static_cast<double>(e.socket.total_wire_bytes));
      model_s.push_back(e.socket.seconds);
    }
    res.add("daemon.local_round_s", median(local), "s");
    res.add("daemon.overhead_s", fleetd ? p50 - median(local) : 0.0, "s");
    res.add("daemon.control_rtt_s", median(rtt), "s");
    res.add("comm.socket.messages_per_round", median(msgs), "count");
    res.add("comm.socket.wire_bytes_per_round", median(wire), "B");
    res.add("comm.socket.model_s", median(model_s), "s");
    res.add("sim.gap", model > 0.0 ? p50 / model : 0.0, "ratio");
    const double traced_p50 = median(traced_p.wall);
    res.add("trace.overhead", p50 > 0.0 ? traced_p50 / p50 : 0.0, "ratio");
    std::printf(
        "perfbench analytic vs measured: round_s_p50=%s model_round_s=%s "
        "sim.gap=%s | comm.exposed_s=%s comm.exposed_model_s=%s | traced "
        "round_s_p50=%s\n",
        fmt(p50).c_str(), fmt(model).c_str(),
        fmt(model > 0.0 ? p50 / model : 0.0).c_str(),
        fmt(res.value("comm.exposed_s")).c_str(),
        fmt(median(all.exposed_model)).c_str(), fmt(traced_p50).c_str());
    if (!args.trace_file.empty() &&
        !perfbench::write_chrome_trace(args.trace_file, spans))
      res.fail("cannot write the span file " + args.trace_file);
  }
  std::printf("perfbench fail_ratio=%s (%lld of %lld rounds)\n",
              fmt(static_cast<double>(res.failed) /
                  static_cast<double>(std::max<int64_t>(res.attempted, 1)))
                  .c_str(),
              static_cast<long long>(res.failed),
              static_cast<long long>(res.attempted));
  print_result(res);
  return res.correct ? 0 : 1;
}
