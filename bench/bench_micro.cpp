// Micro-benchmarks (google-benchmark): hot kernels of every substrate —
// tensor math, conv forward/backward, the pairing scheduler, the AllReduce
// executor, pair execution and the dCor estimator.
//
// Before the google-benchmark suite runs, a hand-rolled kernel suite times
// the optimized matmul/conv kernels against the kept naive references at
// 1/2/4/8 threads, the conv kernels on each ResNet-20 conv geometry, the
// BatchNorm, ReLU and BasicBlock layers at its three stage shapes, the
// activation wire codec and the random draws, and writes the results to
// BENCH_kernels.json (op, shape, threads, GFLOP/s — GB/s for the codec
// entries, ns per draw for the random ones, speedup vs the reference) so
// the perf trajectory is tracked across PRs. An allocation probe then
// measures heap and workspace-arena traffic per
// conv2d forward/backward step after warmup, so the
// zero-steady-state-allocation property is a number, not a claim.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/compress.hpp"
#include "core/execution.hpp"
#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "core/trainer.hpp"
#include "core/workspace.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/resnet.hpp"
#include "privacy/dcor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/random.hpp"

// ---- allocation-counting hook ----------------------------------------------
//
// Process-wide operator new/delete counter so "zero steady-state
// allocations" is measured, not asserted. Counts every heap allocation in
// the process (library + benchmark harness), so probes below snapshot the
// counter tightly around the measured region.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace comdml;
using tensor::Rng;
using tensor::Tensor;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = rng.normal_tensor({n, n}, 0, 1);
  const Tensor b = rng.normal_tensor({n, n}, 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulReference(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = rng.normal_tensor({n, n}, 0, 1);
  const Tensor b = rng.normal_tensor({n, n}, 0, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(tensor::matmul_reference(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulReference)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(8, 8, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({4, 8, 16, 16}, 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x, true));
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(8, 8, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({4, 8, 16, 16}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 8, 16, 16}, 0, 1);
  (void)conv.forward(x, true);
  for (auto _ : state) benchmark::DoNotOptimize(conv.backward(g));
}
BENCHMARK(BM_ConvBackward);

void BM_PairingScheduler(benchmark::State& state) {
  const auto agents = state.range(0);
  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(spec, 16);
  Rng rng(4);
  const auto topo =
      sim::Topology::full_mesh(sim::assign_profiles(agents, rng));
  std::vector<core::AgentInfo> infos;
  for (int64_t i = 0; i < agents; ++i) {
    core::AgentInfo a;
    a.id = i;
    a.proc_speed = sim::samples_per_sec(topo.profile(i),
                                        profile.full_flops_per_sample()) /
                   100.0;
    a.num_batches = 50;
    a.tau_solo = 50.0 / a.proc_speed;
    infos.push_back(a);
  }
  std::vector<int64_t> parts(static_cast<size_t>(agents));
  std::iota(parts.begin(), parts.end(), 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::pair_agents(profile, infos, topo, 100, parts));
}
BENCHMARK(BM_PairingScheduler)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_AllReduceExec(benchmark::State& state) {
  // One 64x64 fp32 state per agent, averaged by the halving/doubling
  // collective over an InProcTransport on a uniform 100 Mbps grid.
  const auto agents = state.range(0);
  constexpr int64_t kElems = 64 * 64;
  Rng rng(5);
  std::vector<double> base(static_cast<size_t>(agents * kElems));
  for (double& v : base) v = rng.normal();
  const comm::Collective& hd =
      comm::collective(comm::Protocol::kHalvingDoublingAllReduce);
  for (auto _ : state) {
    std::vector<double> slab = base;
    comm::InProcTransport transport(
        comm::LinkGrid::uniform(agents, 100.0));
    comm::CollectiveRequest req;
    req.elems = kElems;
    for (int64_t a = 0; a < agents; ++a)
      req.buffers.push_back(slab.data() + a * kElems);
    benchmark::DoNotOptimize(hd.run(transport, req));
    benchmark::DoNotOptimize(slab.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AllReduceExec)->Arg(4)->Arg(16)->Arg(64);

void BM_ExecutePair(benchmark::State& state) {
  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(spec);
  core::AgentInfo slow, fast;
  slow.id = 0;
  slow.proc_speed = 0.4;
  slow.num_batches = 250;
  slow.tau_solo = 250 / 0.4;
  fast.id = 1;
  fast.proc_speed = 8.0;
  fast.num_batches = 250;
  fast.tau_solo = 250 / 8.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::execute_pair(profile, slow, fast, 28, 50.0, 100));
}
BENCHMARK(BM_ExecutePair);

void BM_CompressActivations(benchmark::State& state) {
  Rng rng(8);
  Tensor t = rng.normal_tensor({8, 16, 32, 32}, 0, 1);
  for (float& v : t.flat()) v = std::max(v, 0.0f);  // post-ReLU profile
  for (auto _ : state)
    benchmark::DoNotOptimize(comm::compress_activations(t));
  state.SetBytesProcessed(state.iterations() * t.nbytes());
}
BENCHMARK(BM_CompressActivations);

void BM_DecompressActivations(benchmark::State& state) {
  Rng rng(9);
  Tensor t = rng.normal_tensor({8, 16, 32, 32}, 0, 1);
  for (float& v : t.flat()) v = std::max(v, 0.0f);
  const auto c = comm::compress_activations(t);
  for (auto _ : state)
    benchmark::DoNotOptimize(comm::decompress_activations(c));
  state.SetBytesProcessed(state.iterations() * t.nbytes());
}
BENCHMARK(BM_DecompressActivations);

void BM_DistanceCorrelation(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(6);
  const Tensor x = rng.normal_tensor({n, 32}, 0, 1);
  const Tensor z = rng.normal_tensor({n, 16}, 0, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(privacy::distance_correlation(x, z));
}
BENCHMARK(BM_DistanceCorrelation)->Arg(32)->Arg(128);

void BM_SimulatedRound(benchmark::State& state) {
  const auto agents = state.range(0);
  core::FleetOptions opts = core::FleetOptions::paper_defaults();
  opts.scale.max_split_points = 16;
  opts.scale.reshuffle_period = 0;
  Rng rng(7);
  auto topo = sim::Topology::full_mesh(sim::assign_profiles(agents, rng));
  std::vector<int64_t> sizes(static_cast<size_t>(agents), 5000);
  core::SimulatedFleet fleet(nn::resnet56_spec(), opts, std::move(topo),
                             std::move(sizes));
  for (auto _ : state) benchmark::DoNotOptimize(fleet.step());
}
BENCHMARK(BM_SimulatedRound)->Arg(10)->Arg(100);

// ---- kernel suite with JSON output -----------------------------------------

struct KernelRecord {
  std::string op;
  std::string shape;
  int threads = 0;  // 0 = serial reference kernel
  double gflops = 0.0;  ///< value in `metric` units
  double speedup_vs_serial = 1.0;
  std::string metric = "gflops";
};

/// Best-of-N wall time of fn, with one warmup call.
double time_seconds(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 1e30;
  double total = 0.0;
  int reps = 0;
  while ((total < 0.25 && reps < 50) || reps < 3) {
    const auto t0 = clock::now();
    fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

const int kKernelThreadCounts[] = {1, 2, 4, 8};

/// Times `reference` (serial) and `optimized` at each thread count;
/// appends records with GFLOP/s and speedup vs the reference.
void run_kernel_case(std::vector<KernelRecord>& out, const std::string& op,
                     const std::string& shape, double flops,
                     const std::function<void()>& reference,
                     const std::function<void()>& optimized) {
  core::set_num_threads(1);
  const double t_ref = time_seconds(reference);
  out.push_back({op + "_reference", shape, 0, flops / t_ref / 1e9, 1.0});
  std::printf("  %-18s %-22s serial reference: %7.3f GFLOP/s\n", op.c_str(),
              shape.c_str(), flops / t_ref / 1e9);
  for (const int threads : kKernelThreadCounts) {
    core::set_num_threads(threads);
    const double t = time_seconds(optimized);
    out.push_back({op, shape, threads, flops / t / 1e9, t_ref / t});
    std::printf("  %-18s %-22s threads=%d: %7.3f GFLOP/s (%.2fx vs serial)\n",
                op.c_str(), shape.c_str(), threads, flops / t / 1e9,
                t_ref / t);
  }
  core::set_num_threads(0);
}

void write_kernel_json(const std::vector<KernelRecord>& records,
                       const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                 "\"gflops\": %.4f, \"speedup_vs_serial\": %.4f, "
                 "\"metric\": \"%s\"}%s\n",
                 r.op.c_str(), r.shape.c_str(), r.threads, r.gflops,
                 r.speedup_vs_serial, r.metric.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

void run_kernel_suite() {
  std::printf("==== kernel suite (writes BENCH_kernels.json) ====\n");
  std::printf("hardware threads: %d, GEMM micro-kernel: %s\n",
              core::hardware_threads(), comdml::tensor::gemm_kernel_name());
  std::vector<KernelRecord> records;

  {
    const int64_t n = 256;
    Rng rng(41);
    const Tensor a = rng.normal_tensor({n, n}, 0, 1);
    const Tensor b = rng.normal_tensor({n, n}, 0, 1);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    run_kernel_case(
        records, "matmul", "256x256x256", flops,
        [&] { benchmark::DoNotOptimize(tensor::matmul_reference(a, b)); },
        [&] { benchmark::DoNotOptimize(tensor::matmul(a, b)); });
  }

  {
    // The batch-16 Linear GEMMs of perfbench's mlp-int8-overlap model
    // (32-256-256-10), in all three layouts at 1 thread: matmul_nt is the
    // forward, matmul the input gradient, matmul_tn the weight gradient.
    // Shape: m x k x n of the product.
    struct Gemm {
      int64_t m, k, n;
    };
    const Gemm gemms[] = {{16, 32, 256}, {16, 256, 256}, {16, 256, 10}};
    core::set_num_threads(1);
    for (const Gemm& g : gemms) {
      Rng rng(44);
      const Tensor a = rng.normal_tensor({g.m, g.k}, 0, 1);
      const Tensor b = rng.normal_tensor({g.k, g.n}, 0, 1);
      const Tensor at = tensor::transpose2d(a);
      const Tensor bt = tensor::transpose2d(b);
      const double flops = 2.0 * static_cast<double>(g.m * g.k * g.n);
      const std::string shape = std::to_string(g.m) + "x" +
                                std::to_string(g.k) + "x" +
                                std::to_string(g.n);
      const std::pair<const char*, std::function<Tensor()>> variants[] = {
          {"matmul_nn", [&] { return tensor::matmul(a, b); }},
          {"matmul_nt", [&] { return tensor::matmul_nt(a, bt); }},
          {"matmul_tn", [&] { return tensor::matmul_tn(at, b); }}};
      for (const auto& [op, fn] : variants) {
        const double t =
            time_seconds([&] { benchmark::DoNotOptimize(fn()); });
        records.push_back({op, shape, 1, flops / t / 1e9, 1.0});
        std::printf("  %-18s %-22s threads=1: %7.3f GFLOP/s (%.1f us)\n", op,
                    shape.c_str(), flops / t / 1e9, t * 1e6);
      }
    }
    core::set_num_threads(0);
  }

  {
    // Conv2d: [8,16,32,32] * [32,16,3,3], stride 1, pad 1.
    const int64_t bn = 8, cin = 16, cout = 32, hw = 32, k = 3;
    Rng rng(42);
    nn::Conv2d conv(cin, cout, k, 1, 1, rng);
    Rng wrng(42);
    const Tensor w = wrng.he_normal({cout, cin, k, k}, cin * k * k);
    const Tensor x = rng.normal_tensor({bn, cin, hw, hw}, 0, 1);
    const double fwd_flops =
        2.0 * k * k * cin * cout * hw * hw * static_cast<double>(bn);
    run_kernel_case(
        records, "conv2d_forward", "8x16x32x32_k3s1p1", fwd_flops,
        [&] {
          benchmark::DoNotOptimize(nn::conv2d_reference_forward(x, w, 1, 1));
        },
        [&] { benchmark::DoNotOptimize(conv.forward(x, true)); });

    const Tensor g = rng.normal_tensor({bn, cout, hw, hw}, 0, 1);
    Tensor dw(w.shape());
    (void)conv.forward(x, true);
    run_kernel_case(
        records, "conv2d_backward", "8x16x32x32_k3s1p1", 2.0 * fwd_flops,
        [&] {
          dw.fill(0.0f);
          benchmark::DoNotOptimize(
              nn::conv2d_reference_backward(x, w, g, 1, 1, dw));
        },
        [&] { benchmark::DoNotOptimize(conv.backward(g)); });
  }

  {
    // Per-shape conv table: the eight conv geometries of a base-8 ResNet-20
    // on 16x16 inputs (perfbench's cnn-hetero model), batch 16, 1 thread.
    // Shape: batch x cin x h x w _ kernel stride pad _ cout.
    struct Geometry {
      int64_t cin, cout, hw, k, stride, pad;
    };
    const Geometry geometries[] = {
        {3, 8, 16, 3, 1, 1},  {8, 8, 16, 3, 1, 1},  {8, 16, 16, 3, 2, 1},
        {8, 16, 16, 1, 2, 0}, {16, 16, 8, 3, 1, 1}, {16, 32, 8, 3, 2, 1},
        {16, 32, 8, 1, 2, 0}, {32, 32, 4, 3, 1, 1}};
    const int64_t bn = 16;
    core::set_num_threads(1);
    for (const Geometry& c : geometries) {
      Rng rng(45);
      nn::Conv2d conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
      const int64_t o = conv.out_extent(c.hw);
      const Tensor x = rng.normal_tensor({bn, c.cin, c.hw, c.hw}, 0, 1);
      const Tensor g = rng.normal_tensor({bn, c.cout, o, o}, 0, 1);
      const double fwd_flops = 2.0 * static_cast<double>(c.k * c.k * c.cin) *
                               static_cast<double>(c.cout * o * o * bn);
      char shape[64];
      std::snprintf(shape, sizeof shape,
                    "%lldx%lldx%lldx%lld_k%llds%lldp%lld_c%lld",
                    static_cast<long long>(bn), static_cast<long long>(c.cin),
                    static_cast<long long>(c.hw), static_cast<long long>(c.hw),
                    static_cast<long long>(c.k),
                    static_cast<long long>(c.stride),
                    static_cast<long long>(c.pad),
                    static_cast<long long>(c.cout));
      const double t_fwd = time_seconds(
          [&] { benchmark::DoNotOptimize(conv.forward(x, true)); });
      (void)conv.forward(x, true);
      const double t_bwd =
          time_seconds([&] { benchmark::DoNotOptimize(conv.backward(g)); });
      records.push_back(
          {"conv2d_forward", shape, 1, fwd_flops / t_fwd / 1e9, 1.0});
      records.push_back(
          {"conv2d_backward", shape, 1, 2.0 * fwd_flops / t_bwd / 1e9, 1.0});
      std::printf("  conv2d %-28s threads=1: fwd %7.3f GFLOP/s (%.1f us), "
                  "bwd %7.3f GFLOP/s (%.1f us)\n",
                  shape, fwd_flops / t_fwd / 1e9, t_fwd * 1e6,
                  2.0 * fwd_flops / t_bwd / 1e9, t_bwd * 1e6);
    }
    core::set_num_threads(0);
  }

  {
    // The layers around the convolutions, per call at 1 thread: BN, ReLU
    // and a whole identity BasicBlock at the three stage shapes of the
    // cnn-hetero model (batch 16). Value: best-of-N microseconds per call.
    const tensor::Shape shapes[] = {
        {16, 8, 16, 16}, {16, 16, 8, 8}, {16, 32, 4, 4}};
    core::set_num_threads(1);
    for (const tensor::Shape& s : shapes) {
      Rng rng(46);
      const Tensor x = rng.normal_tensor(s, 0, 1);
      const Tensor g = rng.normal_tensor(s, 0, 1);
      const std::string shape = tensor::shape_str(s);
      nn::BatchNorm2d bn(s[1]);
      nn::ReLU relu;
      nn::BasicBlock block(s[1], s[1], 1, rng);
      const std::pair<const char*, nn::Module*> layers[] = {
          {"batchnorm2d", &bn}, {"relu", &relu}, {"basicblock", &block}};
      for (const auto& [name, m] : layers) {
        const double t_fwd = time_seconds(
            [&] { benchmark::DoNotOptimize(m->forward(x, true)); });
        (void)m->forward(x, true);
        const double t_bwd =
            time_seconds([&] { benchmark::DoNotOptimize(m->backward(g)); });
        records.push_back({std::string(name) + "_forward", shape, 1,
                           t_fwd * 1e6, 1.0, "wall_us"});
        records.push_back({std::string(name) + "_backward", shape, 1,
                           t_bwd * 1e6, 1.0, "wall_us"});
        std::printf("  %-18s %-22s threads=1: fwd %8.1f us, bwd %8.1f us\n",
                    name, shape.c_str(), t_fwd * 1e6, t_bwd * 1e6);
      }
    }
    core::set_num_threads(0);
  }

  {
    // Wire codec throughput (GB/s of raw activation bytes in the "gflops"
    // field; single-threaded, speedup not applicable).
    Rng rng(43);
    Tensor t = rng.normal_tensor({8, 16, 32, 32}, 0, 1);
    for (float& v : t.flat()) v = std::max(v, 0.0f);  // post-ReLU profile
    const double gb = static_cast<double>(t.nbytes());
    const double t_c = time_seconds(
        [&] { benchmark::DoNotOptimize(comm::compress_activations(t)); });
    records.push_back(
        {"compress_activations", "8x16x32x32", 1, gb / t_c / 1e9, 1.0});
    std::printf("  %-18s %-22s threads=1: %7.3f GB/s\n",
                "compress", "8x16x32x32", gb / t_c / 1e9);
    const auto c = comm::compress_activations(t);
    const double t_d = time_seconds(
        [&] { benchmark::DoNotOptimize(comm::decompress_activations(c)); });
    records.push_back(
        {"decompress_activations", "8x16x32x32", 1, gb / t_d / 1e9, 1.0});
    std::printf("  %-18s %-22s threads=1: %7.3f GB/s\n",
                "decompress", "8x16x32x32", gb / t_d / 1e9);
  }

  {
    // Bucket wire codec throughput: one QuantizingCodec encode of a
    // bucket-sized fp64 payload (the round pipeline's publish-time and
    // per-hop compression path). GB/s of the fp32-wire-equivalent bytes.
    // encode() does the same two passes (max-abs scan + quantize) whatever
    // the values hold, so re-encoding the same buffer measures exactly the
    // steady-state codec work without charging a refill copy to it.
    const int64_t elems = 64 * 1024 / 4;  // one 64 KiB fp32-wire bucket
    std::vector<double> work(static_cast<size_t>(elems));
    for (int64_t i = 0; i < elems; ++i)
      work[static_cast<size_t>(i)] =
          0.731 * (static_cast<double>(i % 255) / 127.0 - 1.0);
    const double wire_gb = static_cast<double>(elems) * 4;
    const double t_q = time_seconds([&] {
      benchmark::DoNotOptimize(comm::quantized_codec().encode(
          work.data(), elems));
    });
    records.push_back({"quantized_codec_encode", "64KiB_bucket", 1,
                       wire_gb / t_q / 1e9, 1.0, "gbps"});
    std::printf("  %-18s %-22s threads=1: %7.3f GB/s (fp32-wire bytes)\n",
                "int8_bucket_codec", "64KiB_bucket", wire_gb / t_q / 1e9);
  }

  {
    // Random draws in ns per draw (single-threaded), each next to its
    // std:: reference: the raw engine against std::mt19937_64, and
    // normal(), fill_normal() and he_normal() against a fresh
    // std::normal_distribution<float> per draw over the same engine, which
    // is what normal() ran before its transforms moved in-tree. All of
    // them draw the same values.
    const size_t draws = size_t{1} << 20;
    std::vector<float> out(draws);
    const auto ns_case = [&](const std::string& op, const std::string& shape,
                             double n, const std::function<void()>& reference,
                             const std::function<void()>& optimized) {
      const double t_ref = time_seconds(reference) / n * 1e9;
      const double t = time_seconds(optimized) / n * 1e9;
      records.push_back({op + "_reference", shape, 0, t_ref, 1.0,
                         "ns_per_draw"});
      records.push_back({op, shape, 1, t, t_ref / t, "ns_per_draw"});
      std::printf("  %-18s %-22s %7.2f ns/draw, std:: reference %7.2f "
                  "(%.2fx)\n",
                  op.c_str(), shape.c_str(), t, t_ref, t_ref / t);
    };
    tensor::Mt19937_64 engine(47);
    std::mt19937_64 std_engine(47);
    const auto std_normals = [&] {
      for (float& v : out)
        v = std::normal_distribution<float>(0.0f, 1.0f)(engine);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    };
    ns_case(
        "rng_engine", "2^20_draws", static_cast<double>(draws),
        [&] {
          uint64_t sum = 0;
          for (size_t i = 0; i < draws; ++i) sum += std_engine();
          benchmark::DoNotOptimize(sum);
        },
        [&] {
          uint64_t sum = 0;
          for (size_t i = 0; i < draws; ++i) sum += engine();
          benchmark::DoNotOptimize(sum);
        });
    Rng rng(47);
    ns_case("rng_normal", "2^20_draws", static_cast<double>(draws),
            std_normals, [&] {
              for (float& v : out) v = rng.normal(0.0f, 1.0f);
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            });
    ns_case("rng_fill_normal", "2^20_draws", static_cast<double>(draws),
            std_normals, [&] {
              rng.fill_normal(out, 0.0f, 1.0f);
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            });
    const float he_stddev = std::sqrt(2.0f / 256.0f);
    ns_case(
        "he_normal", "256x256", 256.0 * 256.0,
        [&] {
          Tensor w({256, 256});
          for (float& v : w.flat())
            v = std::normal_distribution<float>(0.0f, he_stddev)(engine);
          benchmark::DoNotOptimize(w.flat().data());
          benchmark::ClobberMemory();
        },
        [&] { benchmark::DoNotOptimize(rng.he_normal({256, 256}, 256)); });
  }

  {
    // Comm protocols through the Transport API: per-collective traffic and
    // modeled time of the SimTransport schedule (K=16 agents, 4 MB model,
    // 100 Mbps bottleneck links), plus the wall time of the real InProc
    // executor on a 1 MB model. Simulated and executed runs are the same
    // schedule, so the bytes are identical by construction.
    std::printf("  -- comm protocols (Transport API, K=16, 4 MB model) --\n");
    const int64_t k = 16;
    const int64_t elems = 1'000'000;  // 4 MB on the fp32 wire
    tensor::Rng grng(51);
    const struct {
      const char* op;
      comm::Protocol protocol;
    } protocols[] = {
        {"ring_allreduce", comm::Protocol::kRingAllReduce},
        {"halving_doubling_allreduce",
         comm::Protocol::kHalvingDoublingAllReduce},
        {"gossip", comm::Protocol::kGossip},
        {"param_server", comm::Protocol::kParamServer},
    };
    for (const auto& p : protocols) {
      comm::CollectiveRequest req;
      req.elems = elems;
      req.rng = &grng;
      auto grid = p.protocol == comm::Protocol::kParamServer
                      ? comm::LinkGrid::star(
                            std::vector<double>(static_cast<size_t>(k),
                                                100.0))
                      : comm::LinkGrid::uniform(k, 100.0);
      comm::SimTransport transport(std::move(grid));
      (void)comm::collective(p.protocol).run(transport, req);
      const auto& st = transport.stats();
      records.push_back({p.op, "k16_4MB", 1,
                         static_cast<double>(st.max_bytes_sent()), 1.0,
                         "bytes_per_round"});
      records.push_back({p.op, "k16_4MB", 1, st.seconds, 1.0,
                         "model_seconds_per_collective"});
      std::printf("  %-28s %-10s %8.2f MB/agent/round, %7.2f modeled s\n",
                  p.op, "k16_4MB",
                  static_cast<double>(st.max_bytes_sent()) / 1e6,
                  st.seconds);
    }
    // Unreliable-network model: the lossy plan's fault decisions are pure
    // hashes of the shared step counter, so the retransmission traffic the
    // reliable channel generates and the step count of a mid-collective
    // recovery are exact functions of the code — the bench guard gates
    // them like schedule bytes.
    std::printf("  -- unreliable delivery (hash-decided faults, K=16) --\n");
    {
      comm::FaultPlan faults;
      faults.seed = 101;
      comm::FaultPlan::MessageFault mf;  // src/dst default to any-edge
      mf.drop_prob = 0.15;
      mf.delay_prob = 0.10;
      mf.delay_steps_max = 2;
      mf.duplicate_prob = 0.10;
      faults.message_faults.push_back(mf);
      for (const auto& p : protocols) {
        comm::CollectiveRequest req;
        req.elems = elems;
        req.rng = &grng;
        auto grid = p.protocol == comm::Protocol::kParamServer
                        ? comm::LinkGrid::star(
                              std::vector<double>(static_cast<size_t>(k),
                                                  100.0))
                        : comm::LinkGrid::uniform(k, 100.0);
        comm::SimTransport transport(std::move(grid), nullptr, faults);
        (void)comm::collective(p.protocol).run(transport, req);
        const auto& st = transport.stats();
        records.push_back({p.op, "k16_4MB_lossy", 1,
                           static_cast<double>(st.retransmit_wire_bytes),
                           1.0, "retransmit_bytes_per_round"});
        std::printf("  %-28s %-13s %8.2f MB retransmitted, "
                    "%8.2f MB goodput\n",
                    p.op, "k16_4MB_lossy",
                    static_cast<double>(st.retransmit_wire_bytes) / 1e6,
                    static_cast<double>(st.goodput_bytes()) / 1e6);
      }
      // Mid-collective endpoint death: the survivor ring re-forms and the
      // total step count of the recovered run is deterministic.
      comm::CollectiveRequest req;
      req.elems = elems;
      comm::SimTransport transport(comm::LinkGrid::uniform(k, 100.0));
      transport.schedule_endpoint_failure(3, 5);
      comm::AsyncCollective op(comm::Protocol::kRingAllReduce, transport,
                               std::move(req));
      op.enable_recovery(comm::Protocol::kRingAllReduce);
      op.wait();
      const auto& st = transport.stats();
      records.push_back({"ring_allreduce_recovered", "k16_4MB_1death", 1,
                         static_cast<double>(st.steps), 1.0,
                         "recovery_steps"});
      std::printf("  %-28s %-13s %8lld steps to recovered completion\n",
                  "ring_allreduce_recovered", "k16_4MB_1death",
                  static_cast<long long>(st.steps));
    }
    // Wall time of the real executor: InProc halving/doubling over a 1 MB
    // model (the fleets' default aggregation path).
    const int64_t exec_elems = 250'000;
    std::vector<std::vector<double>> bufs(static_cast<size_t>(k));
    for (size_t a = 0; a < bufs.size(); ++a)
      bufs[a].assign(static_cast<size_t>(exec_elems),
                     static_cast<double>(a));
    const double t_exec = time_seconds([&] {
      comm::InProcTransport transport(comm::LinkGrid::uniform(k, 100.0));
      comm::CollectiveRequest req;
      req.elems = exec_elems;
      req.buffers.clear();
      req.buffers.reserve(bufs.size());
      for (auto& b : bufs) req.buffers.push_back(b.data());
      (void)comm::collective(comm::Protocol::kHalvingDoublingAllReduce)
          .run(transport, req);
    });
    records.push_back({"halving_doubling_allreduce", "k16_1MB_inproc", 1,
                       t_exec, 1.0, "wall_seconds_per_collective"});
    std::printf("  %-28s %-10s %.4f wall s/collective (real payloads)\n",
                "halving_doubling_allreduce", "k16_1MB", t_exec);
  }

  {
    // Fleet rounds: sequential vs overlapped bucketed aggregation through
    // the real ComDML engine (InProc collectives, mlp replicas), with the
    // fp32 and the quantized (int8 + error feedback) bucket wire codec.
    // The "round_seconds" rows are measured wall time of one RealFleet
    // round; the "model_round_seconds" rows are the modeled clock of the
    // same round (SimTransport-equivalent schedule + overlap timeline);
    // "bytes_per_round" is the executed allreduce traffic (max bytes any
    // agent sent) and "exposed_comm_seconds" the aggregation time left on
    // the modeled critical path after overlap — the quantized rows should
    // show ~4x fewer bytes and a proportionally thinner exposed tail.
    // Overlap needs real concurrency: expect wall parity at 1 thread and
    // the gap to open with cores.
    std::printf("  -- fleet rounds: buckets x overlap x codec --\n");
    for (const int64_t k : {int64_t{4}, int64_t{16}}) {
      for (const bool overlap : {false, true}) {
        for (const bool quantized : {false, true}) {
          for (const int threads : {1, 2, 4}) {
            core::set_num_threads(threads);
            core::FleetOptions opt;
            opt.seed = 71;
            opt.train.batch_size = 16;
            opt.train.batches_per_round = 2;
            opt.comms.bucket_bytes = 64 * 1024;
            opt.comms.overlap = overlap;
            opt.comms.codec =
                quantized
                    ? core::FleetOptions::CommOptions::Codec::kInt8Quantized
                    : core::FleetOptions::CommOptions::Codec::kFp32;
            Rng rng(61);
            const int64_t features = 32, classes = 10;
            const auto ds =
                data::make_blobs(k * 32, classes, features, 0.3f, rng);
            const auto parts = data::iid_partition(ds.size(), k, rng);
            std::vector<data::Dataset> shards;
            for (const auto& idx : parts) shards.push_back(ds.subset(idx));
            std::vector<sim::ResourceProfile> profiles;
            const std::vector<double> cpus{4.0, 0.2, 2.0, 0.5};
            for (int64_t i = 0; i < k; ++i)
              profiles.push_back(
                  {cpus[static_cast<size_t>(i) % cpus.size()], 100.0});
            core::RealFleet fleet(
                [&](Rng& r) {
                  return nn::mlp({features, 256, 256, classes}, r);
                },
                classes, std::move(shards),
                sim::Topology::full_mesh(profiles), opt);
            double model_seconds = 0.0, exposed_seconds = 0.0;
            double bytes_per_round = 0.0;
            const double wall = time_seconds([&] {
              const auto stats = fleet.step();
              model_seconds = stats.sim_time;
              exposed_seconds = stats.exposed_comm_seconds;
              bytes_per_round =
                  static_cast<double>(stats.aggregation_bytes);
            });
            const std::string shape =
                "k" + std::to_string(k) +
                (overlap ? "_overlap" : "_sequential") +
                (quantized ? "_int8" : "");
            records.push_back({"comdml_round", shape, threads, wall, 1.0,
                               "round_seconds"});
            records.push_back({"comdml_round", shape, threads,
                               model_seconds, 1.0, "model_round_seconds"});
            records.push_back({"comdml_round", shape, threads,
                               bytes_per_round, 1.0, "bytes_per_round"});
            records.push_back({"comdml_round", shape, threads,
                               exposed_seconds, 1.0,
                               "exposed_comm_seconds"});
            std::printf(
                "  %-18s %-22s threads=%d: %8.4f wall s/round, %7.2f "
                "modeled s, %8.2f KB/agent, %6.2f exposed s\n",
                "comdml_round", shape.c_str(), threads, wall, model_seconds,
                bytes_per_round / 1e3, exposed_seconds);
          }
        }
      }
    }
    core::set_num_threads(0);
  }

  write_kernel_json(records, "BENCH_kernels.json");
  std::printf("wrote BENCH_kernels.json (%zu records)\n\n", records.size());
}

/// Measures heap + arena traffic of one conv2d forward/backward step after
/// warmup: the workspace arena must stop allocating entirely (its scratch
/// is reused at the high-water mark), leaving only the output/grad Tensor
/// allocations of the layer API.
void run_allocation_probe() {
  std::printf("==== conv2d allocation probe (micro-kernel: %s) ====\n",
              comdml::tensor::gemm_kernel_name());
  core::set_num_threads(1);  // single arena -> exact accounting
  Rng rng(44);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({8, 16, 32, 32}, 0, 1);
  const Tensor g = rng.normal_tensor({8, 32, 32, 32}, 0, 1);
  for (int i = 0; i < 2; ++i) {  // warmup: arenas grow to high-water
    (void)conv.forward(x, true);
    (void)conv.backward(g);
  }
  constexpr int kSteps = 10;
  const auto ws0 = core::Workspace::aggregate_stats();
  const uint64_t heap0 = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteps; ++i) {
    (void)conv.forward(x, true);
    (void)conv.backward(g);
  }
  const uint64_t heap1 = g_alloc_count.load(std::memory_order_relaxed);
  const auto ws1 = core::Workspace::aggregate_stats();
  std::printf(
      "  steady-state per fwd+bwd step: %.1f heap allocations "
      "(output/grad tensors), %.1f arena allocations "
      "(%lld scratch checkouts/step, %.1f KiB process-wide arena "
      "high-water)\n\n",
      static_cast<double>(heap1 - heap0) / kSteps,
      static_cast<double>(ws1.heap_allocs - ws0.heap_allocs) / kSteps,
      static_cast<long long>((ws1.checkouts - ws0.checkouts) / kSteps),
      static_cast<double>(ws1.high_water_bytes) / 1024.0);
  core::set_num_threads(0);
}

}  // namespace

int main(int argc, char** argv) {
  run_kernel_suite();
  run_allocation_probe();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
