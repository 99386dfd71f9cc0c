// Ablation A2: aggregation algorithm — recursive halving/doubling (the
// paper's choice, SecIV-B) vs ring AllReduce vs a central parameter server,
// across fleet sizes and both paper models.
#include "bench_util.hpp"

int main() {
  using namespace comdml;
  using namespace comdml::bench;
  print_header("Ablation: aggregation algorithm cost",
               "paper SecIV-B (2 log2 K vs 2(K-1) steps)");

  const struct {
    const char* label;
    int64_t bytes;
  } models[] = {
      {"resnet56", nn::resnet56_spec().total_param_bytes()},
      {"resnet110", nn::resnet110_spec().total_param_bytes()},
  };
  const double bw = 20.0;  // bottleneck link, Mbps

  bool hd_wins_at_scale = true;
  for (const auto& model : models) {
    std::printf("\nmodel %s (%.1f MB), bottleneck %g Mbps\n", model.label,
                model.bytes / 1e6, bw);
    std::printf("%8s %18s %14s %18s\n", "agents", "halving/doubling",
                "ring", "param server");
    for (const int64_t k : {4, 8, 16, 32, 64, 128}) {
      const auto hd = comm::allreduce_cost(
          k, model.bytes, bw, comm::AllReduceAlgo::kHalvingDoubling);
      const auto ring = comm::allreduce_cost(k, model.bytes, bw,
                                             comm::AllReduceAlgo::kRing);
      // Parameter server: every agent moves 2*b through a shared server.
      std::vector<sim::ResourceProfile> profiles(
          static_cast<size_t>(k), sim::ResourceProfile{1.0, bw});
      std::vector<int64_t> sel(static_cast<size_t>(k));
      for (int64_t i = 0; i < k; ++i) sel[static_cast<size_t>(i)] = i;
      const auto ps =
          core::server_round_times(profiles, sel, model.bytes, {});
      const double ps_worst = *std::max_element(ps.begin(), ps.end());
      std::printf("%8lld %17.2fs %13.2fs %17.2fs\n",
                  static_cast<long long>(k), hd.seconds, ring.seconds,
                  ps_worst);
      if (k >= 32 && hd.seconds > ring.seconds) hd_wins_at_scale = false;
    }
  }
  std::printf(
      "\nshape checks: halving/doubling <= ring for large fleets (the "
      "paper's rationale for choosing it) -> %s\n",
      hd_wins_at_scale ? "OK" : "VIOLATED");
  return hd_wins_at_scale ? 0 : 1;
}
