// Table I reproduction: 2-agent local-loss split training with varying
// numbers of offloaded layers, in two (CPU, bandwidth) settings. Reports
// the fast agent's training time, communication time, combined idle time
// and total time to 90% on CIFAR-10 with ResNet-56 — totals must show the
// paper's key shape: an interior optimum that shifts with the CPU/bandwidth
// ratio (paper §V-B-1: "the optimal number of layers to offload is
// non-trivial").
#include "bench_util.hpp"
#include "core/execution.hpp"

namespace {

using namespace comdml;
using namespace comdml::bench;

struct Setting {
  const char* label;
  double slow_cpu;
  double fast_cpu;
  double mbps;
  // Paper totals for offloads {0,1,10,19,28,37,46,55} (seconds).
  double paper_total[8];
};

constexpr Setting kSettings[] = {
    {"setting 1: 2 CPU + 0.25 CPU, 50 Mbps", 0.25, 2.0, 50.0,
     {20096, 20909, 15059, 12851, 11217, 9352, 9551, 10983}},
    {"setting 2: 2 CPU + 1 CPU, 100 Mbps", 1.0, 2.0, 100.0,
     {9165, 9150, 8481, 8456, 8490, 8908, 9640, 10421}},
};

constexpr int kOffloads[] = {0, 1, 10, 19, 28, 37, 46, 55};

}  // namespace

int main() {
  print_header("Table I: 2-agent layer-offloading sweep",
               "ICDCS'24 ComDML, Table I");
  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(
      spec, 0, core::FleetOptions().comms.activation_compression);
  const int64_t batch = 100;
  const int64_t samples_each = 25000;  // CIFAR-10 split across 2 agents

  for (const Setting& st : kSettings) {
    std::printf("\n%s\n", st.label);
    std::printf("%8s %10s %10s %10s %10s %12s\n", "offload", "train(s)",
                "comm(s)", "idle(s)", "total(s)", "paper total");

    core::AgentInfo slow, fast;
    const double fps = profile.full_flops_per_sample();
    slow.id = 0;
    slow.proc_speed =
        st.slow_cpu * sim::kReferenceFlopsPerSec / fps / double(batch);
    slow.num_batches = samples_each / batch;
    slow.tau_solo = double(slow.num_batches) / slow.proc_speed;
    fast.id = 1;
    fast.proc_speed =
        st.fast_cpu * sim::kReferenceFlopsPerSec / fps / double(batch);
    fast.num_batches = samples_each / batch;
    fast.tau_solo = double(fast.num_batches) / fast.proc_speed;

    const auto agg = comm::allreduce_cost(2, profile.model_state_bytes(),
                                          st.mbps);

    double best_total = 1e300;
    int best_offload = -1;
    for (size_t row = 0; row < 8; ++row) {
      const int offload = kOffloads[row];
      double round_train = 0, round_comm = 0, round_idle = 0, round_time = 0;
      double offload_frac = 0.0;
      if (offload == 0) {
        round_train = fast.tau_solo;
        round_time = std::max(slow.tau_solo, fast.tau_solo);
        round_idle = round_time - fast.tau_solo;  // fast agent waits
        round_comm = 0.0;
      } else {
        const size_t cut = spec.size() - static_cast<size_t>(offload);
        const auto exec = core::execute_pair(profile, slow, fast, cut,
                                             st.mbps, batch);
        round_train = exec.fast_train_time;
        round_comm = exec.link_busy;
        round_idle = exec.slow_idle + exec.fast_idle;
        round_time = exec.pair_time;
        offload_frac = profile.offloaded_fraction(cut);
      }
      round_time += agg.seconds;

      // Rounds to 90% under the split-dependent learning rate.
      const auto curve = learncurve::AccuracyModel(
          learncurve::base_curve("cifar10", "resnet56",
                                 learncurve::PartitionKind::kIID),
          learncurve::method_rate(learncurve::Method::kComDML) *
              learncurve::split_rate_penalty(offload_frac));
      const auto base_rounds = curve.rounds_to(0.90);
      if (!base_rounds) continue;
      // Two agents with 25k-sample shards converge near-centralized.
      const double rounds_scaled =
          *base_rounds * learncurve::fleet_rounds_factor(2);
      const auto rounds = std::optional<double>(rounds_scaled);

      const double total = *rounds * round_time;
      if (total < best_total) {
        best_total = total;
        best_offload = offload;
      }
      std::printf("%8d %10.0f %10.0f %10.0f %10.0f %12.0f\n", offload,
                  *rounds * round_train, *rounds * round_comm,
                  *rounds * round_idle, total, st.paper_total[row]);
    }
    std::printf("measured optimum at %d layers offloaded\n", best_offload);
  }
  std::printf(
      "\nshape checks: fast-agent train time rises with offload; totals dip "
      "to an interior optimum; the optimum shifts toward less offloading in "
      "the balanced setting 2 (paper: 37 vs 19 layers).\n");
  return 0;
}
