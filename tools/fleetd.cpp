// fleetd — host one ComDML fleet across OS processes.
//
//   fleetd --listen unix:/tmp/fleet.sock --workers 2 --agents 4  # coordinator
//   fleetd --worker --index 0 --connect unix:/tmp/fleet.sock     # worker 0
//   fleetd --worker --index 1 --connect unix:/tmp/fleet.sock     # worker 1
//
// Drive rounds with `fleet_cli --connect unix:/tmp/fleet.sock`.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/fault_spec.hpp"
#include "daemon/fleetd.hpp"

namespace {

using comdml::core::parse_flag_value;
using comdml::core::parse_positive_list;
using comdml::daemon::CoordinatorOptions;
using comdml::daemon::WorkerOptions;

void usage() {
  std::fprintf(
      stderr,
      "fleetd — multi-process ComDML fleet daemon\n"
      "\n"
      "coordinator:\n"
      "  fleetd --listen <addr> [--workers N] [--agents N] [--seed N]\n"
      "         [--protocol hd|ring] [--batches N] [--batch-size N]\n"
      "         [--lr F] [--momentum F] [--mbps F] [--latency F]\n"
      "         [--scale F,F,...]   per-agent compute multipliers\n"
      "worker:\n"
      "  fleetd --worker --index I --connect <addr> [--rejoin]\n"
      "\n"
      "--rejoin re-admits a re-spawned replacement for a crashed worker:\n"
      "it restores from a consensus checkpoint and its agents revive.\n"
      "addresses: unix:/path/to.sock | tcp:host:port\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false;
  CoordinatorOptions coord;
  WorkerOptions wopt;
  // A malformed command line (unknown flag, missing or bad value) exits 1;
  // a daemon that fails while running exits 2.
  try {
    constexpr double kMax = std::numeric_limits<double>::max();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      const auto count = [&](int64_t lo) {
        return parse_flag_value<int64_t>(arg, value(), lo, INT64_MAX);
      };
      const auto real = [&](double lo, double hi) {
        return parse_flag_value<double>(arg, value(), lo, hi);
      };
      if (arg == "--worker") {
        worker = true;
      } else if (arg == "--rejoin") {
        wopt.rejoin = true;
      } else if (arg == "--scale") {
        coord.spec.compute_scales = parse_positive_list(arg, value());
      } else if (arg == "--listen") {
        coord.listen = value();
      } else if (arg == "--connect") {
        wopt.connect = value();
      } else if (arg == "--index") {
        wopt.index = count(0);
      } else if (arg == "--workers") {
        coord.workers = count(1);
      } else if (arg == "--agents") {
        coord.spec.agents = count(1);
      } else if (arg == "--seed") {
        coord.spec.seed = parse_flag_value<uint64_t>(arg, value(), 0,
                                                     UINT64_MAX);
      } else if (arg == "--protocol") {
        coord.spec.protocol = value();
      } else if (arg == "--batches") {
        coord.spec.batches_per_round = count(1);
      } else if (arg == "--batch-size") {
        coord.spec.batch_size = count(1);
      } else if (arg == "--lr") {
        coord.spec.lr = static_cast<float>(
            real(std::numeric_limits<float>::min(),
                 std::numeric_limits<float>::max()));
      } else if (arg == "--momentum") {
        coord.spec.momentum =
            static_cast<float>(real(0.0, std::nextafter(1.0f, 0.0f)));
      } else if (arg == "--mbps") {
        coord.spec.mbps = real(std::numeric_limits<double>::min(), kMax);
      } else if (arg == "--latency") {
        coord.spec.latency_sec = real(0.0, kMax);
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
    }
    if (worker && wopt.connect.empty())
      throw std::invalid_argument("--worker needs --connect <addr>");
    if (!worker && coord.listen.empty())
      throw std::invalid_argument("coordinator needs --listen <addr>");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    usage();
    return 1;
  }
  try {
    return worker ? comdml::daemon::run_worker(wopt)
                  : comdml::daemon::run_coordinator(coord);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 2;
  }
}
