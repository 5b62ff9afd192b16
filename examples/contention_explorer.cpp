// Contention explorer: interactively compare the four concurrent trees on
// the simulated 20-core machine across a contention sweep — a miniature,
// user-steerable version of the paper's Figure 8.
//
//   ./build/examples/contention_explorer [threads] [keys] [ops_per_thread]
//
// Prints throughput, aborts/op and where aborts land (upper/lower region vs.
// monolithic) for each (θ, tree) pair.
#include <cstdio>
#include <cstdlib>

#include "driver/experiment.hpp"

using namespace euno;
using driver::ExperimentSpec;

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 16;
  const std::uint64_t keys =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : (1u << 18);
  const std::uint64_t ops =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1500;

  std::printf("contention explorer: %d simulated cores, %llu keys\n\n", threads,
              static_cast<unsigned long long>(keys));
  std::printf("%5s  %-13s %10s %9s %7s %7s %7s\n", "theta", "tree", "mops",
              "aborts/op", "upper", "lower", "mono");

  for (double theta : {0.2, 0.5, 0.7, 0.9, 0.99}) {
    for (const char* slug : {"htm-bptree", "masstree", "htm-masstree", "euno"}) {
      ExperimentSpec spec;
      spec.tree = slug;
      spec.threads = threads;
      spec.workload.key_range = keys;
      spec.workload.dist_param = theta;
      spec.workload.scramble = false;
      spec.preload = keys / 2;
      spec.preload_stride = 2;
      spec.ops_per_thread = ops;
      const auto r = run_sim_experiment(spec);
      std::printf("%5.2f  %-13s %9.2fM %9.3f %7llu %7llu %7llu\n", theta,
                  driver::tree_display_name(slug).c_str(), r.throughput_mops,
                  r.aborts_per_op, static_cast<unsigned long long>(r.upper_aborts),
                  static_cast<unsigned long long>(r.lower_aborts),
                  static_cast<unsigned long long>(r.mono_aborts));
    }
    std::printf("\n");
  }
  return 0;
}
