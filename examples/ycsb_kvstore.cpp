// A multi-threaded key-value store serving a YCSB-style workload on the
// native engine — the paper's motivating scenario (§1: in-memory stores with
// skewed key popularity).
//
//   ./build/examples/ycsb_kvstore [threads] [theta] [ops_per_thread]
//
// Runs the same mix against Euno-B+Tree and the conventional HTM-B+Tree and
// prints wall-clock throughput plus HTM abort statistics. On machines with
// working TSX this exercises real hardware transactions; elsewhere, the
// subscribed-lock fallback.
#include <cstdio>
#include <cstdlib>

#include "driver/experiment.hpp"

using namespace euno;
using driver::ExperimentSpec;

int main(int argc, char** argv) {
  ExperimentSpec spec;
  spec.threads = argc > 1 ? std::atoi(argv[1]) : 4;
  spec.workload.dist_param = argc > 2 ? std::atof(argv[2]) : 0.9;
  spec.ops_per_thread = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 200000;
  spec.workload.key_range = 1 << 20;
  spec.workload.scramble = false;
  spec.preload = spec.workload.key_range / 2;
  spec.preload_stride = 2;

  std::printf("YCSB key-value store: %d threads, %s\n\n", spec.threads,
              spec.workload.describe().c_str());

  for (const char* slug : {"htm-bptree", "euno"}) {
    spec.tree = slug;
    const auto r = run_native_experiment(spec);
    std::printf("%-12s  %8.2f M ops/s  (wall clock)\n",
                driver::tree_display_name(slug).c_str(), r.throughput_mops);
    std::printf("              attempts %llu, commits %llu, aborts/op %.3f, "
                "fallbacks %llu\n\n",
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.commits), r.aborts_per_op,
                static_cast<unsigned long long>(r.fallbacks));
  }
  std::printf(
      "note: on a single-core host the wall-clock numbers measure correctness\n"
      "under timeslicing, not scalability — use the bench/ binaries (simulated\n"
      "multicore) for the paper's figures.\n");
  return 0;
}
