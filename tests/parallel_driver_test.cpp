// Determinism regression for the parallel sweep runner: running a spec list
// through run_sim_experiments must produce bit-identical results whether the
// experiments run sequentially (jobs=1), sequentially again (simulation is a
// pure function of its spec), or fanned across OS threads (jobs=4). Any
// leaked process-global mutable state in src/sim/ or src/htm/ shows up here
// as a cross-run or cross-thread diff.
#include <gtest/gtest.h>

#include <vector>

#include "driver/experiment.hpp"
#include "driver/parallel.hpp"

namespace euno::driver {
namespace {

std::vector<ExperimentSpec> small_sweep() {
  ExperimentSpec base;
  base.workload.key_range = 1 << 14;
  base.workload.dist = workload::DistKind::kZipfian;
  base.workload.scramble = false;
  base.workload.seed = 42;
  base.preload = base.workload.key_range / 2;
  base.preload_stride = 2;
  base.ops_per_thread = 300;
  base.machine.arena_bytes = 256ull << 20;

  std::vector<ExperimentSpec> specs;
  for (double theta : {0.2, 0.9}) {
    base.workload.dist_param = theta;
    for (int threads : {4, 16}) {
      base.threads = threads;
      for (const char* slug : {"htm-bptree", "euno"}) {
        base.tree = slug;
        specs.push_back(base);
      }
    }
  }
  return specs;
}

TEST(ParallelDriver, SequentialIsRepeatable) {
  const auto specs = small_sweep();
  const auto a = run_sim_experiments(specs, 1);
  const auto b = run_sim_experiments(specs, 1);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first_counter_diff(a[i], b[i]), "") << "spec index " << i;
  }
}

TEST(ParallelDriver, ParallelMatchesSequentialBitForBit) {
  const auto specs = small_sweep();
  const auto seq = run_sim_experiments(specs, 1);
  const auto par = run_sim_experiments(specs, 4);
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first_counter_diff(seq[i], par[i]), "") << "spec index " << i;
  }
}

TEST(ParallelDriver, MatchesSingleExperimentRunner) {
  // The sweep runner is a drop-in for a loop over run_sim_experiment.
  auto specs = small_sweep();
  specs.resize(3);
  const auto batch = run_sim_experiments(specs, 2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first_counter_diff(run_sim_experiment(specs[i]), batch[i]), "")
        << "spec index " << i;
  }
}

TEST(ParallelDriver, EdgeCases) {
  EXPECT_TRUE(run_sim_experiments({}, 4).empty());
  EXPECT_GE(default_jobs(), 1);

  // More jobs than specs: workers beyond the spec count find nothing to do.
  auto specs = small_sweep();
  specs.resize(2);
  const auto seq = run_sim_experiments(specs, 1);
  const auto par = run_sim_experiments(specs, 16);
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first_counter_diff(seq[i], par[i]), "") << "spec index " << i;
  }
}

}  // namespace
}  // namespace euno::driver
