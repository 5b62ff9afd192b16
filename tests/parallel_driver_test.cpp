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

// Field-by-field comparison so a regression names the quantity that diverged.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      std::size_t i) {
  SCOPED_TRACE("spec index " + std::to_string(i));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.throughput_mops, b.throughput_mops);
  EXPECT_EQ(a.aborts_per_op, b.aborts_per_op);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.aborts_total, b.aborts_total);
  EXPECT_EQ(a.aborts_conflict, b.aborts_conflict);
  EXPECT_EQ(a.aborts_capacity, b.aborts_capacity);
  EXPECT_EQ(a.aborts_other, b.aborts_other);
  EXPECT_EQ(a.conflicts_true_same_record, b.conflicts_true_same_record);
  EXPECT_EQ(a.conflicts_false_record, b.conflicts_false_record);
  EXPECT_EQ(a.conflicts_false_metadata, b.conflicts_false_metadata);
  EXPECT_EQ(a.conflicts_lock_subscription, b.conflicts_lock_subscription);
  EXPECT_EQ(a.upper_aborts, b.upper_aborts);
  EXPECT_EQ(a.lower_aborts, b.lower_aborts);
  EXPECT_EQ(a.mono_aborts, b.mono_aborts);
  EXPECT_EQ(a.mem_accesses, b.mem_accesses);
  EXPECT_EQ(a.fiber_switches, b.fiber_switches);
  EXPECT_EQ(a.instructions_per_op, b.instructions_per_op);
  EXPECT_EQ(a.wasted_cycle_frac, b.wasted_cycle_frac);
  EXPECT_EQ(a.mem_total, b.mem_total);
  EXPECT_EQ(a.mem_reserved, b.mem_reserved);
  EXPECT_EQ(a.mem_ccm, b.mem_ccm);
}

TEST(ParallelDriver, SequentialIsRepeatable) {
  const auto specs = small_sweep();
  const auto a = run_sim_experiments(specs, 1);
  const auto b = run_sim_experiments(specs, 1);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) expect_identical(a[i], b[i], i);
}

TEST(ParallelDriver, ParallelMatchesSequentialBitForBit) {
  const auto specs = small_sweep();
  const auto seq = run_sim_experiments(specs, 1);
  const auto par = run_sim_experiments(specs, 4);
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(seq[i], par[i], i);
  }
}

TEST(ParallelDriver, MatchesSingleExperimentRunner) {
  // The sweep runner is a drop-in for a loop over run_sim_experiment.
  auto specs = small_sweep();
  specs.resize(3);
  const auto batch = run_sim_experiments(specs, 2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(run_sim_experiment(specs[i]), batch[i], i);
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
    expect_identical(seq[i], par[i], i);
  }
}

}  // namespace
}  // namespace euno::driver
