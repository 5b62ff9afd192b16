// Tests for the experiment driver — and the first end-to-end check of the
// paper's headline claim: under high contention Euno-B+Tree aborts far less
// and runs far faster than the monolithic HTM-B+Tree.
#include <gtest/gtest.h>

#include <string>

#include "driver/experiment.hpp"

namespace euno::driver {
namespace {

ExperimentSpec small_spec(const std::string& tree, double theta, int threads) {
  // Figure-style configuration scaled down for test runtime: consecutive
  // (unscrambled) zipfian hot keys, half the keys preloaded with stride 2 so
  // hot inserts continue during the measured phase.
  ExperimentSpec spec;
  spec.tree = tree;
  spec.threads = threads;
  spec.workload.key_range = 1 << 16;
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = theta;
  spec.workload.scramble = false;
  spec.preload = spec.workload.key_range / 2;
  spec.preload_stride = 2;
  spec.ops_per_thread = 1500;
  spec.machine.arena_bytes = 512ull << 20;
  return spec;
}

TEST(Driver, AllTreesRunAndProduceOps) {
  for (const char* k : {"htm-bptree", "masstree", "htm-masstree", "euno",
                        "euno-split", "euno-part", "euno-lockbits",
                        "euno-markbits"}) {
    const auto r = run_sim_experiment(small_spec(k, 0.5, 4));
    EXPECT_EQ(r.ops, 6000u) << tree_display_name(k);
    EXPECT_GT(r.throughput_mops, 0.0) << tree_display_name(k);
    EXPECT_GT(r.sim_cycles, 0u) << tree_display_name(k);
    EXPECT_GT(r.instructions_per_op, 0.0) << tree_display_name(k);
  }
}

TEST(Driver, Deterministic) {
  const auto a = run_sim_experiment(small_spec("euno", 0.9, 8));
  const auto b = run_sim_experiment(small_spec("euno", 0.9, 8));
  EXPECT_EQ(first_counter_diff(a, b), "");
}

TEST(Driver, FirstCounterDiffCoversEveryScalar) {
  for (const ResultScalar& s : kResultScalars) {
    ExperimentResult a, b;
    if (s.u64 != nullptr) {
      b.*s.u64 = 1;
    } else {
      b.*s.f64 = -0.0;  // == 0.0, but not bit for bit
    }
    EXPECT_EQ(first_counter_diff(a, b), s.name);
    EXPECT_EQ(first_counter_diff(a, b, /*ignore_obs=*/true),
              s.obs ? "" : s.name);
  }
}

TEST(Driver, BaselineAbortsGrowWithContention) {
  const auto low = run_sim_experiment(small_spec("htm-bptree", 0.2, 16));
  const auto high = run_sim_experiment(small_spec("htm-bptree", 0.99, 16));
  EXPECT_GT(high.aborts_per_op, low.aborts_per_op * 3)
      << "Figure 2 premise: aborts must rise sharply with skew";
}

TEST(Driver, EunoBeatsBaselineUnderHighContention) {
  const auto base = run_sim_experiment(small_spec("htm-bptree", 0.99, 16));
  const auto euno = run_sim_experiment(small_spec("euno", 0.99, 16));
  EXPECT_GT(euno.throughput_mops, base.throughput_mops * 1.4)
      << "§5.2: Euno should clearly beat the monolithic baseline at θ=0.99 "
      << "(the paper reports up to 11x on its testbed; our simulated machine "
      << "reproduces the direction at a smaller magnitude)";
  EXPECT_LT(euno.aborts_per_op, base.aborts_per_op)
      << "§5.2: Euno must abort less per op";
}

TEST(Driver, EunoOverheadSmallUnderLowContention) {
  const auto base = run_sim_experiment(small_spec("htm-bptree", 0.2, 16));
  const auto euno = run_sim_experiment(small_spec("euno", 0.2, 16));
  EXPECT_GT(euno.throughput_mops, base.throughput_mops * 0.55)
      << "§5.6: adaptive control keeps low-contention overhead bounded "
      << "(the extra HTM region, mark maintenance and scattered search "
      << "cost more under our latency-dominated cost model than on the "
      << "paper's testbed)";
}

TEST(Driver, MonolithicAbortsLandInMonoSite) {
  const auto r = run_sim_experiment(small_spec("htm-bptree", 0.9, 16));
  EXPECT_GT(r.mono_aborts, 0u);
  EXPECT_EQ(r.upper_aborts + r.lower_aborts, 0u);
}

TEST(Driver, EunoAbortsConcentrateInLowerRegion) {
  const auto r = run_sim_experiment(small_spec("euno-part", 0.95, 16));
  EXPECT_EQ(r.mono_aborts, 0u);
  EXPECT_GT(r.lower_aborts, r.upper_aborts)
      << "conflicts concentrate in the leaf layer (§2.3)";
}

TEST(Driver, NativeEngineSmoke) {
  auto spec = small_spec("euno", 0.9, 2);
  spec.ops_per_thread = 2000;
  const auto r = run_native_experiment(spec);
  EXPECT_EQ(r.ops, 4000u);
  EXPECT_GT(r.throughput_mops, 0.0);
}

// The bytes-domain store path on the simulator: a closed loop through a
// 4-shard store of string-keyed trees, all four op types. The constants pin
// the results exactly, so any drift in preload, key materialization, shard
// routing or the result fold shows up here.
TEST(Driver, BytesStoreSimPinned) {
  auto spec = small_spec("str-htm-bptree", 0.9, 4);
  spec.workload.key_range = 1 << 12;
  spec.workload.key_domain = workload::KeyDomain::kBytes;
  spec.workload.mix = {40, 40, 10, 10};
  spec.workload.scan_len = 8;
  spec.preload = spec.workload.key_range / 2;
  spec.ops_per_thread = 500;
  spec.obs.latency = true;
  spec.store.shards = 4;
  const auto r = run_sim_experiment(spec);
  EXPECT_EQ(r.sim_cycles, 665945u);
  EXPECT_EQ(r.commits, 2000u);
  EXPECT_EQ(r.attempts, 2034u);
  EXPECT_EQ(r.aborts_total, 34u);
  EXPECT_EQ(r.admitted_ops, 2000u);
  EXPECT_EQ(r.suffix_bytes, 378432u);
  EXPECT_EQ(r.mem_total, 475072u);
  // Latency is an obs channel: zero when observability is compiled out.
  EXPECT_EQ(r.lat_p99, obs::kCompiledIn ? 5120.0 : 0.0);
}

// All four native paths (tree or store, u64 or bytes keys) through the
// driver: every op is served and the obs/memory fields are populated.
TEST(Driver, NativePathsServeEveryOp) {
  for (const bool store : {false, true}) {
    for (const bool bytes : {false, true}) {
      SCOPED_TRACE(std::string(store ? "store" : "tree") +
                   (bytes ? "/bytes" : "/u64"));
      auto spec = small_spec(bytes ? "str-masstree" : "euno",
                             0.9, 2);
      spec.workload.key_range = 1 << 12;
      spec.preload = spec.workload.key_range / 2;
      spec.ops_per_thread = 300;
      spec.obs.latency = true;
      if (bytes) spec.workload.key_domain = workload::KeyDomain::kBytes;
      if (store) spec.store.shards = 2;
      const auto r = run_native_experiment(spec);
      EXPECT_EQ(r.ops, 600u);
      EXPECT_GT(r.throughput_mops, 0.0);
      if (obs::kCompiledIn) {
        EXPECT_GT(r.lat_p50, 0.0);
      }
      if (bytes) {
        EXPECT_GT(r.suffix_bytes, 0u);
      }
      if (store) {
        EXPECT_EQ(r.admitted_ops, r.ops);
        EXPECT_EQ(r.shed_ops, 0u);
      }
    }
  }
}

// The thread count is checked against the backend's capacity before anything
// is built, so an invalid count fails fast instead of dividing by zero ops or
// asserting inside an already running worker.
TEST(DriverDeathTest, NativeRejectsThreadCountOutsideCapacity) {
  auto spec = small_spec("euno", 0.5, 0);
  EXPECT_DEATH(run_native_experiment(spec), "thread count");
  spec.threads = 65;
  EXPECT_DEATH(run_native_experiment(spec), "thread count");
}

TEST(Driver, MemoryAccounting) {
  const auto r = run_sim_experiment(small_spec("euno", 0.5, 4));
  EXPECT_GT(r.mem_total, 0u);
  // CCM bytes are folded into each leaf allocation (one line per leaf), so
  // the reserved-keys class is the visible Euno overhead knob.
  EXPECT_LT(r.mem_reserved, r.mem_total);
}

}  // namespace
}  // namespace euno::driver
