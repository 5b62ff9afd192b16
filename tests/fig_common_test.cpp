// Coverage for the shared bench plumbing: BenchArgs --jobs parsing, the
// sweep helpers in fig_common.hpp, and the jobs=1 sequential fallback of
// run_figure_sweep (every figure binary routes its spec list through it).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fig_common.hpp"

namespace euno {
namespace {

stats::BenchArgs parse(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(argv_strings.size());
  for (auto& s : argv_strings) argv.push_back(s.data());
  return stats::BenchArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, JobsDefaultsToSequential) {
  EXPECT_EQ(parse({}).jobs, 1);
  EXPECT_EQ(parse({"--quick"}).jobs, 1);
}

TEST(BenchArgs, JobsEqualsForm) {
  EXPECT_EQ(parse({"--jobs=3"}).jobs, 3);
  EXPECT_EQ(parse({"--jobs=16"}).jobs, 16);
}

TEST(BenchArgs, JobsTwoTokenForm) {
  EXPECT_EQ(parse({"--jobs", "5"}).jobs, 5);
  const auto a = parse({"--jobs", "2", "--quick"});
  EXPECT_EQ(a.jobs, 2);
  EXPECT_TRUE(a.quick);
}

TEST(BenchArgs, JobsAutoPicksHardwareConcurrency) {
  // "auto" must resolve to something usable on any host, including ones
  // where hardware_concurrency() reports 0.
  EXPECT_GE(parse({"--jobs=auto"}).jobs, 1);
  EXPECT_GE(parse({"--jobs", "auto"}).jobs, 1);
}

TEST(BenchArgs, JobsClampsNonsenseToSequential) {
  EXPECT_EQ(parse({"--jobs=0"}).jobs, 1);
  EXPECT_EQ(parse({"--jobs=-4"}).jobs, 1);
}

TEST(BenchArgs, JobsComposesWithOtherFlags) {
  const auto a = parse({"--csv", "--jobs=4", "--ops=123", "--seed=7"});
  EXPECT_TRUE(a.csv);
  EXPECT_EQ(a.jobs, 4);
  EXPECT_EQ(a.ops_per_thread, 123u);
  EXPECT_EQ(a.seed, 7u);
}

TEST(BenchArgs, StoreFlagsParse) {
  const auto a =
      parse({"--store-shards=8", "--offered-load=2.5", "--deadline-us=50"});
  EXPECT_EQ(a.store_shards, 8);
  EXPECT_DOUBLE_EQ(a.offered_load, 2.5);
  EXPECT_EQ(a.deadline_us, 50u);
  // All off by default.
  const auto d = parse({});
  EXPECT_EQ(d.store_shards, 0);
  EXPECT_EQ(d.offered_load, 0.0);
  EXPECT_EQ(d.deadline_us, 0u);
}

using BenchArgsDeathTest = ::testing::Test;

TEST(BenchArgsDeathTest, RejectsDegenerateStoreShards) {
  // 0 would silently run the single-tree path; junk and huge counts are
  // config bugs. All must exit 2 with the usage line, not be clamped.
  EXPECT_EXIT(parse({"--store-shards=0"}), ::testing::ExitedWithCode(2),
              "--store-shards=0");
  EXPECT_EXIT(parse({"--store-shards=8x"}), ::testing::ExitedWithCode(2),
              "--store-shards=8x");
  EXPECT_EXIT(parse({"--store-shards=65536"}), ::testing::ExitedWithCode(2),
              "--store-shards=65536");
}

TEST(BenchArgsDeathTest, RejectsNonPositiveOfferedLoad) {
  EXPECT_EXIT(parse({"--offered-load=0"}), ::testing::ExitedWithCode(2),
              "--offered-load=0");
  EXPECT_EXIT(parse({"--offered-load=-1"}), ::testing::ExitedWithCode(2),
              "--offered-load=-1");
  EXPECT_EXIT(parse({"--offered-load=nan"}), ::testing::ExitedWithCode(2),
              "--offered-load=nan");
  EXPECT_EXIT(parse({"--offered-load=2.5q"}), ::testing::ExitedWithCode(2),
              "--offered-load=2.5q");
}

TEST(BenchArgsDeathTest, RejectsNonPositiveDeadline) {
  EXPECT_EXIT(parse({"--deadline-us=0"}), ::testing::ExitedWithCode(2),
              "--deadline-us=0");
  EXPECT_EXIT(parse({"--deadline-us=5ms"}), ::testing::ExitedWithCode(2),
              "--deadline-us=5ms");
}

TEST(BenchArgsDeathTest, RejectsOverflowingAndSignedCounts) {
  // Above 2^64-1 or signed: rejected, not saturated or wrapped.
  EXPECT_EXIT(parse({"--ops=99999999999999999999"}),
              ::testing::ExitedWithCode(2), "--ops=99999999999999999999");
  EXPECT_EXIT(parse({"--seed=18446744073709551616"}),
              ::testing::ExitedWithCode(2), "--seed=18446744073709551616");
  EXPECT_EXIT(parse({"--keys=-1"}), ::testing::ExitedWithCode(2), "--keys=-1");
  // 2^64-1 itself is still a valid count.
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed, UINT64_MAX);
}

TEST(BenchArgs, KeyDomainAndScanLenParse) {
  const auto d = parse({});
  EXPECT_EQ(d.key_domain, "");  // empty = bench default (fig_scan: bytes)
  EXPECT_EQ(d.scan_len, 0u);    // 0 = bench default
  const auto a = parse({"--key-domain=bytes", "--scan-len=64"});
  EXPECT_EQ(a.key_domain, "bytes");
  EXPECT_EQ(a.scan_len, 64u);
  EXPECT_EQ(parse({"--key-domain=u64"}).key_domain, "u64");
}

TEST(BenchArgsDeathTest, RejectsUnknownKeyDomain) {
  // Exact-literal matching: a typo'd domain must not fall back to u64 and
  // silently bench the wrong thing. Exit 2 with the usage line.
  EXPECT_EXIT(parse({"--key-domain=Bytes"}), ::testing::ExitedWithCode(2),
              "--key-domain=Bytes");
  EXPECT_EXIT(parse({"--key-domain=byte"}), ::testing::ExitedWithCode(2),
              "--key-domain=byte");
  EXPECT_EXIT(parse({"--key-domain=str"}), ::testing::ExitedWithCode(2),
              "--key-domain=str");
  EXPECT_EXIT(parse({"--key-domain="}), ::testing::ExitedWithCode(2),
              "--key-domain=");
}

TEST(BenchArgsDeathTest, RejectsDegenerateScanLen) {
  // scan-len=0 would make every scan a no-op (vacuously passing exit
  // checks); junk and absurd lengths are config bugs.
  EXPECT_EXIT(parse({"--scan-len=0"}), ::testing::ExitedWithCode(2),
              "--scan-len=0");
  EXPECT_EXIT(parse({"--scan-len=16k"}), ::testing::ExitedWithCode(2),
              "--scan-len=16k");
  EXPECT_EXIT(parse({"--scan-len=9999999"}), ::testing::ExitedWithCode(2),
              "--scan-len=9999999");
}

TEST(BenchArgsDeathTest, RejectsNonPositiveMetricsInterval) {
  // A zero window would divide the run into infinitely many windows; the
  // flag's documented "0 = off" spelling is *omitting* it, not passing 0.
  EXPECT_EXIT(parse({"--metrics-interval=0"}), ::testing::ExitedWithCode(2),
              "--metrics-interval=0");
  EXPECT_EXIT(parse({"--metrics-interval=1k"}), ::testing::ExitedWithCode(2),
              "--metrics-interval=1k");
}

TEST(FigCommon, SweepHelpers) {
  EXPECT_EQ(bench::thread_sweep(/*quick=*/true), (std::vector<int>{4, 16}));
  const auto full = bench::thread_sweep(/*quick=*/false);
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(full.front(), 1);
  EXPECT_EQ(full.back(), 20);  // the paper testbed's core count
  for (std::size_t i = 1; i < full.size(); ++i) {
    EXPECT_LT(full[i - 1], full[i]);
  }

  EXPECT_EQ(bench::theta_sweep(/*quick=*/true).size(), 2u);
  const auto thetas = bench::theta_sweep(/*quick=*/false);
  ASSERT_FALSE(thetas.empty());
  EXPECT_EQ(thetas.front(), 0.0);
  EXPECT_EQ(thetas.back(), 0.99);

  // The default figure sweep: the paper's four trees plus the three-path
  // template, in registry order.
  EXPECT_EQ(bench::figure_trees(),
            (std::vector<std::string>{"htm-bptree", "masstree", "htm-masstree",
                                      "euno", "3path-bptree"}));
}

TEST(FigCommon, FigureSpecHonorsArgs) {
  auto args = parse({"--ops=77", "--keys=1024", "--seed=9"});
  const auto spec = bench::figure_spec(args);
  EXPECT_EQ(spec.ops_per_thread, 77u);
  EXPECT_EQ(spec.workload.key_range, 1024u);
  EXPECT_EQ(spec.workload.seed, 9u);
  EXPECT_EQ(spec.preload, 512u);
}

TEST(FigCommon, LatencyColumnsNameTheirUnit) {
  // Simulated latencies are cycles; native ones are wall nanoseconds.
  EXPECT_EQ(bench::with_latency_columns(parse({}), {"theta"}),
            (std::vector<std::string>{"theta", "p50_cyc", "p99_cyc"}));
  EXPECT_EQ(bench::with_latency_columns(parse({"--native"}), {"theta"}),
            (std::vector<std::string>{"theta", "p50_ns", "p99_ns"}));
}

TEST(FigCommon, RunFigureSweepSequentialFallback) {
  // jobs=1 (the default) must be the plain sequential loop: identical to
  // calling run_sim_experiment per spec, in order.
  auto args = parse({});
  ASSERT_EQ(args.jobs, 1);

  auto spec = bench::figure_spec(args);
  spec.workload.key_range = 1 << 14;
  spec.preload = spec.workload.key_range / 2;
  spec.ops_per_thread = 200;
  spec.threads = 4;
  spec.machine.arena_bytes = 256ull << 20;

  std::vector<driver::ExperimentSpec> specs;
  for (const char* slug : {"htm-bptree", "euno"}) {
    spec.tree = slug;
    specs.push_back(spec);
  }

  const auto swept = bench::run_figure_sweep(specs, args);
  ASSERT_EQ(swept.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto direct = driver::run_sim_experiment(specs[i]);
    EXPECT_EQ(driver::first_counter_diff(swept[i], direct), "") << i;
  }
}

}  // namespace
}  // namespace euno
