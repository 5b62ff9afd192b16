// Self-performance benchmark of the experimental substrate itself: how fast
// does the *simulator* run on the host, and how fast does a figure sweep
// regenerate? Emits BENCH_sim_selfperf.json so the perf trajectory of the
// simulator hot path is tracked across PRs (the trees' simulated numbers are
// tracked by the figure benches; this tracks the harness).
//
// Metrics:
//   - wall_ns_per_access: host nanoseconds per instrumented memory access,
//     measured over a high-contention 16-thread Euno run (the hot path:
//     mem_access -> doom check -> coherence cost -> HTM protocol), with
//     observability OFF — the number PR-over-PR regression checks gate on.
//   - switches_per_access: fiber stack switches per instrumented access in
//     the same run. Host-independent (a function of the simulated
//     interleaving only), so it must not move between two runs; it explains
//     how much of wall_ns_per_access is scheduler traffic.
//   - obs_on_wall_ns_per_access: the same run with every obs channel ON
//     (latency + contention + trace), tracking the cost of instrumentation;
//     the sim results must stay bit-identical either way.
//   - sweep_experiments_per_min: experiments per minute for the standard
//     quick Figure-10 sweep (4 panels x {4,16} threads x 4 trees = 32 cells),
//     sequential and — when the host has cores — with --jobs=auto.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>

#include "fig_common.hpp"
#include "obs/json.hpp"
#include "trees/node/simd_search.hpp"

using namespace euno;

namespace {

double wall_ms(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---- in-node search kernel timing (scalar vs dispatched SIMD) ----

std::vector<std::uint64_t> search_keys(int n) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  std::uint64_t k = 100;
  for (auto& slot : keys) slot = (k += 17);
  return keys;
}

// Alternating hit/miss probes, cycled so the branch predictor can't lock
// onto one outcome.
std::vector<std::uint64_t> search_probes(const std::vector<std::uint64_t>& keys) {
  constexpr int kProbes = 1024;
  Xoshiro256 rng(41);
  std::vector<std::uint64_t> probes(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t base =
        keys[rng.next_bounded(static_cast<std::uint64_t>(keys.size()))];
    probes[static_cast<std::size_t>(i)] = (i & 1) ? base : base + 1;
  }
  return probes;
}

// ns/op for one kernel over prebuilt data. `sink` accumulates the results
// (printed once by the caller) to defeat dead-code elimination.
double time_search_ns(int (*kern)(const std::uint64_t*, int, std::uint64_t),
                      const std::uint64_t* data, int n,
                      const std::vector<std::uint64_t>& probes,
                      std::uint64_t* sink) {
  const std::size_t mask = probes.size() - 1;
  constexpr int kIters = 2'000'000;
  std::uint64_t acc = 0;
  // Warm-up pass faults the pages in and primes the predictor.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    acc += static_cast<std::uint64_t>(kern(data, n, probes[i]));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    acc += static_cast<std::uint64_t>(
        kern(data, n, probes[static_cast<std::size_t>(i) & mask]));
  }
  const auto t1 = std::chrono::steady_clock::now();
  *sink += acc;
  return wall_ms(t0, t1) * 1e6 / kIters;
}

// Scalar and SIMD timings of one kernel, interleaved over kRounds rounds.
// Reports the minimum of each side and returns the speedup as the median of
// the per-round scalar/SIMD ratios: host speed that shifts between rounds or
// whole runs moves both sides of a round alike and cancels in its ratio,
// where a ratio of the two minima would carry it.
double time_search_pair_ns(
    int (*scalar)(const std::uint64_t*, int, std::uint64_t),
    int (*simd)(const std::uint64_t*, int, std::uint64_t),
    const std::uint64_t* data, int n, const std::vector<std::uint64_t>& probes,
    std::uint64_t* sink, double* scalar_ns, double* simd_ns) {
  constexpr int kRounds = 7;
  std::array<double, kRounds> ratios;
  *scalar_ns = *simd_ns = std::numeric_limits<double>::infinity();
  for (double& ratio : ratios) {
    const double sc = time_search_ns(scalar, data, n, probes, sink);
    const double si = time_search_ns(simd, data, n, probes, sink);
    *scalar_ns = std::min(*scalar_ns, sc);
    *simd_ns = std::min(*simd_ns, si);
    ratio = si > 0 ? sc / si : 0;
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  return ratios[kRounds / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);

  // --- Part 1: hot-path cost (wall-ns per instrumented access) ---
  // A small store with a long measured phase, so instrumented accesses (not
  // the uninstrumented preload or arena setup) dominate the wall clock. One
  // warm-up run (page faults, zeta cache), then a timed run.
  auto hot = bench::figure_spec(args);
  hot.tree = "euno";
  hot.workload.dist_param = 0.9;
  hot.workload.key_range = 1 << 16;
  hot.preload = hot.workload.key_range / 2;
  hot.threads = 16;
  hot.machine.arena_bytes = 512ull << 20;
  hot.obs = {};  // instrumentation OFF: this is the gated regression number
  if (args.ops_per_thread == 0) hot.ops_per_thread = args.quick ? 4000 : 20000;
  bench::print_header("Self-perf", "simulator host-side performance", hot);

  (void)driver::run_sim_experiment(hot);
  const auto h0 = std::chrono::steady_clock::now();
  const auto hr = driver::run_sim_experiment(hot);
  const auto h1 = std::chrono::steady_clock::now();
  const double hot_ms = wall_ms(h0, h1);
  const double ns_per_access =
      hr.mem_accesses > 0 ? hot_ms * 1e6 / static_cast<double>(hr.mem_accesses)
                          : 0;
  const double switches_per_access =
      hr.mem_accesses > 0 ? static_cast<double>(hr.fiber_switches) /
                                static_cast<double>(hr.mem_accesses)
                          : 0;

  // Same run, all observability channels on: the delta is the full cost of
  // instrumentation, and the simulated quantities must not move at all.
  auto hot_obs = hot;
  hot_obs.obs.latency = true;
  hot_obs.obs.contention = true;
  hot_obs.obs.trace = true;
  const auto o0 = std::chrono::steady_clock::now();
  const auto orr = driver::run_sim_experiment(hot_obs);
  const auto o1 = std::chrono::steady_clock::now();
  const double obs_ms = wall_ms(o0, o1);
  const double obs_ns_per_access =
      orr.mem_accesses > 0 ? obs_ms * 1e6 / static_cast<double>(orr.mem_accesses)
                           : 0;
  const bool obs_identical =
      driver::first_counter_diff(orr, hr, /*ignore_obs=*/true).empty();
  const double obs_overhead_pct =
      ns_per_access > 0 ? 100.0 * (obs_ns_per_access / ns_per_access - 1.0) : 0;

  // --- Part 1.5: in-node search kernels, scalar vs dispatched SIMD ---
  // Fanout-16 sorted separators / records — the shape every descent level
  // probes. The ISSUE gate is simd_speedup_count_le >= 1.5 at fanout >= 16
  // (checked by scripts/check_selfperf.py against the budget file).
  constexpr int kSearchFanout = 16;
  const auto& scalar_k = trees::node::simd::scalar_kernels();
  const auto& simd_k = trees::node::simd::active_kernels();
  const auto keys = search_keys(kSearchFanout);
  const auto probes = search_probes(keys);
  std::vector<std::uint64_t> kv(2 * keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    kv[2 * i] = keys[i];
    kv[2 * i + 1] = i;
  }
  std::uint64_t sink = 0;
  double count_le_scalar_ns, count_le_simd_ns;
  const double speedup_count_le = time_search_pair_ns(
      scalar_k.count_le, simd_k.count_le, keys.data(), kSearchFanout, probes,
      &sink, &count_le_scalar_ns, &count_le_simd_ns);
  double find_eq_scalar_ns, find_eq_simd_ns;
  const double speedup_find_eq = time_search_pair_ns(
      scalar_k.find_eq_pairs, simd_k.find_eq_pairs, kv.data(), kSearchFanout,
      probes, &sink, &find_eq_scalar_ns, &find_eq_simd_ns);
  std::printf("search kernel: %s (sink %llu)\n", simd_k.name,
              static_cast<unsigned long long>(sink & 1));

  // --- Part 2: sweep throughput (experiments/minute, quick fig10 sweep) ---
  auto sweep_spec = bench::figure_spec(args);
  sweep_spec.obs = {};  // comparable across PRs: harness cost only
  sweep_spec.ops_per_thread = args.ops_per_thread ? args.ops_per_thread : 600;
  static constexpr double kThetas[] = {0.2, 0.6, 0.9, 0.99};
  std::vector<driver::ExperimentSpec> specs;
  for (double theta : kThetas) {
    sweep_spec.workload.dist_param = theta;
    for (int threads : bench::thread_sweep(/*quick=*/true)) {
      sweep_spec.threads = threads;
      for (const auto& slug : bench::figure_trees(args)) {
        sweep_spec.tree = slug;
        specs.push_back(sweep_spec);
      }
    }
  }

  const auto s0 = std::chrono::steady_clock::now();
  const auto seq = driver::run_sim_experiments(specs, 1);
  const auto s1 = std::chrono::steady_clock::now();
  const double seq_ms = wall_ms(s0, s1);
  const double seq_epm = static_cast<double>(specs.size()) / (seq_ms / 60000.0);

  const int jobs = args.jobs > 1 ? args.jobs : driver::default_jobs();
  const auto p0 = std::chrono::steady_clock::now();
  const auto par = driver::run_sim_experiments(specs, jobs);
  const auto p1 = std::chrono::steady_clock::now();
  const double par_ms = wall_ms(p0, p1);
  const double par_epm = static_cast<double>(specs.size()) / (par_ms / 60000.0);

  // The parallel run must reproduce the sequential results bit-identically
  // (the determinism test covers this in depth; this is a cheap tripwire).
  bool identical = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    identical &= driver::first_counter_diff(seq[i], par[i]).empty();
  }

  stats::Table table({"metric", "value"});
  table.add_row({"wall_ns_per_access", stats::Table::num(ns_per_access, 1)});
  table.add_row({"switches_per_access",
                 stats::Table::num(switches_per_access, 3)});
  table.add_row({"obs_on_wall_ns_per_access",
                 stats::Table::num(obs_ns_per_access, 1)});
  table.add_row({"obs_overhead_pct", stats::Table::num(obs_overhead_pct, 1)});
  table.add_row({"obs_bit_identical", obs_identical ? "yes" : "NO"});
  table.add_row({"hot_run_accesses", stats::Table::num(hr.mem_accesses)});
  table.add_row({"hot_run_ms", stats::Table::num(hot_ms, 1)});
  table.add_row({"simd_kernel", simd_k.name});
  table.add_row({"count_le_scalar_ns", stats::Table::num(count_le_scalar_ns, 2)});
  table.add_row({"count_le_simd_ns", stats::Table::num(count_le_simd_ns, 2)});
  table.add_row({"simd_speedup_count_le", stats::Table::num(speedup_count_le, 2)});
  table.add_row({"find_eq_scalar_ns", stats::Table::num(find_eq_scalar_ns, 2)});
  table.add_row({"find_eq_simd_ns", stats::Table::num(find_eq_simd_ns, 2)});
  table.add_row({"simd_speedup_find_eq", stats::Table::num(speedup_find_eq, 2)});
  table.add_row({"sweep_cells", stats::Table::num(
                                    static_cast<std::uint64_t>(specs.size()))});
  table.add_row({"sweep_seq_experiments_per_min", stats::Table::num(seq_epm, 1)});
  table.add_row({"sweep_jobs", stats::Table::num(
                                   static_cast<std::uint64_t>(jobs))});
  table.add_row({"sweep_par_experiments_per_min", stats::Table::num(par_epm, 1)});
  table.add_row({"parallel_speedup", stats::Table::num(seq_ms / par_ms, 2)});
  table.add_row({"parallel_bit_identical", identical ? "yes" : "NO"});
  table.print(args.csv);

  std::FILE* f = std::fopen("BENCH_sim_selfperf.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sim_selfperf.json\n");
    return 1;
  }
  {
    obs::JsonWriter w(f);
    w.begin_object();
    w.kv("bench", "sim_selfperf");
    w.kv("wall_ns_per_access", ns_per_access, 2);
    w.kv("switches_per_access", switches_per_access, 4);
    w.kv("obs_on_wall_ns_per_access", obs_ns_per_access, 2);
    w.kv("obs_overhead_pct", obs_overhead_pct, 2);
    w.kv("obs_bit_identical", obs_identical);
    w.kv("hot_run_accesses", hr.mem_accesses);
    w.kv("hot_run_switches", hr.fiber_switches);
    w.kv("hot_run_ms", hot_ms, 2);
    w.kv("simd_kernel", simd_k.name);
    w.kv("search_fanout", kSearchFanout);
    w.kv("count_le_scalar_ns", count_le_scalar_ns, 3);
    w.kv("count_le_simd_ns", count_le_simd_ns, 3);
    w.kv("simd_speedup_count_le", speedup_count_le, 3);
    w.kv("find_eq_scalar_ns", find_eq_scalar_ns, 3);
    w.kv("find_eq_simd_ns", find_eq_simd_ns, 3);
    w.kv("simd_speedup_find_eq", speedup_find_eq, 3);
    w.kv("sweep_cells", static_cast<std::uint64_t>(specs.size()));
    w.kv("sweep_seq_ms", seq_ms, 2);
    w.kv("sweep_seq_experiments_per_min", seq_epm, 2);
    w.kv("sweep_jobs", jobs);
    w.kv("sweep_par_ms", par_ms, 2);
    w.kv("sweep_par_experiments_per_min", par_epm, 2);
    w.kv("parallel_speedup", seq_ms / par_ms, 3);
    w.kv("parallel_bit_identical", identical);
    w.end_object();
    std::fputc('\n', f);
  }
  std::fclose(f);
  std::printf("\nwrote BENCH_sim_selfperf.json\n");
  return identical && obs_identical ? 0 : 1;
}
