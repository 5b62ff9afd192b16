// Experiment driver shared by every bench binary.
//
// One ExperimentSpec describes tree + workload + machine + thread
// count; run_sim_experiment executes it on the simulated multicore and
// returns throughput, abort decomposition, instruction counts and memory
// figures — the quantities the paper's figures are built from. Both entry
// points share one runner over (backend × target × key codec); see
// experiment.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/euno_config.hpp"
#include "htm/policy.hpp"
#include "obs/contention.hpp"
#include "obs/event.hpp"
#include "obs/histogram.hpp"
#include "obs/options.hpp"
#include "obs/perfctr.hpp"
#include "obs/ring.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"
#include "store/options.hpp"
#include "trees/registry.hpp"
#include "workload/ycsb.hpp"

namespace euno::driver {

/// Display name used in bench tables and run manifests — the registered
/// entry's `display` string (e.g. "HTM-B+Tree" for slug "htm-bptree").
std::string tree_display_name(const std::string& slug);

struct ExperimentSpec {
  /// Registry slug of the tree under test (trees/registry.hpp).
  std::string tree = "euno";
  workload::WorkloadSpec workload{};
  int threads = 16;
  /// Records preloaded before measurement. Preloading runs uninstrumented
  /// (zero simulated cost). With stride 1, the hottest `preload` ranks are
  /// loaded; with stride k, every k-th rank among the hottest k*preload is —
  /// leaving gaps so the measured phase keeps *inserting consecutive
  /// records* next to hot ones, the regime §2.3 analyses.
  std::uint64_t preload = 0;
  std::uint32_t preload_stride = 1;
  std::uint64_t ops_per_thread = 20000;
  sim::MachineConfig machine{};
  /// Retry policy applied to every tree's HTM regions (DBX-style budgets).
  htm::RetryPolicy policy{};
  /// Simulated core frequency used to convert cycles → ops/s (paper testbed:
  /// 2.3 GHz).
  double ghz = 2.3;
  /// Observability channels (all off by default; see src/obs). Collection
  /// never advances simulated time, so enabling any channel leaves every
  /// simulated quantity bit-identical.
  obs::ObsOptions obs{};
  /// Sharded KV service layer (src/store; off by default). When enabled
  /// (store.shards > 0) the run executes through a ShardedStore — one tree
  /// instance per shard, admission control, admission-time deadlines and
  /// optionally open-loop arrivals — instead of the single-tree closed loop.
  store::StoreOptions store{};
};

struct ExperimentResult {
  std::uint64_t ops = 0;
  std::uint64_t sim_cycles = 0;
  double throughput_mops = 0;   // million ops per simulated second
  double aborts_per_op = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempts = 0;
  std::uint64_t fallbacks = 0;
  // Abort decomposition (conflict aborts only, by classified cause).
  std::uint64_t aborts_total = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t aborts_other = 0;
  std::uint64_t conflicts_true_same_record = 0;
  std::uint64_t conflicts_false_record = 0;
  std::uint64_t conflicts_false_metadata = 0;
  std::uint64_t conflicts_lock_subscription = 0;
  // Region split: where did the aborts land?
  std::uint64_t upper_aborts = 0;
  std::uint64_t lower_aborts = 0;
  std::uint64_t mono_aborts = 0;
  // Hardened retry/fallback path (zero under the naive policy).
  std::uint64_t lock_wait_cycles = 0;    // cycles spent waiting on fallback lock
  std::uint64_t lock_wait_timeouts = 0;  // wait episodes that hit the spin cap
  std::uint64_t backoff_cycles = 0;      // cycles spent in post-abort backoff
  std::uint64_t starvation_escapes = 0;  // fairness-hatch trips to the lock
  std::uint64_t degradations = 0;        // HTM-health monitor lock-only flips
  // Three-path policy accounting (3path-bptree; zero — and absent from
  // manifests — for every other policy).
  std::uint64_t middle_attempts = 0;      // three-path middle-path HTM attempts
  std::uint64_t middle_commits = 0;       // three-path middle-path commits
  std::uint64_t slow_path_ops = 0;        // ops completed on the slow path
  // Sharded-store robustness accounting (src/store; zero — and absent from
  // manifests — unless the spec enables the store layer).
  std::uint64_t admitted_ops = 0;         // ops that passed the admission gate
  std::uint64_t shed_ops = 0;             // ops rejected by the gate
  std::uint64_t deadline_exceeded = 0;    // ops past their deadline at
                                          // admission (never served)
  std::uint64_t shard_degradations = 0;   // stage-advancing shard transitions
  // Injected-fault accounting (sim engine only; zero when fault config off).
  std::uint64_t faults_spurious = 0;
  std::uint64_t faults_burst = 0;
  std::uint64_t faults_lock_delay = 0;
  std::uint64_t fault_capacity_phases = 0;
  // Cost accounting.
  std::uint64_t mem_accesses = 0;  // instrumented accesses (sim engine only)
  /// Fiber stack switches (sim engine only; Simulation::switch_count). A
  /// host-cost diagnostic for bench/sim_selfperf, kept out of manifests.
  std::uint64_t fiber_switches = 0;
  double instructions_per_op = 0;
  double wasted_cycle_frac = 0;  // cycles in aborted attempts / total cycles
  // Memory (bytes live at end of run, by the §5.7 classes).
  std::uint64_t mem_total = 0;
  std::uint64_t mem_reserved = 0;
  std::uint64_t mem_ccm = 0;
  /// Live bytes in out-of-line key-suffix/value boxes (bytes-domain runs
  /// only; always 0 for u64 runs and conditional in manifests).
  std::uint64_t suffix_bytes = 0;
  // ---- observability (populated per ExperimentSpec::obs; zero when off) ----
  // Per-op latency percentiles in simulated cycles (obs.latency channel).
  double lat_p50 = 0;
  double lat_p90 = 0;
  double lat_p99 = 0;
  double lat_p999 = 0;
  /// Full per-op latency histogram (cycles; native: wall nanoseconds).
  obs::LatencyHistogram op_latency;
  /// Per-aborted-attempt wasted cycles.
  obs::LatencyHistogram abort_wasted;
  /// Top-K hottest cache lines by conflict aborts (obs.contention channel).
  std::vector<obs::HotLine> hot_lines;
  /// Recorded event streams (obs.trace channel), handed back still in the
  /// engine's compact per-core encoding: materializing ~2 TraceEvents per
  /// instrumented access would dominate a traced run's wall time. Call
  /// trace.merged() for the flat clock-ordered vector.
  obs::TraceStream trace;
  /// Windowed time-series (obs.metrics_interval != 0): per-window ops,
  /// latency p50/p99, aborts and fallback acquisitions merged over threads.
  obs::TimeSeries timeseries;
  /// Hardware perf-counter readings per benchmark phase (obs.perf on a
  /// native run; attempted stays false otherwise and the manifest omits it).
  obs::PerfSample perf;
};

/// Runs the spec on the simulated multicore. Deterministic for a given spec.
/// spec.threads must lie in [1, simulated core count].
ExperimentResult run_sim_experiment(const ExperimentSpec& spec);

/// Builds one u64-keyed tree on the simulator — for benches that run
/// structures or configurations the registry does not carry.
using SimTreeFactory =
    std::function<std::unique_ptr<trees::AnyTree<ctx::SimCtx>>(ctx::SimCtx&)>;

/// run_sim_experiment with every tree built by `make` instead of the
/// registry entry for spec.tree (u64 key domain only).
ExperimentResult run_sim_experiment(const ExperimentSpec& spec,
                                    const SimTreeFactory& make);

/// Runs the spec with real threads (native engine; real RTM when present).
/// Throughput is wall-clock. Useful for examples and smoke tests; the paper
/// figures are regenerated with the simulator. spec.threads must lie in
/// [1, ctx::NativeEnv::max_threads()].
ExperimentResult run_native_experiment(const ExperimentSpec& spec);

}  // namespace euno::driver
