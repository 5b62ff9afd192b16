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

/// How a result scalar appears in run manifests.
enum class Emit : std::uint8_t {
  kAlways,
  kNonzero,     // only when nonzero: a policy's or key domain's own counter
  kStoreGroup,  // the sharded store's counters: all of them when any is
                // nonzero (a store run's zero companions still round-trip)
  kNever,       // host-cost diagnostics, kept out of manifests
};

/// The scalar results, each declared once, in manifest key order:
/// U(name, emit) is a std::uint64_t, D(name, precision, emit, obs) a double
/// written with `precision` decimals, and `obs` marks the obs-channel
/// quantities, which are zero when their channel is off. The TxStats counters
/// forwarded by name come in through the EUNO_TX_*_COUNTERS lists
/// (htm/policy.hpp) and are folded by the driver. Adding a counter is one
/// line here or there plus its producer; keys that older manifests lack are
/// kNonzero or kNever, so every golden stays byte-identical.
#define EUNO_RESULT_SCALARS(U, D)                                             \
  U(ops, kAlways)                                                             \
  U(sim_cycles, kAlways)                                                      \
  D(throughput_mops, 4, kAlways, false) /* million ops per second */         \
  D(aborts_per_op, 5, kAlways, false)                                         \
  EUNO_TX_OUTCOME_COUNTERS(U)                                                 \
  /* Abort decomposition (conflict aborts by classified cause). */           \
  U(aborts_total, kAlways)                                                    \
  U(aborts_conflict, kAlways)                                                 \
  U(aborts_capacity, kAlways)                                                 \
  U(aborts_other, kAlways)                                                    \
  U(conflicts_true_same_record, kAlways)                                      \
  U(conflicts_false_record, kAlways)                                          \
  U(conflicts_false_metadata, kAlways)                                        \
  U(conflicts_lock_subscription, kAlways)                                     \
  /* Region split: where did the aborts land? */                             \
  U(upper_aborts, kAlways)                                                    \
  U(lower_aborts, kAlways)                                                    \
  U(mono_aborts, kAlways)                                                     \
  EUNO_TX_PATH_COUNTERS(U)                                                    \
  /* Sharded-store robustness accounting (src/store). */                     \
  U(admitted_ops, kStoreGroup)       /* ops that passed the admission gate */ \
  U(shed_ops, kStoreGroup)           /* ops rejected by the gate */           \
  U(deadline_exceeded, kStoreGroup)  /* past their deadline at admission */   \
  U(shard_degradations, kStoreGroup) /* stage-advancing transitions */        \
  /* Injected faults (sim engine only; zero when the fault config is off). */ \
  U(faults_spurious, kAlways)                                                 \
  U(faults_burst, kAlways)                                                    \
  U(faults_lock_delay, kAlways)                                               \
  U(fault_capacity_phases, kAlways)                                           \
  U(mem_accesses, kAlways) /* instrumented accesses (sim engine only) */      \
  /* Fiber stack switches (sim engine only; Simulation::switch_count), a     \
     host-cost diagnostic for bench/sim_selfperf. */                          \
  U(fiber_switches, kNever)                                                   \
  D(instructions_per_op, 3, kAlways, false)                                   \
  D(wasted_cycle_frac, 5, kAlways, false) /* aborted-attempt cycles/total */ \
  /* Bytes live at the end of the run, by the §5.7 classes, and in          \
     out-of-line key-suffix/value boxes (bytes key domain only). */           \
  U(mem_total, kAlways)                                                       \
  U(mem_reserved, kAlways)                                                    \
  U(mem_ccm, kAlways)                                                         \
  U(suffix_bytes, kNonzero)                                                   \
  /* Per-op latency percentiles (obs.latency; native: wall nanoseconds). */  \
  D(lat_p50, 1, kAlways, true)                                                \
  D(lat_p90, 1, kAlways, true)                                                \
  D(lat_p99, 1, kAlways, true)                                                \
  D(lat_p999, 1, kAlways, true)

struct ExperimentResult {
#define EUNO_RESULT_U64(name, emit) std::uint64_t name = 0;
#define EUNO_RESULT_F64(name, precision, emit, obs) double name = 0;
  EUNO_RESULT_SCALARS(EUNO_RESULT_U64, EUNO_RESULT_F64)
#undef EUNO_RESULT_U64
#undef EUNO_RESULT_F64
  // ---- observability (populated per ExperimentSpec::obs; empty when off) ----
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

/// One row of EUNO_RESULT_SCALARS, for loops over every scalar: exactly
/// one of `u64`/`f64` is set.
struct ResultScalar {
  const char* name;
  std::uint64_t ExperimentResult::*u64;
  double ExperimentResult::*f64;
  int precision;
  Emit emit;
  bool obs;

  bool nonzero(const ExperimentResult& r) const {
    return u64 != nullptr ? r.*u64 != 0 : r.*f64 != 0;
  }
};

inline constexpr ResultScalar kResultScalars[] = {
#define EUNO_RESULT_U64(name, emit) \
  {#name, &ExperimentResult::name, nullptr, 0, Emit::emit, false},
#define EUNO_RESULT_F64(name, precision, emit, obs) \
  {#name, nullptr, &ExperimentResult::name, precision, Emit::emit, obs},
    EUNO_RESULT_SCALARS(EUNO_RESULT_U64, EUNO_RESULT_F64)
#undef EUNO_RESULT_U64
#undef EUNO_RESULT_F64
};

/// Name of the first scalar, in manifest order, that is not bit-identical
/// between `a` and `b`; "" when every one is. With `ignore_obs` the
/// obs-channel quantities are skipped, for runs whose obs configurations
/// differ. Every determinism check compares results through this.
std::string first_counter_diff(const ExperimentResult& a,
                               const ExperimentResult& b,
                               bool ignore_obs = false);

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
