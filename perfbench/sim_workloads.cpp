// sim-hot / sim-low: Euno on the deterministic simulated multicore.
//
// One repetition builds a fresh Simulation, creates the tree through the
// registry's make_sim factory, preloads it from the setup context (outside
// any fiber, so preloading costs no simulated time) and runs a fixed op count
// on 16 fibers. The simulated results of a seed are therefore fixed: every
// repetition must reproduce them bit for bit, which is one of the output
// checks. Repetitions continue until the measured host time reaches
// --seconds, and host-time metrics are medians over them.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "ctx/sim_ctx.hpp"
#include "sim/engine.hpp"
#include "trees/registry.hpp"
#include "util/hash.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"
#include "workload/ycsb.hpp"

namespace perfbench {
namespace {

using euno::ctx::SimCtx;
using euno::workload::Op;
using euno::workload::OpType;

constexpr int kThreads = 16;
constexpr std::uint64_t kKeyRange = 1u << 20;
constexpr std::uint64_t kOpsPerThread = 16000;
constexpr double kCyclesPerUs = kSimGhz * 1e3;

euno::workload::WorkloadSpec make_spec(std::uint64_t seed, double theta) {
  euno::workload::WorkloadSpec w;
  w.key_range = kKeyRange;
  w.mix = euno::workload::OpMix{50, 50, 0, 0};
  w.dist = euno::workload::DistKind::kZipfian;
  w.dist_param = theta;
  w.scramble = false;  // consecutive hot keys, as in the paper's figures
  w.seed = seed;
  return w;
}

/// Everything one repetition measured.
struct SimRep {
  double setup_s = 0;
  double run_host_s = 0;
  std::uint64_t cycles = 0;
  std::uint64_t accesses = 0;
  std::uint64_t instructions = 0;
  std::uint64_t wasted = 0;
  std::uint64_t clock_sum = 0;
  euno::ctx::SiteStats stats{};
  std::vector<double> lat_cycles;
  std::size_t final_size = 0;
  euno::MemClassStats ccm{}, reserved{}, suffix{};
  std::uint64_t tree_bytes = 0;
  /// Hash over every simulated result of the repetition (clocks, per-op
  /// latencies, transaction counters): equal iff the runs are bit-identical.
  std::uint64_t fingerprint = 0;
};

/// |preload ∪ put keys| of the fixed per-thread streams. The preload writes
/// every second rank, and ranks are keys (consecutive hot keys).
std::size_t expected_size(const euno::workload::WorkloadSpec& w) {
  std::vector<bool> present(kKeyRange, false);
  std::size_t n = 0;
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
    present[k] = true;
    ++n;
  }
  for (int t = 0; t < kThreads; ++t) {
    euno::workload::OpStream stream(w, t);
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      const Op op = stream.next();
      if (op.type == OpType::kPut && !present[op.key]) {
        present[op.key] = true;
        ++n;
      }
    }
  }
  return n;
}

/// One fiber's measured loop. The traced instantiation records spans around
/// the generator and tree calls, in simulated cycles.
template <bool kTraced>
void sim_client(euno::trees::AnyTree<SimCtx>& tree, SimCtx& c,
                const euno::workload::WorkloadSpec& w, int t,
                std::vector<double>& lat, SpanLog* log) {
  euno::workload::OpStream stream(w, t);
  lat.reserve(kOpsPerThread);
  for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
    int op_span = -1;
    int next_span = -1;
    if constexpr (kTraced) {
      log->begin_op(i);
      op_span = log->open(SpanName::kOp, c.now());
      next_span = log->open(SpanName::kWorkloadNext, c.now());
    }
    const Op op = stream.next();
    if constexpr (kTraced) log->close(next_span, c.now());
    const std::uint64_t t0 = c.now();
    int tree_span = -1;
    if constexpr (kTraced) {
      tree_span = log->open(
          op.type == OpType::kGet ? SpanName::kTreeGet : SpanName::kTreePut, t0);
    }
    if (op.type == OpType::kGet) {
      euno::trees::Value v;
      (void)tree.get(c, op.key, &v);
    } else {
      tree.put(c, op.key, op.value);
    }
    const std::uint64_t t1 = c.now();
    if constexpr (kTraced) {
      log->close(tree_span, t1);
      log->close(op_span, t1);
    }
    lat.push_back(static_cast<double>(t1 - t0));
  }
}

SimRep run_rep(const euno::trees::TreeEntry& entry,
               const euno::workload::WorkloadSpec& w, SpanLog* const* logs) {
  SimRep r;
  auto& mem = euno::MemStats::instance();
  mem.reset();
  const auto setup0 = std::chrono::steady_clock::now();
  euno::sim::MachineConfig mc;
  mc.arena_bytes = 3ull << 30;
  auto simulation = std::make_unique<euno::sim::Simulation>(mc);
  SimCtx setup(*simulation, 0);
  auto tree = entry.make_sim(setup, euno::trees::TreeBuildOptions{});
  euno::Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t key = 0; key < kKeyRange; key += 2) {
    tree->put(setup, key, rng.next());
  }
  r.setup_s = seconds_since(setup0);

  std::vector<euno::ctx::SiteStats> stats(kThreads);
  std::vector<std::vector<double>> lat(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    simulation->spawn(t, [&, t](int core) {
      SimCtx c(*simulation, core);
      const auto i = static_cast<std::size_t>(t);
      if (logs != nullptr) {
        sim_client<true>(*tree, c, w, t, lat[i], logs[i]);
      } else {
        sim_client<false>(*tree, c, w, t, lat[i], nullptr);
      }
      stats[i] = c.stats();
    });
  }
  const auto run0 = std::chrono::steady_clock::now();
  simulation->run();
  r.run_host_s = seconds_since(run0);

  r.cycles = simulation->max_clock();
  std::uint64_t fp = r.cycles;
  for (int t = 0; t < kThreads; ++t) {
    const auto& cc = simulation->counters(t);
    r.accesses += cc.mem_accesses;
    r.instructions += cc.instructions;
    r.wasted += cc.cycles_wasted;
    r.clock_sum += simulation->clock_of(t);
    r.stats += stats[static_cast<std::size_t>(t)];
    fp = euno::mix64(fp ^ simulation->clock_of(t));
    for (const double v : lat[static_cast<std::size_t>(t)]) {
      fp = euno::mix64(fp ^ static_cast<std::uint64_t>(v));
    }
  }
  const euno::htm::TxStats tot = r.stats.total();
  for (const std::uint64_t v : {tot.attempts, tot.commits, tot.fallbacks,
                                tot.total_aborts(), tot.lock_wait_cycles,
                                tot.backoff_cycles, r.wasted, r.accesses}) {
    fp = euno::mix64(fp ^ v);
  }
  r.fingerprint = fp;
  for (auto& l : lat) r.lat_cycles.insert(r.lat_cycles.end(), l.begin(), l.end());

  tree->check_invariants();  // aborts the process on a structural violation
  r.final_size = tree->size_slow();
  r.tree_bytes = mem.tree_live_bytes();
  r.ccm = mem.snapshot(euno::MemClass::kCCM);
  r.reserved = mem.snapshot(euno::MemClass::kReservedKeys);
  r.suffix = mem.snapshot(euno::MemClass::kBytesBox);
  SimCtx teardown(*simulation, 0);
  tree->destroy(teardown);
  return r;
}

/// Per-layer metrics derived from uninstrumented counters.
MetricMap counter_metrics(const SimRep& r) {
  const auto ops = static_cast<double>(kThreads * kOpsPerThread);
  const euno::htm::TxStats tot = r.stats.total();
  const auto aborts_of = [&](euno::htm::AbortReason a) {
    return static_cast<double>(tot.aborts[static_cast<std::size_t>(a)]);
  };
  const auto conflicts_of = [&](euno::htm::ConflictKind k) {
    return static_cast<double>(tot.conflicts[static_cast<std::size_t>(k)]);
  };
  const double conflicts = aborts_of(euno::htm::AbortReason::kConflict);
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double mib = 1024.0 * 1024.0;
  MetricMap m;
  m["sim.accesses_per_op"] = static_cast<double>(r.accesses) / ops;
  m["sim.instructions_per_op"] = static_cast<double>(r.instructions) / ops;
  m["htm.attempts_per_op"] = static_cast<double>(tot.attempts) / ops;
  m["htm.commit_frac"] = frac(static_cast<double>(tot.commits),
                              static_cast<double>(tot.attempts));
  m["htm.aborts_per_op"] = static_cast<double>(tot.total_aborts()) / ops;
  m["htm.aborts_conflict_per_op"] = conflicts / ops;
  m["htm.aborts_capacity_per_op"] =
      aborts_of(euno::htm::AbortReason::kCapacity) / ops;
  m["htm.conflict_false_record_frac"] =
      frac(conflicts_of(euno::htm::ConflictKind::kFalseRecord), conflicts);
  m["htm.conflict_lock_subscription_frac"] =
      frac(conflicts_of(euno::htm::ConflictKind::kLockSubscription), conflicts);
  m["htm.upper_aborts_per_op"] =
      static_cast<double>(r.stats.at(euno::ctx::TxSite::kUpper).total_aborts()) /
      ops;
  m["htm.lower_aborts_per_op"] =
      static_cast<double>(r.stats.at(euno::ctx::TxSite::kLower).total_aborts()) /
      ops;
  m["htm.fallbacks_per_op"] = static_cast<double>(tot.fallbacks) / ops;
  m["htm.backoff_cycles_per_op"] = static_cast<double>(tot.backoff_cycles) / ops;
  m["htm.wasted_cycle_frac"] = frac(static_cast<double>(r.wasted),
                                    static_cast<double>(r.clock_sum));
  m["htm.lock_wait_cycles_per_op"] =
      static_cast<double>(tot.lock_wait_cycles) / ops;
  m["mem.tree_mb"] = static_cast<double>(r.tree_bytes) / mib;
  m["mem.ccm_mb"] = static_cast<double>(r.ccm.live_bytes) / mib;
  m["mem.reserved_mb"] = static_cast<double>(r.reserved.live_bytes) / mib;
  m["mem.suffix_mb"] = static_cast<double>(r.suffix.live_bytes) / mib;
  m["epoch.retired_per_op"] = static_cast<double>(tot.epoch_retired) / ops;
  return m;
}

/// Per-layer metrics derived from the spans of a traced repetition; spans
/// are in simulated cycles and reported in simulated nanoseconds.
MetricMap span_metrics(SpanSummary& s) {
  const double ns_per_cycle = 1.0 / kSimGhz;
  MetricMap m;
  m["tree.get_ns_p50"] = sample_quantile(s.durations(SpanName::kTreeGet), 0.5) * ns_per_cycle;
  m["tree.get_ns_p99"] = sample_quantile(s.durations(SpanName::kTreeGet), 0.99) * ns_per_cycle;
  m["tree.put_ns_p50"] = sample_quantile(s.durations(SpanName::kTreePut), 0.5) * ns_per_cycle;
  m["tree.put_ns_p99"] = sample_quantile(s.durations(SpanName::kTreePut), 0.99) * ns_per_cycle;
  m["workload.next_ns"] =
      sample_quantile(s.durations(SpanName::kWorkloadNext), 0.5) * ns_per_cycle;
  m["trace.ops"] = static_cast<double>(s.ops);
  return m;
}

}  // namespace

Report run_sim_workload(const RunArgs& args, double theta) {
  Report rep;
  const euno::trees::TreeEntry* entry =
      euno::trees::tree_registry().by_name("euno");
  rep.check(entry != nullptr && entry->make_sim != nullptr,
            "registry has a simulator factory for euno");
  if (entry == nullptr || entry->make_sim == nullptr) return rep;
  const euno::workload::WorkloadSpec w = make_spec(args.seed, theta);
  const std::size_t expected = expected_size(w);

  std::vector<std::unique_ptr<SpanLog>> logs;  // of the last traced repetition
  std::vector<SpanLog*> log_ptrs;
  std::vector<MetricMap> e2e_reps, counter_reps, span_reps;
  std::vector<double> untraced_rate, traced_rate, setup_times;
  std::uint64_t fingerprint = 0;
  double measured_s = 0;
  // Alternating untraced/traced repetitions in a traced run, so the
  // tracing overhead compares like with like.
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    if (traced) {
      logs.clear();
      log_ptrs.clear();
      for (int t = 0; t < kThreads; ++t) {
        logs.push_back(std::make_unique<SpanLog>(1, 4 * kOpsPerThread));
        log_ptrs.push_back(logs.back().get());
      }
    }
    SimRep r = run_rep(*entry, w, traced ? log_ptrs.data() : nullptr);
    if (i == 0) fingerprint = r.fingerprint;
    rep.check(r.fingerprint == fingerprint,
              "repetition " + std::to_string(i) +
                  " reproduces the simulated results bit for bit");
    rep.check(r.final_size == expected,
              "final size " + std::to_string(r.final_size) +
                  " equals |preload ∪ puts| = " + std::to_string(expected));
    const double ops = static_cast<double>(kThreads * kOpsPerThread);
    const double host_rate = ops / r.run_host_s;
    rep.attempted += kThreads * kOpsPerThread;
    setup_times.push_back(r.setup_s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "sim: repetition %d%s setup_s=%.4f host_ops_per_s=%.1f", i,
                  traced ? " (traced)" : "", r.setup_s, host_rate);
    rep.note(line);
    if (traced) {
      traced_rate.push_back(host_rate);
      SpanSummary s = summarize_spans({log_ptrs.begin(), log_ptrs.end()});
      rep.check(s.bad_ops == 0, std::to_string(s.bad_ops) +
                                    " traced ops have inconsistent spans");
      span_reps.push_back(span_metrics(s));
    } else {
      untraced_rate.push_back(host_rate);
      MetricMap e;
      e["ops_per_s"] = ops / (static_cast<double>(r.cycles) / (kSimGhz * 1e9));
      e["lat_p50_us"] = sample_quantile(r.lat_cycles, 0.5) / kCyclesPerUs;
      e["lat_p99_us"] = sample_quantile(r.lat_cycles, 0.99) / kCyclesPerUs;
      e["bytes_per_key"] =
          static_cast<double>(r.tree_bytes) / static_cast<double>(r.final_size);
      e["sim_lat_p50_cycles"] = sample_quantile(r.lat_cycles, 0.5);
      e["sim_lat_p99_cycles"] = sample_quantile(r.lat_cycles, 0.99);
      e2e_reps.push_back(std::move(e));
      counter_reps.push_back(counter_metrics(r));
    }
    measured_s += r.run_host_s;
    const int min_reps = args.trace ? 4 : 3;
    if (i + 1 >= min_reps && measured_s >= args.seconds) break;
  }

  MetricMap e2e = median_of(e2e_reps);
  e2e["host_ops_per_s"] = quantile(untraced_rate, 0.5);
  e2e["setup_s"] = quantile(setup_times, 0.5);
  e2e["peak_rss_mb"] = peak_rss_mb();
  rep.end_to_end = e2e;
  rep.per_layer = median_of(counter_reps);
  rep.per_layer["sim.host_ns_per_access"] =
      1e9 / (e2e["host_ops_per_s"] * rep.per_layer["sim.accesses_per_op"]);
  for (const auto& [k, v] : median_of(span_reps)) rep.per_layer[k] = v;
  if (args.trace) {
    const double u = quantile(untraced_rate, 0.5);
    const double t = quantile(traced_rate, 0.5);
    rep.per_layer["trace.overhead_pct"] = (u - t) / u * 100.0;
    if (!args.spans_path.empty()) {
      rep.check(write_spans(args.spans_path, {log_ptrs.begin(), log_ptrs.end()}),
                "spans written to " + args.spans_path);
    }
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sim: %d cores x %llu ops, theta=%.2f, %zu repetitions, "
                "sim_mops=%.4f sim_ops_per_host_s=%.1f",
                kThreads, static_cast<unsigned long long>(kOpsPerThread), theta,
                setup_times.size(), e2e["ops_per_s"] / 1e6,
                e2e["host_ops_per_s"]);
  rep.note(buf);
  std::snprintf(buf, sizeof(buf),
                "sim: sim_lat_p50_cycles=%.1f sim_lat_p99_cycles=%.1f "
                "(samples=%llu)",
                e2e["sim_lat_p50_cycles"], e2e["sim_lat_p99_cycles"],
                static_cast<unsigned long long>(kThreads * kOpsPerThread));
  rep.note(buf);
  rep.end_to_end.erase("sim_lat_p50_cycles");
  rep.end_to_end.erase("sim_lat_p99_cycles");
  return rep;
}

}  // namespace perfbench
