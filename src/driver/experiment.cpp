#include "driver/experiment.hpp"

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "store/sharded_store.hpp"
#include "trees/registry.hpp"
#include "util/memstats.hpp"
#include "util/tsc.hpp"
#include "workload/openloop.hpp"
#include "workload/strkeys.hpp"

namespace euno::driver {

using workload::Op;
using workload::OpStream;
using workload::OpType;

std::string tree_kind_name(TreeKind k) {
  return trees::tree_registry().expect(k).display;
}

namespace {

/// Rows kept in the hottest-lines attribution table.
constexpr std::size_t kHotLinesTopK = 16;

template <class Tree, class Ctx>
void run_ops(Tree& tree, Ctx& c, OpStream& stream, std::uint64_t n,
             std::uint32_t scan_len) {
  std::vector<trees::KV> scan_buf(scan_len);
  obs::ThreadObs* tobs = c.observer();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op op = stream.next();
    c.note_event(ctx::TraceCode::kOpBegin, static_cast<std::uint8_t>(op.type));
    const std::uint64_t t0 = tobs != nullptr ? c.now() : 0;
    switch (op.type) {
      case OpType::kGet: {
        trees::Value v;
        (void)tree.get(c, op.key, &v);
        break;
      }
      case OpType::kPut:
        tree.put(c, op.key, op.value);
        break;
      case OpType::kScan:
        (void)tree.scan(c, op.key, scan_buf.size(), scan_buf.data());
        break;
      case OpType::kDelete:
        (void)tree.erase(c, op.key);
        break;
    }
    if (tobs != nullptr) {
      const std::uint64_t t1 = c.now();
      tobs->op_latency.record(t1 - t0);
      tobs->series.record_op(t1, t1 - t0);
    }
    c.note_event(ctx::TraceCode::kOpEnd, static_cast<std::uint8_t>(op.type));
  }
}

/// Bytes-domain twin of run_ops: the stream still samples u64 key ids (the
/// whole distribution machinery applies unchanged); the key space maps each
/// id to its string key at issue time, and puts carry a synthesized payload
/// behind the tree's value indirection. Latency accounting is identical.
template <class Tree, class Ctx>
void run_ops_str(Tree& tree, Ctx& c, OpStream& stream,
                 const workload::StringKeySpace& ks, std::uint64_t n,
                 std::uint32_t scan_len, std::uint32_t value_bytes) {
  obs::ThreadObs* tobs = c.observer();
  // The emit sink keeps scans honest (records are decoded through the ctx,
  // charged by the cost model) without accumulating host-side state.
  std::size_t scan_sink = 0;
  const trees::node::StrEmitFn emit =
      [&](trees::node::BytesView, trees::Value, trees::node::BytesView p) {
        scan_sink += p.len;
      };
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op op = stream.next();
    const std::string key = ks.key_of(op.key);
    const trees::node::BytesView kv(key.data(), key.size());
    c.note_event(ctx::TraceCode::kOpBegin, static_cast<std::uint8_t>(op.type));
    const std::uint64_t t0 = tobs != nullptr ? c.now() : 0;
    switch (op.type) {
      case OpType::kGet: {
        trees::Value v;
        (void)tree.get(c, kv, &v);
        break;
      }
      case OpType::kPut: {
        const std::string payload = ks.payload_of(op.key, op.value, value_bytes);
        tree.put(c, kv, op.value,
                 trees::node::BytesView(payload.data(), payload.size()));
        break;
      }
      case OpType::kScan:
        (void)tree.scan(c, kv, scan_len, emit);
        break;
      case OpType::kDelete:
        (void)tree.erase(c, kv);
        break;
    }
    if (tobs != nullptr) {
      const std::uint64_t t1 = c.now();
      tobs->op_latency.record(t1 - t0);
      tobs->series.record_op(t1, t1 - t0);
    }
    c.note_event(ctx::TraceCode::kOpEnd, static_cast<std::uint8_t>(op.type));
  }
}

/// Folds the enabled observability channels of one finished run into the
/// result: merge per-thread histograms, surface latency percentiles, pull
/// the hottest-lines table and the merged event stream.
void finalize_obs(const obs::ObsOptions& opt, std::vector<obs::ThreadObs>& tobs,
                  const obs::ContentionMap* cmap, const obs::NodeRegistry* reg,
                  ExperimentResult* r) {
  if (opt.latency) {
    for (const auto& t : tobs) {
      r->op_latency.merge(t.op_latency);
      r->abort_wasted.merge(t.abort_wasted);
    }
    r->lat_p50 = static_cast<double>(r->op_latency.percentile(0.50));
    r->lat_p90 = static_cast<double>(r->op_latency.percentile(0.90));
    r->lat_p99 = static_cast<double>(r->op_latency.percentile(0.99));
    r->lat_p999 = static_cast<double>(r->op_latency.percentile(0.999));
  }
  if (cmap != nullptr) r->hot_lines = cmap->top_k(kHotLinesTopK, reg);
}

void aggregate_stats(const ctx::SiteStats& s, ExperimentResult* r) {
  const htm::TxStats total = s.total();
  r->commits += total.commits;
  r->attempts += total.attempts;
  r->fallbacks += total.fallbacks;
  r->aborts_total += total.total_aborts();
  r->aborts_conflict +=
      total.aborts[static_cast<int>(htm::AbortReason::kConflict)];
  r->aborts_capacity +=
      total.aborts[static_cast<int>(htm::AbortReason::kCapacity)];
  r->aborts_other += total.total_aborts() -
                     total.aborts[static_cast<int>(htm::AbortReason::kConflict)] -
                     total.aborts[static_cast<int>(htm::AbortReason::kCapacity)];
  r->conflicts_true_same_record +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kTrueSameRecord)];
  r->conflicts_false_record +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kFalseRecord)];
  r->conflicts_false_metadata +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kFalseMetadata)];
  r->conflicts_lock_subscription +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kLockSubscription)];
  r->upper_aborts += s.at(ctx::TxSite::kUpper).total_aborts();
  r->lower_aborts += s.at(ctx::TxSite::kLower).total_aborts();
  r->mono_aborts += s.at(ctx::TxSite::kMono).total_aborts();
  r->lock_wait_cycles += total.lock_wait_cycles;
  r->lock_wait_timeouts += total.lock_wait_timeouts;
  r->backoff_cycles += total.backoff_cycles;
  r->starvation_escapes += total.starvation_escapes;
  r->degradations += total.degradations;
  r->unsubscribed_attempts += total.unsubscribed_attempts;
  r->validation_failures += total.validation_failures;
  r->middle_attempts += total.middle_attempts;
  r->middle_commits += total.middle_commits;
  r->slow_path_ops += total.slow_path_ops;
  r->epoch_retired += total.epoch_retired;
  r->deadline_exceeded += total.deadline_exceeded;
}

/// Preloads the hottest `n` ranks so the measured phase hits a warm store
/// (the remaining cold ranks produce fresh inserts).
template <class Tree, class Ctx>
void preload_tree(Tree& tree, Ctx& c, const workload::WorkloadSpec& w,
                  std::uint64_t n, std::uint32_t stride) {
  Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t rank = i * stride;
    if (rank >= w.key_range) break;
    tree.put(c, workload::rank_to_key(rank, w.key_range, w.scramble), rng.next());
  }
}

template <class Tree, class Ctx>
void preload_tree_str(Tree& tree, Ctx& c, const workload::WorkloadSpec& w,
                      const workload::StringKeySpace& ks, std::uint64_t n,
                      std::uint32_t stride) {
  Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t rank = i * stride;
    if (rank >= w.key_range) break;
    const std::uint64_t id = workload::rank_to_key(rank, w.key_range, w.scramble);
    const std::uint64_t v = rng.next();
    const std::string key = ks.key_of(id);
    const std::string payload = ks.payload_of(id, v, w.value_bytes);
    tree.put(c, trees::node::BytesView(key.data(), key.size()), v,
             trees::node::BytesView(payload.data(), payload.size()));
  }
}

// ---- sharded-store runners (DESIGN.md §15) ----
//
// Mirrors of run_sim_with/run_native_with that route every op through a
// store::ShardedStore. Two further differences: clients may issue on an
// open-loop Poisson schedule (latency is then *sojourn* time, completion
// minus scheduled arrival, so backlog shows up in the histograms instead of
// silently self-throttling the offered rate), and throughput reports goodput
// (completed ops), with issued/admitted/shed accounted separately.

/// Arrival schedule shared by all clients of one store run. The schedule
/// seed is derived from (but distinct from) the key-choice seed, so workload
/// and arrival randomness stay independent streams.
workload::OpenLoopSpec make_openloop(const ExperimentSpec& spec,
                                     double clock_hz) {
  workload::OpenLoopSpec ol;
  ol.seed = spec.workload.seed ^ 0x0B5E55ull;
  ol.clients = spec.threads;
  ol.think = spec.store.think;
  if (spec.store.open_loop()) {
    // Aggregate offered load splits evenly across clients: per-client mean
    // inter-arrival = clients / rate, in ctx clock units.
    ol.mean_gap = clock_hz * static_cast<double>(spec.threads) /
                  (spec.store.offered_load_mops * 1e6);
  }
  return ol;
}

/// One client's issue loop. `idle_until(t)` blocks (sim: charges cycles;
/// native: spins) until the context clock reaches t — how a client waits for
/// its next scheduled arrival. Returns the number of *completed* ops (the
/// goodput numerator); sheds and deadline misses complete nothing.
template <class Ctx, class IdleUntil, class Exec>
std::uint64_t run_store_ops(Ctx& c, const ExperimentSpec& spec,
                            const workload::OpenLoopSpec& ol, int t,
                            std::uint64_t origin, IdleUntil idle_until,
                            Exec exec) {
  workload::DriftingOpStream stream(spec.workload, t, spec.store.drift_to,
                                    spec.ops_per_thread);
  workload::ArrivalStream arrivals(ol, t, origin);
  const bool open_loop = spec.store.open_loop();
  obs::ThreadObs* tobs = c.observer();
  std::uint64_t completed = 0;
  std::uint64_t completion = origin;
  for (std::uint64_t i = 0; i < spec.ops_per_thread; ++i) {
    std::uint64_t sched;
    if (open_loop) {
      sched = arrivals.next(completion);
      idle_until(sched);
    } else {
      sched = c.now();
    }
    const Op op = stream.next();
    c.note_event(ctx::TraceCode::kOpBegin, static_cast<std::uint8_t>(op.type));
    const store::OpResult res = exec(c, op, sched);
    completion = c.now();
    if (res.status == store::StoreStatus::kOk ||
        res.status == store::StoreStatus::kNotFound) {
      completed++;
      if (tobs != nullptr) {
        // Sojourn time: queueing lateness + service. Only ops the store
        // actually served are recorded — the latency-under-load curves are
        // percentiles *of admitted ops* by construction.
        tobs->op_latency.record(completion - sched);
        tobs->series.record_op(completion, completion - sched);
      }
    }
    c.note_event(ctx::TraceCode::kOpEnd, static_cast<std::uint8_t>(op.type));
  }
  return completed;
}

/// Preload through the store's shard router (admission/deadline bypassed:
/// the warmup phase is not part of the measured service).
template <class Store, class Ctx>
void preload_store(Store& st, Ctx& c, const workload::WorkloadSpec& w,
                   std::uint64_t n, std::uint32_t stride) {
  Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t rank = i * stride;
    if (rank >= w.key_range) break;
    st.preload_put(c, workload::rank_to_key(rank, w.key_range, w.scramble),
                   rng.next());
  }
}

template <class Store, class Ctx>
void preload_store_str(Store& st, Ctx& c, const workload::WorkloadSpec& w,
                       const workload::StringKeySpace& ks, std::uint64_t n,
                       std::uint32_t stride) {
  Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t rank = i * stride;
    if (rank >= w.key_range) break;
    const std::uint64_t id = workload::rank_to_key(rank, w.key_range, w.scramble);
    const std::uint64_t v = rng.next();
    const std::string key = ks.key_of(id);
    const std::string payload = ks.payload_of(id, v, w.value_bytes);
    st.preload_put_str(c, trees::node::BytesView(key.data(), key.size()), v,
                       trees::node::BytesView(payload.data(), payload.size()));
  }
}

/// Per-thread store executor: owns the thread's scan buffer and routes each
/// op to the store's u64 or bytes entry point. With a key space attached
/// (bytes domain) it materializes the key/payload text at issue time — the
/// string build is part of the client, not the measured service, but it sits
/// inside the latency window just like the u64 path's op setup.
template <class Ctx, class Store>
class StoreExec {
 public:
  StoreExec(Store& st, const ExperimentSpec& spec,
            const workload::StringKeySpace* ks)
      : st_(st), spec_(spec), ks_(ks), scan_buf_(spec.workload.scan_len) {}

  store::OpResult operator()(Ctx& c, const Op& op, std::uint64_t sched) {
    if (ks_ == nullptr) return st_.execute(c, op, sched, scan_buf_.data());
    const std::string key = ks_->key_of(op.key);
    std::string payload;
    trees::node::BytesView pv;
    if (op.type == OpType::kPut) {
      payload = ks_->payload_of(op.key, op.value, spec_.workload.value_bytes);
      pv = trees::node::BytesView(payload.data(), payload.size());
    }
    return st_.execute_str(c, op.type,
                           trees::node::BytesView(key.data(), key.size()),
                           op.value, pv, op.scan_len, sched, emit_);
  }

 private:
  Store& st_;
  const ExperimentSpec& spec_;
  const workload::StringKeySpace* ks_;
  std::vector<trees::KV> scan_buf_;
  trees::node::StrEmitFn emit_ =
      [](trees::node::BytesView, trees::Value, trees::node::BytesView) {};
};

/// Fold the store totals into the result. Mid-flight deadline unwinds were
/// already aggregated from TxStats (aggregate_stats); the store adds the
/// pre-check rejections, so deadline_exceeded ends up counting each op that
/// missed its deadline exactly once.
void fold_store_totals(const store::StoreTotals& tot, std::uint64_t completed,
                       double seconds, ExperimentResult* r) {
  r->admitted_ops = tot.admitted;
  r->shed_ops = tot.shed;
  r->shard_degradations = tot.degradations;
  r->deadline_exceeded += tot.deadline_exceeded;
  r->throughput_mops =
      seconds > 0 ? static_cast<double>(completed) / seconds / 1e6 : 0;
}

ExperimentResult run_store_sim(const ExperimentSpec& spec) {
  EUNO_ASSERT(spec.threads >= 1 &&
              spec.threads <= spec.machine.topology.total_cores());
  sim::Simulation simulation(spec.machine);
  MemStats::instance().reset();

  const obs::ObsOptions obs_opt =
      obs::kCompiledIn ? spec.obs : obs::ObsOptions{};
  obs::ContentionMap cmap;
  obs::NodeRegistry node_reg;
  if (obs_opt.contention) simulation.enable_contention(&cmap, &node_reg);
  if (obs_opt.trace) simulation.enable_trace();
  std::vector<obs::ThreadObs> tobs(
      obs_opt.latency || obs_opt.metrics_interval != 0
          ? static_cast<std::size_t>(spec.threads)
          : 0);

  const trees::TreeEntry& entry = trees::tree_registry().expect(spec.tree);
  trees::TreeBuildOptions build;
  build.policy = spec.policy;
  const store::StoreRuntime rt{spec.ghz * 1e9};
  const bool bytes = spec.workload.key_domain == workload::KeyDomain::kBytes;
  std::optional<workload::StringKeySpace> ks;
  if (bytes) {
    EUNO_ASSERT_MSG(entry.make_sim_str != nullptr,
                    "tree has no bytes-domain factory");
    ks.emplace(spec.workload.key_style, spec.workload.seed);
  }
  ctx::SimCtx setup(simulation, 0);
  auto st = [&]() -> store::ShardedStore<ctx::SimCtx> {
    if (bytes) {
      return {setup, spec.store, rt,
              [&](ctx::SimCtx& c) { return entry.make_sim_str(c, build); }};
    }
    return {setup, spec.store, rt,
            [&](ctx::SimCtx& c) { return entry.make_sim(c, build); }};
  }();
  if (bytes) {
    preload_store_str(st, setup, spec.workload, *ks, spec.preload,
                      spec.preload_stride);
  } else {
    preload_store(st, setup, spec.workload, spec.preload, spec.preload_stride);
  }

  const workload::OpenLoopSpec ol = make_openloop(spec, rt.clock_hz);
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));
  std::vector<std::uint64_t> completed(
      static_cast<std::size_t>(spec.threads), 0);
  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      if (!tobs.empty()) {
        auto& to = tobs[static_cast<std::size_t>(t)];
        to.series.configure(obs_opt.metrics_interval, 0);
        c.set_observer(&to);
      }
      StoreExec<ctx::SimCtx, store::ShardedStore<ctx::SimCtx>> exec(
          st, spec, ks ? &*ks : nullptr);
      completed[static_cast<std::size_t>(t)] = run_store_ops(
          c, spec, ol, t, /*origin=*/0,
          [&](std::uint64_t target) {
            const std::uint64_t now = simulation.clock_of(core);
            if (target > now) simulation.charge(target - now);
          },
          exec);
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  simulation.run();

  ExperimentResult r;
  r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
  r.sim_cycles = simulation.max_clock();
  const double seconds = static_cast<double>(r.sim_cycles) / (spec.ghz * 1e9);
  for (const auto& s : stats) aggregate_stats(s, &r);
  r.aborts_per_op =
      static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);
  std::uint64_t total_completed = 0;
  for (const auto n : completed) total_completed += n;
  fold_store_totals(st.accumulate(), total_completed, seconds, &r);

  std::uint64_t instr = 0, wasted = 0, clock_sum = 0;
  for (int t = 0; t < spec.threads; ++t) {
    instr += simulation.counters(t).instructions;
    r.mem_accesses += simulation.counters(t).mem_accesses;
    wasted += simulation.counters(t).cycles_wasted;
    clock_sum += simulation.clock_of(t);
  }
  r.fiber_switches = simulation.switch_count();
  r.instructions_per_op =
      static_cast<double>(instr) / static_cast<double>(r.ops);
  r.wasted_cycle_frac =
      clock_sum > 0
          ? static_cast<double>(wasted) / static_cast<double>(clock_sum)
          : 0;

  auto& ms = MemStats::instance();
  r.mem_total = ms.tree_live_bytes();
  r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
  r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
  r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;

  finalize_obs(obs_opt, tobs, obs_opt.contention ? &cmap : nullptr, &node_reg,
               &r);
  if (obs_opt.trace) r.trace = simulation.take_trace();
  if (obs_opt.metrics_interval != 0) {
    for (int t = 0; t < spec.threads; ++t) {
      tobs[static_cast<std::size_t>(t)].series.finish(simulation.clock_of(t));
    }
    r.timeseries = obs::merge_series(obs_opt.metrics_interval, "cycles", tobs);
  }

  const sim::FaultCounters& fc = simulation.fault_counters();
  r.faults_spurious = fc.spurious_aborts;
  r.faults_burst = fc.burst_aborts;
  r.faults_lock_delay = fc.lock_hold_delays;
  r.fault_capacity_phases = fc.capacity_phases;

  ctx::SimCtx teardown(simulation, 0);
  st.destroy(teardown);
  return r;
}

ExperimentResult run_store_native(const ExperimentSpec& spec) {
  ctx::NativeEnv env(64);
  MemStats::instance().reset();

  const obs::ObsOptions obs_opt =
      obs::kCompiledIn ? spec.obs : obs::ObsOptions{};
  ExperimentResult r;
  std::optional<obs::PerfCounterGroup> perf;
  if (obs_opt.perf) {
    perf.emplace();
    r.perf.attempted = true;
  }

  const trees::TreeEntry& entry = trees::tree_registry().expect(spec.tree);
  trees::TreeBuildOptions build;
  build.policy = spec.policy;
  const store::StoreRuntime rt{1e9};  // native clock: wall nanoseconds
  const bool bytes = spec.workload.key_domain == workload::KeyDomain::kBytes;
  std::optional<workload::StringKeySpace> ks;
  if (bytes) {
    EUNO_ASSERT_MSG(entry.make_native_str != nullptr,
                    "tree has no bytes-domain factory");
    ks.emplace(spec.workload.key_style, spec.workload.seed);
  }
  ctx::NativeCtx setup(env, 0);
  auto st = [&]() -> store::ShardedStore<ctx::NativeCtx> {
    if (bytes) {
      return {setup, spec.store, rt,
              [&](ctx::NativeCtx& c) { return entry.make_native_str(c, build); }};
    }
    return {setup, spec.store, rt,
            [&](ctx::NativeCtx& c) { return entry.make_native(c, build); }};
  }();
  if (perf) perf->start();
  if (bytes) {
    preload_store_str(st, setup, spec.workload, *ks, spec.preload,
                      spec.preload_stride);
  } else {
    preload_store(st, setup, spec.workload, spec.preload, spec.preload_stride);
  }
  if (perf) {
    perf->stop();
    r.perf.phases.push_back(perf->sample("preload"));
  }

  const bool thread_obs_on = obs_opt.latency || obs_opt.metrics_interval != 0;
  std::vector<obs::ThreadObs> tobs(
      thread_obs_on ? static_cast<std::size_t>(spec.threads) : 0);
  std::vector<obs::EventRing> rings(
      obs_opt.trace ? static_cast<std::size_t>(spec.threads) : 0);
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));
  std::vector<std::uint64_t> completed(
      static_cast<std::size_t>(spec.threads), 0);
  const workload::OpenLoopSpec ol = make_openloop(spec, rt.clock_hz);
  const std::uint64_t origin = util::monotonic_ns();
  if (perf) perf->start();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      if (!tobs.empty()) {
        auto& to = tobs[static_cast<std::size_t>(t)];
        to.series.configure(obs_opt.metrics_interval, origin);
        c.set_observer(&to);
      }
      if (!rings.empty()) {
        c.set_trace_ring(&rings[static_cast<std::size_t>(t)], origin);
      }
      StoreExec<ctx::NativeCtx, store::ShardedStore<ctx::NativeCtx>> exec(
          st, spec, ks ? &*ks : nullptr);
      completed[static_cast<std::size_t>(t)] = run_store_ops(
          c, spec, ol, t, origin,
          [](std::uint64_t target) {
            while (util::monotonic_ns() < target) cpu_relax();
          },
          exec);
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (perf) {
    perf->stop();
    r.perf.phases.push_back(perf->sample("measure"));
  }

  r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const auto& s : stats) aggregate_stats(s, &r);
  r.aborts_per_op =
      static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);
  std::uint64_t total_completed = 0;
  for (const auto n : completed) total_completed += n;
  fold_store_totals(st.accumulate(), total_completed, seconds, &r);
  auto& ms = MemStats::instance();
  r.mem_total = ms.tree_live_bytes();
  r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
  r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
  r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;

  obs::ObsOptions native_opt{};
  native_opt.latency = obs_opt.latency;
  finalize_obs(native_opt, tobs, nullptr, nullptr, &r);
  if (obs_opt.metrics_interval != 0) {
    const std::uint64_t end_ts = util::monotonic_ns();
    for (auto& to : tobs) to.series.finish(end_ts);
    r.timeseries = obs::merge_series(obs_opt.metrics_interval, "ns", tobs);
  }
  if (!rings.empty()) r.trace = obs::TraceStream(std::move(rings));

  ctx::NativeCtx teardown(env, 0);
  st.destroy(teardown);
  return r;
}

// run_sim_with / run_native_with are parameterized over three hooks so the
// u64 and bytes key domains share one measurement harness: `make` builds the
// (type-erased) tree, `preload(tree, ctx)` warms it, `work(tree, ctx, t)` is
// one thread's measured op loop. Everything else — obs channels, stats
// aggregation, mem accounting, teardown — is domain-independent.
template <class MakeTree, class Preload, class Work>
ExperimentResult run_sim_with(const ExperimentSpec& spec, MakeTree make,
                              Preload preload, Work work) {
  EUNO_ASSERT(spec.threads >= 1 &&
              spec.threads <= spec.machine.topology.total_cores());
  sim::Simulation simulation(spec.machine);
  MemStats::instance().reset();

  // Observability channels: enabled before the tree exists so node
  // allocations register, but recording charges no simulated cycles — the
  // machine model cannot see any of this.
  const obs::ObsOptions obs_opt =
      obs::kCompiledIn ? spec.obs : obs::ObsOptions{};
  obs::ContentionMap cmap;
  obs::NodeRegistry node_reg;
  if (obs_opt.contention) simulation.enable_contention(&cmap, &node_reg);
  if (obs_opt.trace) simulation.enable_trace();
  std::vector<obs::ThreadObs> tobs(
      obs_opt.latency || obs_opt.metrics_interval != 0
          ? static_cast<std::size_t>(spec.threads)
          : 0);

  ctx::SimCtx setup(simulation, 0);
  auto tree_owner = make(setup);
  auto& tree = *tree_owner;
  preload(tree, setup);

  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      if (!tobs.empty()) {
        auto& to = tobs[static_cast<std::size_t>(t)];
        // Sim windows are in simulated cycles; every core's clock starts
        // at 0, so the series origin is 0.
        to.series.configure(obs_opt.metrics_interval, 0);
        c.set_observer(&to);
      }
      work(tree, c, t);
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  simulation.run();

  ExperimentResult r;
  r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
  r.sim_cycles = simulation.max_clock();
  const double seconds = static_cast<double>(r.sim_cycles) / (spec.ghz * 1e9);
  r.throughput_mops = seconds > 0 ? static_cast<double>(r.ops) / seconds / 1e6 : 0;
  for (const auto& s : stats) aggregate_stats(s, &r);
  r.aborts_per_op =
      static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);

  std::uint64_t instr = 0, wasted = 0, clock_sum = 0;
  for (int t = 0; t < spec.threads; ++t) {
    instr += simulation.counters(t).instructions;
    r.mem_accesses += simulation.counters(t).mem_accesses;
    wasted += simulation.counters(t).cycles_wasted;
    clock_sum += simulation.clock_of(t);
  }
  r.fiber_switches = simulation.switch_count();
  r.instructions_per_op = static_cast<double>(instr) / static_cast<double>(r.ops);
  r.wasted_cycle_frac =
      clock_sum > 0 ? static_cast<double>(wasted) / static_cast<double>(clock_sum)
                    : 0;

  auto& ms = MemStats::instance();
  r.mem_total = ms.tree_live_bytes();
  r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
  r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
  r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;

  finalize_obs(obs_opt, tobs, obs_opt.contention ? &cmap : nullptr, &node_reg,
               &r);
  if (obs_opt.trace) r.trace = simulation.take_trace();
  if (obs_opt.metrics_interval != 0) {
    for (int t = 0; t < spec.threads; ++t) {
      tobs[static_cast<std::size_t>(t)].series.finish(simulation.clock_of(t));
    }
    r.timeseries = obs::merge_series(obs_opt.metrics_interval, "cycles", tobs);
  }

  const sim::FaultCounters& fc = simulation.fault_counters();
  r.faults_spurious = fc.spurious_aborts;
  r.faults_burst = fc.burst_aborts;
  r.faults_lock_delay = fc.lock_hold_delays;
  r.fault_capacity_phases = fc.capacity_phases;

  ctx::SimCtx teardown(simulation, 0);
  tree.destroy(teardown);
  return r;
}

template <class MakeTree, class Preload, class Work>
ExperimentResult run_native_with(const ExperimentSpec& spec, MakeTree make,
                                 Preload preload, Work work) {
  ctx::NativeEnv env(64);
  MemStats::instance().reset();

  // Native obs channels: latency histograms, per-thread event rings
  // (obs.trace), windowed time-series (obs.metrics_interval) and perf
  // counters (obs.perf). Contention attribution stays sim-only.
  const obs::ObsOptions obs_opt =
      obs::kCompiledIn ? spec.obs : obs::ObsOptions{};
  ExperimentResult r;
  // The counter fds must exist before the worker threads do: inherit=1 on
  // each fd makes threads spawned afterwards count into it.
  std::optional<obs::PerfCounterGroup> perf;
  if (obs_opt.perf) {
    perf.emplace();
    r.perf.attempted = true;
  }

  ctx::NativeCtx setup(env, 0);
  auto tree_owner = make(setup);
  auto& tree = *tree_owner;
  if (perf) perf->start();
  preload(tree, setup);
  if (perf) {
    perf->stop();
    r.perf.phases.push_back(perf->sample("preload"));
  }

  const bool thread_obs_on = obs_opt.latency || obs_opt.metrics_interval != 0;
  std::vector<obs::ThreadObs> tobs(
      thread_obs_on ? static_cast<std::size_t>(spec.threads) : 0);
  std::vector<obs::EventRing> rings(
      obs_opt.trace ? static_cast<std::size_t>(spec.threads) : 0);
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));
  // One origin for every thread's trace timestamps and series windows.
  const std::uint64_t origin = util::monotonic_ns();
  if (perf) perf->start();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      if (!tobs.empty()) {
        auto& to = tobs[static_cast<std::size_t>(t)];
        to.series.configure(obs_opt.metrics_interval, origin);
        c.set_observer(&to);
      }
      if (!rings.empty()) {
        c.set_trace_ring(&rings[static_cast<std::size_t>(t)], origin);
      }
      work(tree, c, t);
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (perf) {
    perf->stop();
    r.perf.phases.push_back(perf->sample("measure"));
  }

  r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  r.throughput_mops = seconds > 0 ? static_cast<double>(r.ops) / seconds / 1e6 : 0;
  for (const auto& s : stats) aggregate_stats(s, &r);
  r.aborts_per_op =
      static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);
  auto& ms = MemStats::instance();
  r.mem_total = ms.tree_live_bytes();
  r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
  r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
  r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;

  // Native runs have no simulated clock: latency percentiles and series
  // windows come out in wall nanoseconds; contention attribution is sim-only.
  obs::ObsOptions native_opt{};
  native_opt.latency = obs_opt.latency;
  finalize_obs(native_opt, tobs, nullptr, nullptr, &r);
  if (obs_opt.metrics_interval != 0) {
    const std::uint64_t end_ts = util::monotonic_ns();
    for (auto& to : tobs) to.series.finish(end_ts);
    r.timeseries = obs::merge_series(obs_opt.metrics_interval, "ns", tobs);
  }
  if (!rings.empty()) r.trace = obs::TraceStream(std::move(rings));

  ctx::NativeCtx teardown(env, 0);
  tree.destroy(teardown);
  return r;
}

}  // namespace

ExperimentResult run_sim_experiment(const ExperimentSpec& spec) {
  if (spec.store.enabled()) return run_store_sim(spec);
  const trees::TreeEntry& entry = trees::tree_registry().expect(spec.tree);
  trees::TreeBuildOptions opt;
  opt.policy = spec.policy;
  if (spec.workload.key_domain == workload::KeyDomain::kBytes) {
    EUNO_ASSERT_MSG(entry.make_sim_str != nullptr,
                    "tree has no bytes-domain factory");
    workload::StringKeySpace ks(spec.workload.key_style, spec.workload.seed);
    return run_sim_with(
        spec, [&](ctx::SimCtx& c) { return entry.make_sim_str(c, opt); },
        [&](auto& tree, ctx::SimCtx& c) {
          preload_tree_str(tree, c, spec.workload, ks, spec.preload,
                           spec.preload_stride);
        },
        [&](auto& tree, ctx::SimCtx& c, int t) {
          OpStream stream(spec.workload, t);
          run_ops_str(tree, c, stream, ks, spec.ops_per_thread,
                      spec.workload.scan_len, spec.workload.value_bytes);
        });
  }
  return run_sim_with(
      spec, [&](ctx::SimCtx& c) { return entry.make_sim(c, opt); },
      [&](auto& tree, ctx::SimCtx& c) {
        preload_tree(tree, c, spec.workload, spec.preload, spec.preload_stride);
      },
      [&](auto& tree, ctx::SimCtx& c, int t) {
        OpStream stream(spec.workload, t);
        run_ops(tree, c, stream, spec.ops_per_thread, spec.workload.scan_len);
      });
}

ExperimentResult run_native_experiment(const ExperimentSpec& spec) {
  if (spec.store.enabled()) return run_store_native(spec);
  const trees::TreeEntry& entry = trees::tree_registry().expect(spec.tree);
  trees::TreeBuildOptions opt;
  opt.policy = spec.policy;
  if (spec.workload.key_domain == workload::KeyDomain::kBytes) {
    EUNO_ASSERT_MSG(entry.make_native_str != nullptr,
                    "tree has no bytes-domain factory");
    workload::StringKeySpace ks(spec.workload.key_style, spec.workload.seed);
    return run_native_with(
        spec, [&](ctx::NativeCtx& c) { return entry.make_native_str(c, opt); },
        [&](auto& tree, ctx::NativeCtx& c) {
          preload_tree_str(tree, c, spec.workload, ks, spec.preload,
                           spec.preload_stride);
        },
        [&](auto& tree, ctx::NativeCtx& c, int t) {
          OpStream stream(spec.workload, t);
          run_ops_str(tree, c, stream, ks, spec.ops_per_thread,
                      spec.workload.scan_len, spec.workload.value_bytes);
        });
  }
  return run_native_with(
      spec, [&](ctx::NativeCtx& c) { return entry.make_native(c, opt); },
      [&](auto& tree, ctx::NativeCtx& c) {
        preload_tree(tree, c, spec.workload, spec.preload, spec.preload_stride);
      },
      [&](auto& tree, ctx::NativeCtx& c, int t) {
        OpStream stream(spec.workload, t);
        run_ops(tree, c, stream, spec.ops_per_thread, spec.workload.scan_len);
      });
}

}  // namespace euno::driver
