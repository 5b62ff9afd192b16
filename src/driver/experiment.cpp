// The experiment runner: one preload loop, one op-issue loop and one result
// fold for every spec, templated on the backend (SimBackend fibers or
// NativeBackend OS threads: contexts, spawn, per-thread obs, idle_until and
// the fields only it can fill), the target (TreeTarget or StoreTarget: runs
// one op, says whether it was served) and the key codec (U64Keys identity
// or BytesKeys string key/payload materialization).
#include "driver/experiment.hpp"

#include <bit>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "store/sharded_store.hpp"
#include "util/memstats.hpp"
#include "util/tsc.hpp"
#include "workload/openloop.hpp"
#include "workload/strkeys.hpp"

namespace euno::driver {

using trees::node::BytesView;
using workload::Op;
using workload::OpType;

namespace {

const trees::TreeEntry& registered_tree(const std::string& slug) {
  const trees::TreeEntry* e = trees::tree_registry().by_name(slug);
  EUNO_ASSERT_MSG(e != nullptr, "tree slug not registered");
  return *e;
}

/// Rows kept in the hottest-lines attribution table.
constexpr std::size_t kHotLinesTopK = 16;

void aggregate_stats(const ctx::SiteStats& s, ExperimentResult* r) {
  const htm::TxStats t = s.total();
  const auto aborts = [&](htm::AbortReason k) {
    return t.aborts[static_cast<int>(k)];
  };
  const auto conflicts = [&](htm::ConflictKind k) {
    return t.conflicts[static_cast<int>(k)];
  };
#define EUNO_FOLD(name, emit) r->name += t.name;
  EUNO_TX_OUTCOME_COUNTERS(EUNO_FOLD)
  EUNO_TX_PATH_COUNTERS(EUNO_FOLD)
#undef EUNO_FOLD
  r->aborts_total += t.total_aborts();
  r->aborts_conflict += aborts(htm::AbortReason::kConflict);
  r->aborts_capacity += aborts(htm::AbortReason::kCapacity);
  r->aborts_other += t.total_aborts() - aborts(htm::AbortReason::kConflict) -
                     aborts(htm::AbortReason::kCapacity);
  r->conflicts_true_same_record +=
      conflicts(htm::ConflictKind::kTrueSameRecord);
  r->conflicts_false_record += conflicts(htm::ConflictKind::kFalseRecord);
  r->conflicts_false_metadata += conflicts(htm::ConflictKind::kFalseMetadata);
  r->conflicts_lock_subscription +=
      conflicts(htm::ConflictKind::kLockSubscription);
  r->upper_aborts += s.at(ctx::TxSite::kUpper).total_aborts();
  r->lower_aborts += s.at(ctx::TxSite::kLower).total_aborts();
  r->mono_aborts += s.at(ctx::TxSite::kMono).total_aborts();
}

// ---- key codecs: encode(id, value, put, fn) calls fn(key, payload...) ----

/// u64 key domain: a sampled key id is the key; there is no payload.
struct U64Keys {
  static constexpr bool kBytes = false;
  template <class Fn>
  void encode(std::uint64_t id, std::uint64_t, bool, Fn fn) const { fn(id); }
  trees::KV* scan_out(trees::KV* buf) const { return buf; }
};

/// Bytes key domain: each sampled id maps to its string key at issue time
/// (inside the latency window), and puts carry a synthesized payload.
struct BytesKeys {
  static constexpr bool kBytes = true;
  template <class Fn>
  void encode(std::uint64_t id, std::uint64_t value, bool put, Fn fn) const {
    const std::string key = ks.key_of(id);
    const std::string payload =
        put ? ks.payload_of(id, value, value_bytes) : std::string();
    fn(BytesView(key.data(), key.size()),
       BytesView(payload.data(), payload.size()));
  }
  /// Records are decoded (and charged) through the ctx; the sink keeps none.
  const trees::node::StrEmitFn& scan_out(trees::KV*) const { return emit; }

  workload::StringKeySpace ks;
  std::uint32_t value_bytes;
  trees::node::StrEmitFn emit = [](BytesView, trees::Value, BytesView) {};
};

// ---- targets ----

/// One tree (AnyTree or AnyStrTree, to match the codec) serving every op.
template <class Tree, class Codec>
struct TreeTarget {
  std::unique_ptr<Tree> tree;
  Codec codec;

  template <class Ctx>
  void preload(Ctx& c, std::uint64_t id, trees::Value v) {
    exec(c, Op{OpType::kPut, id, v, 0}, 0, nullptr);
  }
  template <class Ctx>
  bool exec(Ctx& c, const Op& op, std::uint64_t, trees::KV* scan_buf) {
    codec.encode(op.key, op.value, op.type == OpType::kPut,
                 [&](auto key, auto... payload) {
      trees::Value v = 0;
      switch (op.type) {
        case OpType::kGet: (void)tree->get(c, key, &v); break;
        case OpType::kPut: tree->put(c, key, op.value, payload...); break;
        case OpType::kScan:
          (void)tree->scan(c, key, op.scan_len, codec.scan_out(scan_buf));
          break;
        case OpType::kDelete: (void)tree->erase(c, key); break;
      }
    });
    return true;
  }
  template <class Ctx>
  void finish(Ctx& c, ExperimentResult*) { tree->destroy(c); }
};

/// A ShardedStore (DESIGN.md §15). Preloads bypass admission and deadlines;
/// an op is served unless it was shed or missed its deadline.
template <class Ctx, class Codec>
struct StoreTarget {
  store::ShardedStore<Ctx> st;
  Codec codec;

  void preload(Ctx& c, std::uint64_t id, trees::Value v) {
    codec.encode(id, v, true, [&](auto key, auto... payload) {
      if constexpr (Codec::kBytes) {
        st.preload_put_str(c, key, v, payload...);
      } else {
        st.preload_put(c, key, v);
      }
    });
  }
  bool exec(Ctx& c, const Op& op, std::uint64_t sched, trees::KV* scan_buf) {
    store::OpResult res;
    if constexpr (Codec::kBytes) {
      codec.encode(op.key, op.value, op.type == OpType::kPut,
                   [&](BytesView key, BytesView payload) {
        res = st.execute_str(c, op.type, key, op.value, payload, op.scan_len,
                             sched, codec.emit);
      });
    } else {
      res = st.execute(c, op, sched, scan_buf);
    }
    return res.status == store::StoreStatus::kOk ||
           res.status == store::StoreStatus::kNotFound;
  }
  /// Folds the store totals, then tears the store down.
  void finish(Ctx& c, ExperimentResult* r) {
    const store::StoreTotals tot = st.accumulate();
    r->admitted_ops = tot.admitted;
    r->shed_ops = tot.shed;
    r->shard_degradations = tot.degradations;
    r->deadline_exceeded = tot.deadline_exceeded;
    st.destroy(c);
  }
};

// ---- backends ----

/// What both backends share: the spec, the enabled obs channels, one
/// ThreadObs per thread when the latency or metrics channel is on (recording
/// charges no simulated cycles) and the clock origin.
struct BackendBase {
  explicit BackendBase(const ExperimentSpec& s)
      : spec(s),
        opt(obs::kCompiledIn ? s.obs : obs::ObsOptions{}),
        tobs(opt.latency || opt.metrics_interval != 0
                 ? static_cast<std::size_t>(s.threads)
                 : 0) {}

  const ExperimentSpec& spec;
  const obs::ObsOptions opt;
  std::vector<obs::ThreadObs> tobs;
  /// Start of every thread's clock: series windows, trace timestamps and
  /// arrival schedules count from here.
  std::uint64_t origin = 0;

  template <class Ctx>
  void attach(Ctx& c, int t) {
    if (tobs.empty()) return;
    auto& to = tobs[static_cast<std::size_t>(t)];
    to.series.configure(opt.metrics_interval, origin);
    c.set_observer(&to);
  }

  /// Latency histograms and percentiles, and the time series (windows in
  /// `unit`) merged over threads.
  void fold_obs(const char* unit, ExperimentResult* r) {
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
    if (opt.metrics_interval != 0) {
      r->timeseries = obs::merge_series(opt.metrics_interval, unit, tobs);
    }
  }
};

/// Fibers on the simulated multicore: deterministic, clocked in simulated
/// cycles from 0.
class SimBackend : public BackendBase {
 public:
  using Ctx = ctx::SimCtx;
  static constexpr auto kMakeTree = &trees::TreeEntry::make_sim;
  static constexpr auto kMakeStrTree = &trees::TreeEntry::make_sim_str;
  static int capacity(const ExperimentSpec& s) {
    return s.machine.topology.total_cores();
  }
  explicit SimBackend(const ExperimentSpec& s)
      : BackendBase(s), sim_(s.machine) {
    // Enabled before the target exists so node allocations register.
    if (opt.contention) sim_.enable_contention(&cmap_, &node_reg_);
    if (opt.trace) sim_.enable_trace();
  }
  Ctx context(int t) { return Ctx(sim_, t); }
  double clock_hz() const { return spec.ghz * 1e9; }
  void idle_until(Ctx& c, std::uint64_t t) {
    if (t > c.now()) sim_.charge(t - c.now());
  }
  template <class F>
  void phase(const char*, F f) { f(); }

  /// Runs body(ctx, t) on one fiber per thread; returns simulated seconds.
  template <class Body>
  double run(Body body) {
    for (int t = 0; t < spec.threads; ++t) {
      sim_.spawn(t, [&, t](int core) {
        Ctx c(sim_, core);
        attach(c, t);
        body(c, t);
      });
    }
    sim_.run();
    return static_cast<double>(sim_.max_clock()) / clock_hz();
  }

  void fill(ExperimentResult* r) {
    r->sim_cycles = sim_.max_clock();
    std::uint64_t instr = 0, wasted = 0, clock_sum = 0;
    for (int t = 0; t < spec.threads; ++t) {
      instr += sim_.counters(t).instructions;
      r->mem_accesses += sim_.counters(t).mem_accesses;
      wasted += sim_.counters(t).cycles_wasted;
      clock_sum += sim_.clock_of(t);
    }
    r->fiber_switches = sim_.switch_count();
    r->instructions_per_op =
        static_cast<double>(instr) / static_cast<double>(r->ops);
    r->wasted_cycle_frac =
        clock_sum > 0
            ? static_cast<double>(wasted) / static_cast<double>(clock_sum)
            : 0;
    const sim::FaultCounters& fc = sim_.fault_counters();
    r->faults_spurious = fc.spurious_aborts;
    r->faults_burst = fc.burst_aborts;
    r->faults_lock_delay = fc.lock_hold_delays;
    r->fault_capacity_phases = fc.capacity_phases;
    fold_obs("cycles", r);
    if (opt.contention) r->hot_lines = cmap_.top_k(kHotLinesTopK, &node_reg_);
    if (opt.trace) r->trace = sim_.take_trace();
  }

 private:
  sim::Simulation sim_;
  obs::ContentionMap cmap_;
  obs::NodeRegistry node_reg_;
};

/// OS threads on the host (real RTM when present), clocked in wall
/// nanoseconds. No contention attribution; per-thread event rings, and perf
/// counters sampled per phase (preload, then measure).
class NativeBackend : public BackendBase {
 public:
  using Ctx = ctx::NativeCtx;
  static constexpr auto kMakeTree = &trees::TreeEntry::make_native;
  static constexpr auto kMakeStrTree = &trees::TreeEntry::make_native_str;
  static int capacity(const ExperimentSpec&) {
    return ctx::NativeEnv().max_threads();
  }
  explicit NativeBackend(const ExperimentSpec& s)
      : BackendBase(s),
        rings_(opt.trace ? static_cast<std::size_t>(s.threads) : 0) {
    // The counter fds must exist before the worker threads do: inherit=1 on
    // each fd makes threads spawned afterwards count into it.
    if (opt.perf) perf_.emplace();
    sample_.attempted = opt.perf;
  }
  Ctx context(int t) { return Ctx(env_, t); }
  double clock_hz() const { return 1e9; }
  void idle_until(Ctx&, std::uint64_t t) {
    while (util::monotonic_ns() < t) cpu_relax();
  }
  template <class F>
  void phase(const char* name, F f) {
    if (perf_) perf_->start();
    f();
    if (!perf_) return;
    perf_->stop();
    sample_.phases.push_back(perf_->sample(name));
  }

  /// Runs body(ctx, t) on one OS thread per thread; returns wall seconds.
  template <class Body>
  double run(Body body) {
    origin = util::monotonic_ns();
    double seconds = 0;
    phase("measure", [&] {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> workers;
      for (int t = 0; t < spec.threads; ++t) {
        workers.emplace_back([&, t] {
          Ctx c(env_, t);
          attach(c, t);
          if (!rings_.empty()) {
            c.set_trace_ring(&rings_[static_cast<std::size_t>(t)], origin);
          }
          body(c, t);
        });
      }
      for (auto& w : workers) w.join();
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count();
    });
    return seconds;
  }

  void fill(ExperimentResult* r) {
    fold_obs("ns", r);
    if (!rings_.empty()) r->trace = obs::TraceStream(std::move(rings_));
    r->perf = std::move(sample_);
  }

 private:
  ctx::NativeEnv env_;
  std::vector<obs::EventRing> rings_;
  std::optional<obs::PerfCounterGroup> perf_;
  obs::PerfSample sample_;
};

// ---- the runner ----

/// One client's issue loop; returns the number of served ops. In an
/// open-loop store run each client waits for its scheduled arrival and
/// latency is sojourn time (completion minus scheduled arrival), so backlog
/// shows in the histograms; other ops are scheduled when issued. Only served
/// ops are recorded: latency percentiles are of admitted ops.
template <class Backend, class Target>
std::uint64_t issue(Backend& be, typename Backend::Ctx& c, Target& target,
                    int t) {
  const ExperimentSpec& spec = be.spec;
  const store::StoreOptions& so = spec.store;
  const bool open_loop = so.enabled() && so.open_loop();
  // The arrival seed is derived from (but distinct from) the key-choice
  // seed; the offered load splits evenly across clients.
  const double mean_gap = open_loop ? be.clock_hz() * spec.threads /
                                          (so.offered_load_mops * 1e6)
                                    : 0;
  workload::ArrivalStream arrivals({spec.workload.seed ^ 0x0B5E55ull, mean_gap},
                                   t, be.origin);
  workload::OpStream stream(spec.workload, t);
  std::vector<trees::KV> scan_buf(spec.workload.scan_len);
  obs::ThreadObs* tobs = c.observer();
  std::uint64_t served = 0, completion = be.origin;
  for (std::uint64_t i = 0; i < spec.ops_per_thread; ++i) {
    std::uint64_t sched;
    if (open_loop) {
      sched = arrivals.next();
      be.idle_until(c, sched);
    } else {
      sched = c.now();
    }
    const Op op = stream.next();
    c.note_event(ctx::TraceCode::kOpBegin, static_cast<std::uint8_t>(op.type));
    const bool ok = target.exec(c, op, sched, scan_buf.data());
    completion = c.now();
    if (ok) {
      served++;
      if (tobs != nullptr) {
        tobs->op_latency.record(completion - sched);
        tobs->series.record_op(completion, completion - sched);
      }
    }
    c.note_event(ctx::TraceCode::kOpEnd, static_cast<std::uint8_t>(op.type));
  }
  if (tobs != nullptr) tobs->series.finish(completion);
  return served;
}

/// `make_tree(ctx)` builds one tree in the codec's key domain: the tree of a
/// tree run, or each shard's tree of a store run. The preload warms the
/// hottest ranks (every preload_stride-th), so the measured phase hits a
/// warm target and the remaining cold ranks produce fresh inserts.
template <class Backend, class Codec, class MakeTree>
ExperimentResult run(const ExperimentSpec& spec, const Codec& codec,
                     const MakeTree& make_tree) {
  EUNO_ASSERT_MSG(spec.threads >= 1 && spec.threads <= Backend::capacity(spec),
                  "thread count outside [1, backend capacity]");
  using Ctx = typename Backend::Ctx;
  Backend be(spec);
  MemStats::instance().reset();
  Ctx setup = be.context(0);
  const auto measure = [&](auto& target) {
    const workload::WorkloadSpec& w = spec.workload;
    be.phase("preload", [&] {
      Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
      for (std::uint64_t i = 0; i < spec.preload; ++i) {
        const std::uint64_t rank = i * spec.preload_stride;
        if (rank >= w.key_range) break;
        target.preload(setup,
                       workload::rank_to_key(rank, w.key_range, w.scramble),
                       rng.next());
      }
    });
    const auto n = static_cast<std::size_t>(spec.threads);
    std::vector<ctx::SiteStats> stats(n);
    std::vector<std::uint64_t> served(n, 0);
    const double seconds = be.run([&](Ctx& c, int t) {
      served[static_cast<std::size_t>(t)] = issue(be, c, target, t);
      stats[static_cast<std::size_t>(t)] = c.stats();
    });

    ExperimentResult r;
    r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
    for (const auto& s : stats) aggregate_stats(s, &r);
    r.aborts_per_op =
        static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);
    std::uint64_t total_served = 0;
    for (const auto k : served) total_served += k;
    r.throughput_mops =
        seconds > 0 ? static_cast<double>(total_served) / seconds / 1e6 : 0;
    auto& ms = MemStats::instance();
    r.mem_total = ms.tree_live_bytes();
    r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
    r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
    r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;
    be.fill(&r);
    Ctx teardown = be.context(0);
    target.finish(teardown, &r);
    return r;
  };
  if (spec.store.enabled()) {
    StoreTarget target{
        store::ShardedStore<Ctx>(setup, spec.store,
                                 store::StoreRuntime{be.clock_hz()}, make_tree),
        codec};
    return measure(target);
  }
  TreeTarget target{make_tree(setup), codec};
  return measure(target);
}

template <class Backend>
ExperimentResult run_registry(const ExperimentSpec& spec) {
  using Ctx = typename Backend::Ctx;
  const trees::TreeEntry& entry = registered_tree(spec.tree);
  trees::TreeBuildOptions build;
  build.policy = spec.policy;
  if (spec.workload.key_domain == workload::KeyDomain::kBytes) {
    const auto make = entry.*Backend::kMakeStrTree;
    EUNO_ASSERT_MSG(make != nullptr, "tree has no bytes-domain factory");
    const BytesKeys codec{{spec.workload.key_style, spec.workload.seed},
                          spec.workload.value_bytes};
    return run<Backend>(spec, codec, [&](Ctx& c) { return make(c, build); });
  }
  const auto make = entry.*Backend::kMakeTree;
  return run<Backend>(spec, U64Keys{}, [&](Ctx& c) { return make(c, build); });
}

}  // namespace

std::string tree_display_name(const std::string& slug) {
  return registered_tree(slug).display;
}

std::string first_counter_diff(const ExperimentResult& a,
                               const ExperimentResult& b, bool ignore_obs) {
  for (const ResultScalar& s : kResultScalars) {
    if (ignore_obs && s.obs) continue;
    const bool same = s.u64 != nullptr
                          ? a.*s.u64 == b.*s.u64
                          : std::bit_cast<std::uint64_t>(a.*s.f64) ==
                                std::bit_cast<std::uint64_t>(b.*s.f64);
    if (!same) return s.name;
  }
  return "";
}

ExperimentResult run_sim_experiment(const ExperimentSpec& spec) {
  return run_registry<SimBackend>(spec);
}

ExperimentResult run_sim_experiment(const ExperimentSpec& spec,
                                    const SimTreeFactory& make) {
  EUNO_ASSERT_MSG(spec.workload.key_domain == workload::KeyDomain::kU64,
                  "a SimTreeFactory builds u64-keyed trees");
  return run<SimBackend>(spec, U64Keys{}, make);
}

ExperimentResult run_native_experiment(const ExperimentSpec& spec) {
  return run_registry<NativeBackend>(spec);
}

}  // namespace euno::driver
