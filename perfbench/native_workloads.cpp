// kv-store / str-scan: native threads against the sharded store and the
// string-keyed tree.
//
// One repetition = set-up (build + preload, timed as setup_s), a warm-up,
// then kWindows measured windows of fixed wall length. Clients run until the
// main thread ends the last window, so a descheduled client contributes
// fewer ops instead of stretching an interval, and ops sent during warm-up
// never count. Throughput and latency are taken per window and reported as
// medians over every window of the run. After the windows every client's
// stream is replayed to build the size oracle. A traced run alternates
// untraced and traced repetitions; the traced ones record spans around each
// public call.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ctx/native_ctx.hpp"
#include "store/sharded_store.hpp"
#include "trees/key_traits.hpp"
#include "trees/registry.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"
#include "workload/strkeys.hpp"
#include "workload/ycsb.hpp"

namespace perfbench {
namespace {

using euno::ctx::NativeCtx;
using euno::trees::node::BytesView;
using euno::workload::Op;
using euno::workload::OpType;

constexpr int kThreads = 4;
constexpr std::uint64_t kKeyRange = 1u << 20;
/// Clients run this long before each measured window. Besides warming the
/// tree and allocator, it covers the host's CPU ramp: on the 4-vCPU VM this
/// benchmark was tuned on, cores idle for more than ~2 s (as three of them
/// are during a single-threaded preload) run at a quarter of their speed
/// for about a second once busy again. A 0.3 s warm-up let the first
/// repetition read 0.2-0.6x the throughput of later ones at an unchanged
/// p50: clients stalled outside the timed calls.
constexpr double kWarmupS = 1.5;
/// Every kLatencyPeriod-th measured op is timed for the latency metrics,
/// into per-client buffers sized for kMaxClientRate ops/s and touched
/// before the first repetition, so recording never page-faults.
constexpr std::uint64_t kLatencyPeriod = 8;
constexpr double kMaxClientRate = 2.5e6;
constexpr double kMiB = 1024.0 * 1024.0;
/// Measured windows per repetition. Windows within one set-up are cheap
/// samples; the per-window noise on a shared 4-vCPU host is about 5%.
constexpr int kWindows = 4;

/// What one client thread observed during a repetition. Boundary b is the
/// start of window b + 1 (b < kWindows) or the stop (b == kWindows).
struct ClientResult {
  std::uint64_t ops_total = 0;  // every op sent (the replay length)
  std::uint64_t ops_at[kWindows + 1] = {};
  std::size_t lat_at[kWindows + 1] = {};
  std::uint64_t failed = 0;
  std::uint32_t* lat = nullptr;  // sampled op latencies, ns
  std::size_t lat_cap = 0;
  std::size_t lat_n = 0;
  euno::ctx::SiteStats stats{};
  std::vector<std::uint64_t> shard_ops;  // traced kv-store repetitions
  std::uint64_t scans = 0;
  std::uint64_t scan_records = 0;
  std::string first_failure;
};

/// Tracks the phase inside a client loop (0 = warm-up, w = window w,
/// kWindows + 1 = stop): marks every window boundary passed and says when
/// to stop.
struct PhaseTracker {
  int seen = 0;

  /// Returns false once the client should stop (after recording the stop).
  bool step(const std::atomic<int>& phase, std::uint64_t i, ClientResult& r) {
    const int ph = phase.load(std::memory_order_relaxed);
    if (ph == seen) return true;
    for (int w = seen; w < ph; ++w) {  // a descheduled client may skip some
      r.ops_at[w] = i;
      r.lat_at[w] = r.lat_n;
    }
    seen = ph;
    return ph <= kWindows;
  }
  bool measuring() const { return seen >= 1 && seen <= kWindows; }
};

void record_latency(ClientResult& r, std::uint64_t ns) {
  if (r.lat_n < r.lat_cap) {
    r.lat[r.lat_n++] = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, ~0u));
  }
}

/// State one repetition shares with the harness: whether it is traced, the
/// window length, the span logs and latency buffers (reused across
/// repetitions) and the span-derived metrics a traced repetition adds.
struct RepContext {
  bool traced = false;
  double window_s = 0;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<std::vector<std::uint32_t>> lat;
  MetricMap span_metrics;
};

/// Runs `client(t, phase, result)` on kThreads threads through a warm-up
/// and kWindows measured windows; returns the wall time of each boundary.
template <class Client>
std::vector<std::chrono::steady_clock::time_point> run_clients(
    RepContext& ctx, std::vector<ClientResult>& results, Client client) {
  std::atomic<int> phase{0};
  results.assign(kThreads, ClientResult{});
  for (std::size_t t = 0; t < results.size(); ++t) {
    results[t].lat = ctx.lat[t].data();
    results[t].lat_cap = ctx.lat[t].size();
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(
        [&, t] { client(t, phase, results[static_cast<std::size_t>(t)]); });
  }
  std::vector<std::chrono::steady_clock::time_point> bounds;
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  for (int b = 0; b <= kWindows; ++b) {
    if (b > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ctx.window_s));
    }
    bounds.push_back(std::chrono::steady_clock::now());
    phase.store(b + 1, std::memory_order_relaxed);
  }
  for (auto& w : workers) w.join();
  return bounds;
}

/// Key ids written by the preload: every second popularity rank of the
/// lower half, mapped through the workload's rank -> key function.
std::vector<bool> preloaded_keys(const euno::workload::WorkloadSpec& w) {
  std::vector<bool> present(w.key_range, false);
  for (std::uint64_t rank = 0; rank < w.key_range; rank += 2) {
    present[euno::workload::rank_to_key(rank, w.key_range, w.scramble)] = true;
  }
  return present;
}

/// |preload ∪ put keys| given how many ops each client sent, by replaying
/// the seeded streams (one replay thread per client).
std::size_t expected_size(const euno::workload::WorkloadSpec& w,
                          const std::vector<bool>& preloaded,
                          const std::vector<ClientResult>& clients) {
  std::vector<std::vector<bool>> puts(clients.size());
  std::vector<std::thread> replay;
  for (std::size_t t = 0; t < clients.size(); ++t) {
    replay.emplace_back([&, t] {
      puts[t].assign(w.key_range, false);
      euno::workload::OpStream stream(w, static_cast<int>(t));
      for (std::uint64_t i = 0; i < clients[t].ops_total; ++i) {
        const Op op = stream.next();
        if (op.type == OpType::kPut) puts[t][op.key] = true;
      }
    });
  }
  for (auto& th : replay) th.join();
  std::size_t n = 0;
  for (std::uint64_t k = 0; k < w.key_range; ++k) {
    bool hit = preloaded[k];
    for (const auto& p : puts) hit = hit || p[k];
    n += hit ? 1 : 0;
  }
  return n;
}

/// What one native repetition measured. Window metrics are per measured
/// window; the rest is per repetition.
struct NativeRep {
  double setup_s = 0;
  std::vector<double> ops_per_s, lat_p50_us, lat_p99_us;
  std::size_t lat_samples = 0;
  std::uint64_t ops_total = 0;
  std::uint64_t failed = 0;
  euno::ctx::SiteStats stats{};
  std::size_t final_size = 0;
  std::size_t expected_size = 0;
  std::uint64_t tree_bytes = 0;
  std::uint64_t ccm = 0, reserved = 0, suffix = 0;
  std::string first_failure;
};

void fold_clients(
    const std::vector<ClientResult>& clients,
    const std::vector<std::chrono::steady_clock::time_point>& bounds,
    NativeRep& r) {
  for (int w = 0; w < kWindows; ++w) {
    std::uint64_t ops = 0;
    std::vector<double> lat;
    for (const ClientResult& c : clients) {
      ops += c.ops_at[w + 1] - c.ops_at[w];
      lat.insert(lat.end(), c.lat + c.lat_at[w], c.lat + c.lat_at[w + 1]);
    }
    const double secs = std::chrono::duration<double>(bounds[w + 1] - bounds[w]).count();
    r.ops_per_s.push_back(static_cast<double>(ops) / secs);
    r.lat_p50_us.push_back(sample_quantile(lat, 0.5) / 1e3);
    r.lat_p99_us.push_back(sample_quantile(lat, 0.99) / 1e3);
    r.lat_samples += lat.size();
  }
  for (const ClientResult& c : clients) {
    r.ops_total += c.ops_total;
    r.failed += c.failed;
    r.stats += c.stats;
    if (r.first_failure.empty()) r.first_failure = c.first_failure;
  }
}

void snapshot_memory(NativeRep& r) {
  auto& mem = euno::MemStats::instance();
  r.tree_bytes = mem.tree_live_bytes();
  r.ccm = mem.snapshot(euno::MemClass::kCCM).live_bytes;
  r.reserved = mem.snapshot(euno::MemClass::kReservedKeys).live_bytes;
  r.suffix = mem.snapshot(euno::MemClass::kBytesBox).live_bytes;
}

MetricMap counters_of(const NativeRep& r) {
  const auto ops = static_cast<double>(r.ops_total);
  const euno::htm::TxStats tot = r.stats.total();
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double conflicts = static_cast<double>(
      tot.aborts[static_cast<std::size_t>(euno::htm::AbortReason::kConflict)]);
  MetricMap m;
  m["htm.attempts_per_op"] = static_cast<double>(tot.attempts) / ops;
  m["htm.commit_frac"] = frac(static_cast<double>(tot.commits),
                              static_cast<double>(tot.attempts));
  m["htm.aborts_per_op"] = static_cast<double>(tot.total_aborts()) / ops;
  m["htm.aborts_conflict_per_op"] = conflicts / ops;
  m["htm.aborts_capacity_per_op"] =
      static_cast<double>(tot.aborts[static_cast<std::size_t>(
          euno::htm::AbortReason::kCapacity)]) /
      ops;
  m["htm.conflict_false_record_frac"] =
      frac(static_cast<double>(tot.conflicts[static_cast<std::size_t>(
               euno::htm::ConflictKind::kFalseRecord)]),
           conflicts);
  m["htm.conflict_lock_subscription_frac"] =
      frac(static_cast<double>(tot.conflicts[static_cast<std::size_t>(
               euno::htm::ConflictKind::kLockSubscription)]),
           conflicts);
  m["htm.upper_aborts_per_op"] =
      static_cast<double>(r.stats.at(euno::ctx::TxSite::kUpper).total_aborts()) /
      ops;
  m["htm.lower_aborts_per_op"] =
      static_cast<double>(r.stats.at(euno::ctx::TxSite::kLower).total_aborts()) /
      ops;
  m["htm.fallbacks_per_op"] = static_cast<double>(tot.fallbacks) / ops;
  m["htm.backoff_cycles_per_op"] = static_cast<double>(tot.backoff_cycles) / ops;
  // Natively TxStats counts lock waiting in spin iterations.
  m["htm.lock_wait_spins_per_op"] =
      static_cast<double>(tot.lock_wait_cycles) / ops;
  m["mem.tree_mb"] = static_cast<double>(r.tree_bytes) / kMiB;
  m["mem.ccm_mb"] = static_cast<double>(r.ccm) / kMiB;
  m["mem.reserved_mb"] = static_cast<double>(r.reserved) / kMiB;
  m["mem.suffix_mb"] = static_cast<double>(r.suffix) / kMiB;
  m["epoch.retired_per_op"] = static_cast<double>(tot.epoch_retired) / ops;
  return m;
}

MetricMap common_span_metrics(SpanSummary& s) {
  MetricMap m;
  m["tree.get_ns_p50"] = sample_quantile(s.durations(SpanName::kTreeGet), 0.5);
  m["tree.get_ns_p99"] = sample_quantile(s.durations(SpanName::kTreeGet), 0.99);
  m["tree.put_ns_p50"] = sample_quantile(s.durations(SpanName::kTreePut), 0.5);
  m["tree.put_ns_p99"] = sample_quantile(s.durations(SpanName::kTreePut), 0.99);
  m["tree.scan_ns_p50"] = sample_quantile(s.durations(SpanName::kTreeScan), 0.5);
  m["tree.scan_ns_p99"] = sample_quantile(s.durations(SpanName::kTreeScan), 0.99);
  m["store.execute_ns_p50"] = sample_quantile(s.durations(SpanName::kStoreExecute), 0.5);
  m["store.execute_ns_p99"] =
      sample_quantile(s.durations(SpanName::kStoreExecute), 0.99);
  m["store.self_ns_p50"] = sample_quantile(s.self_times(SpanName::kStoreExecute), 0.5);
  m["workload.next_ns"] = sample_quantile(s.durations(SpanName::kWorkloadNext), 0.5);
  m["workload.key_text_ns"] = sample_quantile(s.durations(SpanName::kKeyText), 0.5);
  m["trace.ops"] = static_cast<double>(s.ops);
  return m;
}

/// Spans kept per traced client: every kTracePeriod-th measured op.
constexpr std::uint32_t kTracePeriod = 16;
constexpr std::size_t kSpanCapacity = 1u << 17;

/// Drives the repetitions shared by both native workloads. `run_rep(ctx)`
/// performs one repetition and returns its NativeRep; a traced repetition
/// also fills ctx.span_metrics.
template <class RunRep>
Report drive(const RunArgs& args, const char* label, RunRep run_rep) {
  Report rep;
  const int reps = args.trace ? 4 : 3;
  RepContext ctx;
  ctx.window_s = args.seconds / (reps * kWindows);
  const auto lat_cap = static_cast<std::size_t>(
      ctx.window_s * kWindows * kMaxClientRate /
      static_cast<double>(kLatencyPeriod));
  ctx.lat.assign(kThreads, std::vector<std::uint32_t>(lat_cap, 0));
  std::vector<MetricMap> counter_reps, span_reps;
  // Window samples of untraced and traced repetitions, per metric.
  std::map<std::string, std::vector<double>> windows, traced_windows;
  std::vector<double> setup_times, bytes_per_key;
  std::size_t lat_samples = 0;
  for (int i = 0; i < reps; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    ctx.traced = traced;
    ctx.logs.clear();
    ctx.span_metrics.clear();
    if (traced) {
      for (int t = 0; t < kThreads; ++t) {
        ctx.logs.push_back(std::make_unique<SpanLog>(kTracePeriod, kSpanCapacity));
      }
    }
    NativeRep r = run_rep(ctx);
    rep.attempted += r.ops_total;
    rep.failed += r.failed;
    rep.check(r.failed == 0, std::string(label) + ": " +
                                 std::to_string(r.failed) + " failed ops" +
                                 (r.first_failure.empty()
                                      ? std::string()
                                      : " (first: " + r.first_failure + ")"));
    rep.check(r.final_size == r.expected_size,
              std::string(label) + ": final size " +
                  std::to_string(r.final_size) + " equals |preload ∪ puts| = " +
                  std::to_string(r.expected_size));
    setup_times.push_back(r.setup_s);
    auto& win = traced ? traced_windows : windows;
    win["ops_per_s"].insert(win["ops_per_s"].end(), r.ops_per_s.begin(),
                            r.ops_per_s.end());
    win["lat_p50_us"].insert(win["lat_p50_us"].end(), r.lat_p50_us.begin(),
                             r.lat_p50_us.end());
    win["lat_p99_us"].insert(win["lat_p99_us"].end(), r.lat_p99_us.begin(),
                             r.lat_p99_us.end());
    char line[256];
    int len = std::snprintf(line, sizeof(line),
                            "%s: repetition %d%s setup_s=%.4f ops_per_s/window=",
                            label, i, traced ? " (traced)" : "", r.setup_s);
    for (const double v : r.ops_per_s) {
      len += std::snprintf(line + len, sizeof(line) - static_cast<std::size_t>(len),
                           " %.0f", v);
    }
    rep.note(line);
    if (traced) {
      std::vector<const SpanLog*> all;
      for (const auto& l : ctx.logs) all.push_back(l.get());
      SpanSummary s = summarize_spans(all);
      rep.check(s.bad_ops == 0, std::to_string(s.bad_ops) +
                                    " traced ops have inconsistent spans");
      MetricMap m = common_span_metrics(s);
      for (const auto& [k, v] : ctx.span_metrics) m[k] = v;
      span_reps.push_back(std::move(m));
      if (!args.spans_path.empty()) {
        rep.check(write_spans(args.spans_path, all),
                  "spans written to " + args.spans_path);
      }
    } else {
      counter_reps.push_back(counters_of(r));
      bytes_per_key.push_back(static_cast<double>(r.tree_bytes) /
                              static_cast<double>(r.final_size));
      lat_samples += r.lat_samples;
    }
  }
  for (auto& [name, values] : windows) {
    rep.end_to_end[name] = quantile(values, 0.5);
  }
  rep.end_to_end["host_ops_per_s"] = rep.end_to_end["ops_per_s"];
  rep.end_to_end["setup_s"] = quantile(setup_times, 0.5);
  rep.end_to_end["bytes_per_key"] = quantile(bytes_per_key, 0.5);
  rep.end_to_end["peak_rss_mb"] = peak_rss_mb();
  rep.per_layer = median_of(counter_reps);
  for (const auto& [k, v] : median_of(span_reps)) rep.per_layer[k] = v;
  if (args.trace) {
    const double u = quantile(windows["ops_per_s"], 0.5);
    const double t = quantile(traced_windows["ops_per_s"], 0.5);
    rep.per_layer["trace.overhead_pct"] = (u - t) / u * 100.0;
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s: %d clients; %d set-ups, each %.2f s warm-up then %d "
                "windows of %.2f s; %zu latency samples untraced",
                label, kThreads, reps, kWarmupS, kWindows, ctx.window_s,
                lat_samples);
  rep.note(buf);
  return rep;
}

// ---- kv-store ----

thread_local SpanLog* tl_log = nullptr;

/// Registry tree wrapped so the traced run records a tree span inside
/// ShardedStore::execute. Only traced repetitions install it.
class TracedTree final : public euno::trees::AnyTree<NativeCtx> {
 public:
  explicit TracedTree(std::unique_ptr<euno::trees::AnyTree<NativeCtx>> inner)
      : inner_(std::move(inner)) {}

  bool get(NativeCtx& c, euno::trees::Key k, euno::trees::Value* v) override {
    const int s = open(c, SpanName::kTreeGet);
    const bool hit = inner_->get(c, k, v);
    close(c, s);
    return hit;
  }
  void put(NativeCtx& c, euno::trees::Key k, euno::trees::Value v) override {
    const int s = open(c, SpanName::kTreePut);
    inner_->put(c, k, v);
    close(c, s);
  }
  bool erase(NativeCtx& c, euno::trees::Key k) override {
    return inner_->erase(c, k);
  }
  std::size_t scan(NativeCtx& c, euno::trees::Key start, std::size_t n,
                   euno::trees::KV* out) override {
    const int s = open(c, SpanName::kTreeScan);
    const std::size_t got = inner_->scan(c, start, n, out);
    close(c, s);
    return got;
  }
  void check_invariants() override { inner_->check_invariants(); }
  std::size_t size_slow() override { return inner_->size_slow(); }
  void destroy(NativeCtx& c) override { inner_->destroy(c); }

 private:
  static int open(NativeCtx& c, SpanName n) {
    SpanLog* log = tl_log;
    return log != nullptr && log->recording() ? log->open(n, c.now()) : -1;
  }
  static void close(NativeCtx& c, int s) {
    if (s >= 0) tl_log->close(s, c.now());
  }

  std::unique_ptr<euno::trees::AnyTree<NativeCtx>> inner_;
};

using Store = euno::store::ShardedStore<NativeCtx>;

euno::workload::WorkloadSpec kv_spec(std::uint64_t seed) {
  euno::workload::WorkloadSpec w;
  w.key_range = kKeyRange;
  w.mix = euno::workload::OpMix{50, 50, 0, 0};
  w.dist = euno::workload::DistKind::kZipfian;
  w.dist_param = 0.99;
  w.scramble = false;
  w.seed = seed;
  return w;
}

template <bool kTraced>
void kv_client(Store& st, NativeCtx& c, const euno::workload::WorkloadSpec& w,
               const std::vector<bool>& preloaded, int t,
               const std::atomic<int>& phase, ClientResult& r, SpanLog* log) {
  euno::workload::OpStream stream(w, t);
  std::vector<euno::trees::KV> scan_buf(w.scan_len);
  if constexpr (kTraced) {
    tl_log = log;
    r.shard_ops.assign(static_cast<std::size_t>(st.shards()), 0);
  }
  PhaseTracker pt;
  std::uint64_t i = 0;
  for (; pt.step(phase, i, r); ++i) {
    const bool timed = pt.measuring() && i % kLatencyPeriod == 0;
    int op_span = -1;
    int next_span = -1;
    if constexpr (kTraced) {
      if (pt.measuring() && log->begin_op(i)) {
        op_span = log->open(SpanName::kOp, c.now());
        next_span = log->open(SpanName::kWorkloadNext, c.now());
      }
    }
    const Op op = stream.next();
    int exec_span = -1;
    if constexpr (kTraced) {
      if (op_span >= 0) {
        const std::uint64_t now = c.now();
        log->close(next_span, now);
        exec_span = log->open(SpanName::kStoreExecute, now);
      }
      if (pt.measuring()) r.shard_ops[static_cast<std::size_t>(st.shard_of(op.key))]++;
    }
    const std::uint64_t t0 = timed ? c.now() : 0;
    const euno::store::OpResult res = st.execute(c, op, 0, scan_buf.data());
    if (timed) record_latency(r, c.now() - t0);
    if constexpr (kTraced) {
      if (op_span >= 0) {
        const std::uint64_t now = c.now();
        log->close(exec_span, now);
        log->close(op_span, now);
      }
    }
    const bool missing_preloaded = res.status == euno::store::StoreStatus::kNotFound &&
                                   op.type == OpType::kGet && preloaded[op.key];
    if ((res.status != euno::store::StoreStatus::kOk &&
         res.status != euno::store::StoreStatus::kNotFound) ||
        missing_preloaded) {
      if (r.failed++ == 0) {
        r.first_failure = missing_preloaded
                              ? "get missed preloaded key " + std::to_string(op.key)
                              : std::string("status ") +
                                    euno::store::store_status_name(res.status);
      }
    }
  }
  r.ops_total = i;
  r.stats = c.stats();
  if constexpr (kTraced) tl_log = nullptr;
}

}  // namespace

Report run_kv_store(const RunArgs& args) {
  const euno::trees::TreeEntry* entry =
      euno::trees::tree_registry().by_name("euno");
  if (entry == nullptr || entry->make_native == nullptr) {
    Report rep;
    rep.check(false, "registry has a native factory for euno");
    return rep;
  }
  const euno::workload::WorkloadSpec w = kv_spec(args.seed);
  const std::vector<bool> preloaded = preloaded_keys(w);
  euno::store::StoreOptions opt;
  opt.shards = 8;
  opt.shedding = true;  // admission gate on ...
  opt.inflight_limit = kThreads;  // ... with a cap no closed loop can reach

  return drive(args, "kv-store", [&](RepContext& ctx) {
    const bool traced = ctx.traced;
    NativeRep r;
    euno::MemStats::instance().reset();
    const auto setup0 = std::chrono::steady_clock::now();
    euno::ctx::NativeEnv env(64);
    NativeCtx setup(env, 0);
    const euno::trees::TreeBuildOptions build{};
    Store st(setup, opt, euno::store::StoreRuntime{1e9},
             [&](NativeCtx& c) -> std::unique_ptr<euno::trees::AnyTree<NativeCtx>> {
               auto tree = entry->make_native(c, build);
               if (!traced) return tree;
               return std::make_unique<TracedTree>(std::move(tree));
             });
    euno::Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
    for (std::uint64_t rank = 0; rank < w.key_range; rank += 2) {
      st.preload_put(setup,
                     euno::workload::rank_to_key(rank, w.key_range, w.scramble),
                     rng.next());
    }
    r.setup_s = seconds_since(setup0);

    std::vector<ClientResult> clients;
    const auto bounds = run_clients(
        ctx, clients,
        [&](int t, const std::atomic<int>& phase, ClientResult& cr) {
          NativeCtx c(env, t);
          if (traced) {
            kv_client<true>(st, c, w, preloaded, t, phase, cr,
                            ctx.logs[static_cast<std::size_t>(t)].get());
          } else {
            kv_client<false>(st, c, w, preloaded, t, phase, cr, nullptr);
          }
        });
    fold_clients(clients, bounds, r);
    st.check_invariants();  // aborts the process on a structural violation
    r.final_size = st.size_slow();
    r.expected_size = expected_size(w, preloaded, clients);
    snapshot_memory(r);
    const euno::store::StoreTotals tot = st.accumulate();
    ctx.span_metrics["store.shed_frac"] =
        static_cast<double>(tot.shed) /
        static_cast<double>(std::max<std::uint64_t>(1, tot.admitted + tot.shed));
    if (traced) {
      std::vector<double> per_shard(static_cast<std::size_t>(st.shards()), 0);
      for (const ClientResult& c : clients) {
        for (std::size_t s = 0; s < c.shard_ops.size(); ++s) {
          per_shard[s] += static_cast<double>(c.shard_ops[s]);
        }
      }
      double sum = 0, busiest = 0;
      for (const double v : per_shard) {
        sum += v;
        busiest = std::max(busiest, v);
      }
      ctx.span_metrics["store.shard_skew"] =
          sum > 0 ? busiest / (sum / static_cast<double>(per_shard.size())) : 0;
    }
    NativeCtx teardown(env, 0);
    st.destroy(teardown);
    return r;
  });
}

// ---- str-scan ----

namespace {

euno::workload::WorkloadSpec str_spec(std::uint64_t seed) {
  euno::workload::WorkloadSpec w = euno::workload::WorkloadSpec::ycsb_e();
  w.key_range = kKeyRange;
  w.scan_len = 16;
  w.seed = seed;
  w.key_domain = euno::workload::KeyDomain::kBytes;
  w.key_style = euno::workload::KeyStyle::kUrl;
  w.value_bytes = 32;
  return w;
}

/// Output check of one scan: at most scan_len records, keys strictly
/// increasing and none below the start key.
struct ScanCheck {
  std::string start;
  std::string prev;
  std::size_t count = 0;
  bool ok = true;

  void begin(const std::string& key) {
    start = key;
    prev.clear();
    count = 0;
    ok = true;
  }
  void on(BytesView k) {
    if (euno::trees::node::bytes_compare(k.data, k.len, start.data(),
                                         start.size()) < 0) {
      ok = false;
    }
    if (count > 0 && euno::trees::node::bytes_compare(k.data, k.len, prev.data(),
                                                      prev.size()) <= 0) {
      ok = false;
    }
    prev.assign(k.data, k.len);
    ++count;
  }
  bool finish(std::size_t returned, std::size_t limit) const {
    return ok && count == returned && returned <= limit;
  }
};

template <bool kTraced>
void str_client(euno::trees::AnyStrTree<NativeCtx>& tree, NativeCtx& c,
                const euno::workload::WorkloadSpec& w,
                const euno::workload::StringKeySpace& ks, int t,
                const std::atomic<int>& phase, ClientResult& r, SpanLog* log) {
  euno::workload::OpStream stream(w, t);
  ScanCheck chk;
  const euno::trees::node::StrEmitFn emit =
      [&chk](BytesView k, euno::trees::Value, BytesView) { chk.on(k); };
  PhaseTracker pt;
  std::uint64_t i = 0;
  std::string payload;
  for (; pt.step(phase, i, r); ++i) {
    const bool timed = pt.measuring() && i % kLatencyPeriod == 0;
    bool traced_op = false;
    int op_span = -1;
    int s = -1;
    if constexpr (kTraced) {
      traced_op = pt.measuring() && log->begin_op(i);
      if (traced_op) {
        op_span = log->open(SpanName::kOp, c.now());
        s = log->open(SpanName::kWorkloadNext, c.now());
      }
    }
    const Op op = stream.next();
    if constexpr (kTraced) {
      if (traced_op) {
        const std::uint64_t now = c.now();
        log->close(s, now);
        s = log->open(SpanName::kKeyText, now);
      }
    }
    const std::string key = ks.key_of(op.key);
    if (op.type == OpType::kPut) {
      payload = ks.payload_of(op.key, op.value, w.value_bytes);
    }
    const BytesView kv(key.data(), key.size());
    std::uint64_t t0 = 0;
    if constexpr (kTraced) {
      if (traced_op) {
        const std::uint64_t now = c.now();
        log->close(s, now);
        s = log->open(op.type == OpType::kScan ? SpanName::kTreeScan
                                               : SpanName::kTreePut,
                      now);
        t0 = now;
      }
    }
    if (timed && !traced_op) t0 = c.now();
    if (op.type == OpType::kScan) {
      chk.begin(key);
      const std::size_t n = tree.scan(c, kv, w.scan_len, emit);
      if (timed) record_latency(r, c.now() - t0);
      r.scans++;
      r.scan_records += n;
      if (!chk.finish(n, w.scan_len)) {
        if (r.failed++ == 0) r.first_failure = "scan from " + key + " out of order";
      }
    } else {
      tree.put(c, kv, op.value, BytesView(payload.data(), payload.size()));
      if (timed) record_latency(r, c.now() - t0);
    }
    if constexpr (kTraced) {
      if (traced_op) {
        const std::uint64_t now = c.now();
        log->close(s, now);
        log->close(op_span, now);
      }
    }
  }
  r.ops_total = i;
  r.stats = c.stats();
}

}  // namespace

Report run_str_scan(const RunArgs& args) {
  const euno::trees::TreeEntry* entry =
      euno::trees::tree_registry().by_name("str-masstree");
  if (entry == nullptr || entry->make_native_str == nullptr) {
    Report rep;
    rep.check(false, "registry has a native string factory for str-masstree");
    return rep;
  }
  const euno::workload::WorkloadSpec w = str_spec(args.seed);
  const euno::workload::StringKeySpace ks(w.key_style, w.seed);
  const std::vector<bool> preloaded = preloaded_keys(w);
  bool boxes_ok = true;

  Report rep = drive(args, "str-scan", [&](RepContext& ctx) {
    const bool traced = ctx.traced;
    NativeRep r;
    euno::MemStats::instance().reset();
    const auto setup0 = std::chrono::steady_clock::now();
    euno::ctx::NativeEnv env(64);
    NativeCtx setup(env, 0);
    auto tree = entry->make_native_str(setup, euno::trees::TreeBuildOptions{});
    euno::Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
    for (std::uint64_t rank = 0; rank < w.key_range; rank += 2) {
      const std::uint64_t id =
          euno::workload::rank_to_key(rank, w.key_range, w.scramble);
      const std::uint64_t v = rng.next();
      const std::string key = ks.key_of(id);
      const std::string payload = ks.payload_of(id, v, w.value_bytes);
      tree->put(setup, BytesView(key.data(), key.size()), v,
                BytesView(payload.data(), payload.size()));
    }
    r.setup_s = seconds_since(setup0);

    std::vector<ClientResult> clients;
    const auto bounds = run_clients(
        ctx, clients,
        [&](int t, const std::atomic<int>& phase, ClientResult& cr) {
          NativeCtx c(env, t);
          if (traced) {
            str_client<true>(*tree, c, w, ks, t, phase, cr,
                             ctx.logs[static_cast<std::size_t>(t)].get());
          } else {
            str_client<false>(*tree, c, w, ks, t, phase, cr, nullptr);
          }
        });
    fold_clients(clients, bounds, r);
    tree->check_invariants();  // aborts the process on a structural violation
    r.final_size = tree->size_slow();
    r.expected_size = expected_size(w, preloaded, clients);
    snapshot_memory(r);
    const std::uint64_t retired = tree->retired_boxes();
    const std::uint64_t freed = tree->freed_boxes();
    boxes_ok = boxes_ok && freed <= retired;
    ctx.span_metrics["epoch.unfreed_boxes"] = static_cast<double>(retired - freed);
    ctx.span_metrics["epoch.retired_per_op"] =
        static_cast<double>(retired) / static_cast<double>(r.ops_total);
    std::uint64_t scans = 0, records = 0;
    for (const ClientResult& c : clients) {
      scans += c.scans;
      records += c.scan_records;
    }
    ctx.span_metrics["tree.scan_records_per_op"] =
        scans == 0 ? 0 : static_cast<double>(records) / static_cast<double>(scans);
    NativeCtx teardown(env, 0);
    tree->destroy(teardown);
    return r;
  });
  rep.check(boxes_ok, "str-scan: freed boxes <= retired boxes");
  return rep;
}

}  // namespace perfbench
