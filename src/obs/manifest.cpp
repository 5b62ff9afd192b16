#include "obs/manifest.hpp"

#include <cstdio>

#include "htm/abort.hpp"
#include "obs/json.hpp"
#include "workload/distributions.hpp"

namespace euno::obs {

namespace {

void write_histogram(JsonWriter& w, const char* name,
                     const LatencyHistogram& h) {
  w.key(name);
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum", h.sum());
  w.kv("max", h.max());
  w.kv("mean", h.mean(), 3);
  // Sampled histograms only (histogram.hpp header comment): the exact
  // record count is `count` above; the bucket counts are a 1-in-2^shift
  // deterministic sample, each carrying 2^shift weight, summing to
  // `sample_weight`. Scale bucket counts by count/sample_weight to
  // reconstruct estimated exact counts. Omitted entirely for unsampled
  // histograms so small (golden) manifests are byte-identical to the
  // pre-sampling writer.
  if (h.sampled()) {
    w.kv("sample_shift", static_cast<std::uint64_t>(h.sample_shift()));
    w.kv("sample_weight", h.bucket_weight());
  }
  w.kv("p50", h.percentile(0.50));
  w.kv("p90", h.percentile(0.90));
  w.kv("p99", h.percentile(0.99));
  w.kv("p999", h.percentile(0.999));
  // Compact sparse form: [lower_bound, count] per non-empty bucket.
  w.key("buckets");
  w.begin_array();
  h.for_each_bucket([&](std::uint64_t lower, std::uint64_t count) {
    w.begin_array();
    w.value(lower);
    w.value(count);
    w.end_array();
  });
  w.end_array();
  w.end_object();
}

void write_spec(JsonWriter& w, const driver::ExperimentSpec& s) {
  w.key("spec");
  w.begin_object();
  w.kv("tree", driver::tree_display_name(s.tree));
  w.kv("threads", s.threads);
  w.kv("ops_per_thread", s.ops_per_thread);
  w.kv("preload", s.preload);
  w.kv("preload_stride", static_cast<std::uint64_t>(s.preload_stride));
  w.kv("ghz", s.ghz, 3);
  w.key("workload");
  w.begin_object();
  w.kv("key_range", s.workload.key_range);
  w.kv("dist", workload::dist_kind_name(s.workload.dist));
  w.kv("dist_param", s.workload.dist_param, 4);
  w.kv("scramble", s.workload.scramble);
  w.kv("scan_len", static_cast<std::uint64_t>(s.workload.scan_len));
  w.kv("seed", s.workload.seed);
  // Conditional keys: bytes-domain runs only, so u64 manifests — including
  // every golden fixture — stay byte-identical.
  if (s.workload.key_domain == workload::KeyDomain::kBytes) {
    w.kv("key_domain", workload::key_domain_name(s.workload.key_domain));
    w.kv("key_style", workload::key_style_name(s.workload.key_style));
    w.kv("value_bytes", static_cast<std::uint64_t>(s.workload.value_bytes));
  }
  w.key("mix");
  w.begin_object();
  w.kv("get_pct", s.workload.mix.get_pct);
  w.kv("put_pct", s.workload.mix.put_pct);
  w.kv("scan_pct", s.workload.mix.scan_pct);
  w.kv("delete_pct", s.workload.mix.delete_pct);
  w.end_object();
  w.end_object();
  w.key("policy");
  w.begin_object();
  w.kv("conflict_retries", s.policy.conflict_retries);
  w.kv("capacity_retries", s.policy.capacity_retries);
  w.kv("other_retries", s.policy.other_retries);
  w.kv("backoff", s.policy.backoff);
  w.kv("backoff_base", static_cast<std::uint64_t>(s.policy.backoff_base));
  w.kv("backoff_cap", static_cast<std::uint64_t>(s.policy.backoff_cap));
  w.kv("anti_lemming", s.policy.anti_lemming);
  w.kv("rearm_grace", static_cast<std::uint64_t>(s.policy.rearm_grace));
  w.kv("starvation_threshold",
       static_cast<std::uint64_t>(s.policy.starvation_threshold));
  w.kv("lock_wait_spin_cap",
       static_cast<std::uint64_t>(s.policy.lock_wait_spin_cap));
  w.kv("lock_wait_timeout_limit",
       static_cast<std::uint64_t>(s.policy.lock_wait_timeout_limit));
  w.kv("health_window", static_cast<std::uint64_t>(s.policy.health_window));
  w.kv("health_min_commit_pct",
       static_cast<std::uint64_t>(s.policy.health_min_commit_pct));
  w.end_object();
  w.key("machine");
  w.begin_object();
  w.kv("write_capacity_lines",
       static_cast<std::uint64_t>(s.machine.htm.write_capacity_lines));
  w.kv("read_capacity_lines",
       static_cast<std::uint64_t>(s.machine.htm.read_capacity_lines));
  w.kv("abort_penalty", static_cast<std::uint64_t>(s.machine.htm.abort_penalty));
  w.kv("mutual_abort_pct",
       static_cast<std::uint64_t>(s.machine.htm.mutual_abort_pct));
  w.kv("arena_bytes", s.machine.arena_bytes);
  if (s.machine.fault.any()) {
    const sim::FaultConfig& fc = s.machine.fault;
    w.key("fault");
    w.begin_object();
    w.kv("seed", fc.seed);
    w.kv("spurious_abort_bp", static_cast<std::uint64_t>(fc.spurious_abort_bp));
    w.kv("lock_hold_delay_pct",
         static_cast<std::uint64_t>(fc.lock_hold_delay_pct));
    w.kv("lock_hold_delay_cycles",
         static_cast<std::uint64_t>(fc.lock_hold_delay_cycles));
    w.key("capacity_schedule");
    w.begin_array();
    for (const auto& p : fc.capacity_schedule) {
      w.begin_object();
      w.kv("at_step", p.at_step);
      w.kv("write_lines", static_cast<std::uint64_t>(p.write_lines));
      w.kv("read_lines", static_cast<std::uint64_t>(p.read_lines));
      w.end_object();
    }
    w.end_array();
    w.key("bursts");
    w.begin_array();
    for (const auto& b : fc.bursts) {
      w.begin_object();
      w.kv("at_step", b.at_step);
      w.kv("length", b.length);
      w.kv("abort_pct", static_cast<std::uint64_t>(b.abort_pct));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  // Conditional section: emitted only for store-enabled runs, so every
  // manifest from the single-tree path — including every golden fixture —
  // stays byte-identical.
  if (s.store.enabled()) {
    w.key("store");
    w.begin_object();
    w.kv("shards", s.store.shards);
    w.kv("offered_load_mops", s.store.offered_load_mops, 4);
    w.kv("deadline_us", s.store.deadline_us);
    w.kv("shedding", s.store.shedding);
    w.kv("inflight_limit", static_cast<std::uint64_t>(s.store.inflight_limit));
    w.kv("shard_rate_mops", s.store.shard_rate_mops, 4);
    w.kv("burst", static_cast<std::uint64_t>(s.store.burst));
    w.kv("monitor_window", static_cast<std::uint64_t>(s.store.monitor_window));
    w.kv("shed_on_pct", static_cast<std::uint64_t>(s.store.shed_on_pct));
    w.kv("degrade_windows",
         static_cast<std::uint64_t>(s.store.degrade_windows));
    w.kv("think", s.store.think);
    w.kv("drift_to", s.store.drift_to, 4);
    w.end_object();
  }
  w.key("obs");
  w.begin_object();
  w.kv("latency", s.obs.latency);
  w.kv("contention", s.obs.contention);
  w.kv("trace", s.obs.trace);
  // Keys below are conditional so manifests from runs predating these
  // channels — including every golden fixture — stay byte-identical.
  if (s.obs.metrics_interval != 0) {
    w.kv("metrics_interval", s.obs.metrics_interval);
  }
  if (s.obs.perf) w.kv("perf", true);
  w.end_object();
  w.end_object();
}

void write_timeseries(JsonWriter& w, const TimeSeries& ts) {
  w.key("timeseries");
  w.begin_object();
  w.kv("interval", ts.interval);
  w.kv("unit", ts.unit.c_str());
  w.key("windows");
  w.begin_array();
  for (const auto& win : ts.windows) {
    w.begin_object();
    w.kv("index", win.index);
    w.kv("ops", win.ops);
    w.kv("aborts", win.aborts);
    w.kv("fallbacks", win.fallbacks);
    w.kv("lat_mean",
         win.ops == 0 ? 0.0
                      : static_cast<double>(win.lat_sum) /
                            static_cast<double>(win.ops),
         1);
    w.kv("lat_max", win.lat_max);
    w.kv("lat_p50", win.lat_p50);
    w.kv("lat_p99", win.lat_p99);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_perf(JsonWriter& w, const PerfSample& p) {
  w.key("perf");
  w.begin_object();
  w.key("phases");
  w.begin_array();
  for (const auto& phase : p.phases) {
    w.begin_object();
    w.kv("phase", phase.phase.c_str());
    w.key("counters");
    w.begin_array();
    for (const auto& c : phase.counters) {
      w.begin_object();
      w.kv("name", c.name.c_str());
      w.kv("available", c.available);
      if (c.available) {
        w.kv("value", c.value);
      } else {
        w.kv("error", c.error.c_str());
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_result(JsonWriter& w, const driver::ExperimentResult& r) {
  w.key("result");
  w.begin_object();
  w.kv("ops", r.ops);
  w.kv("sim_cycles", r.sim_cycles);
  w.kv("throughput_mops", r.throughput_mops, 4);
  w.kv("aborts_per_op", r.aborts_per_op, 5);
  w.kv("commits", r.commits);
  w.kv("attempts", r.attempts);
  w.kv("fallbacks", r.fallbacks);
  w.kv("aborts_total", r.aborts_total);
  w.kv("aborts_conflict", r.aborts_conflict);
  w.kv("aborts_capacity", r.aborts_capacity);
  w.kv("aborts_other", r.aborts_other);
  w.kv("conflicts_true_same_record", r.conflicts_true_same_record);
  w.kv("conflicts_false_record", r.conflicts_false_record);
  w.kv("conflicts_false_metadata", r.conflicts_false_metadata);
  w.kv("conflicts_lock_subscription", r.conflicts_lock_subscription);
  w.kv("upper_aborts", r.upper_aborts);
  w.kv("lower_aborts", r.lower_aborts);
  w.kv("mono_aborts", r.mono_aborts);
  w.kv("lock_wait_cycles", r.lock_wait_cycles);
  w.kv("lock_wait_timeouts", r.lock_wait_timeouts);
  w.kv("backoff_cycles", r.backoff_cycles);
  w.kv("starvation_escapes", r.starvation_escapes);
  w.kv("degradations", r.degradations);
  w.kv("unsubscribed_attempts", r.unsubscribed_attempts);
  // Three-path policy counters are conditional keys: they are nonzero only
  // for the policy that produces them (3path-bptree), so manifests from
  // every other tree — including every pre-existing golden fixture — stay
  // byte-identical.
  if (r.middle_attempts != 0) w.kv("middle_attempts", r.middle_attempts);
  if (r.middle_commits != 0) w.kv("middle_commits", r.middle_commits);
  if (r.slow_path_ops != 0) w.kv("slow_path_ops", r.slow_path_ops);
  // Sharded-store robustness counters: conditional for the same reason.
  // admitted_ops keys the group (nonzero for any store run that admitted
  // anything); the zero-valued companions of a store run still matter for
  // round-tripping, so they are gated on admitted_ops rather than their own
  // value — but a run with admitted_ops == 0 and any nonzero companion (a
  // fully-shedding store) must not lose them either, hence the any-nonzero
  // gate.
  if (r.admitted_ops != 0 || r.shed_ops != 0 || r.deadline_exceeded != 0 ||
      r.shard_degradations != 0) {
    w.kv("admitted_ops", r.admitted_ops);
    w.kv("shed_ops", r.shed_ops);
    w.kv("deadline_exceeded", r.deadline_exceeded);
    w.kv("shard_degradations", r.shard_degradations);
  }
  w.kv("faults_spurious", r.faults_spurious);
  w.kv("faults_burst", r.faults_burst);
  w.kv("faults_lock_delay", r.faults_lock_delay);
  w.kv("fault_capacity_phases", r.fault_capacity_phases);
  w.kv("mem_accesses", r.mem_accesses);
  w.kv("instructions_per_op", r.instructions_per_op, 3);
  w.kv("wasted_cycle_frac", r.wasted_cycle_frac, 5);
  w.kv("mem_total", r.mem_total);
  w.kv("mem_reserved", r.mem_reserved);
  w.kv("mem_ccm", r.mem_ccm);
  // Conditional: nonzero only when the run stored out-of-line boxes (bytes
  // domain), keeping u64 manifests — and every golden — byte-identical.
  if (r.suffix_bytes != 0) w.kv("suffix_bytes", r.suffix_bytes);
  w.kv("lat_p50", r.lat_p50, 1);
  w.kv("lat_p90", r.lat_p90, 1);
  w.kv("lat_p99", r.lat_p99, 1);
  w.kv("lat_p999", r.lat_p999, 1);
  write_histogram(w, "latency_cycles", r.op_latency);
  write_histogram(w, "abort_wasted_cycles", r.abort_wasted);
  w.key("hot_lines");
  w.begin_array();
  for (const auto& hl : r.hot_lines) {
    w.begin_object();
    w.kv("line", hl.line);
    w.kv("kind", hl.kind);
    w.kv("label", hl.label());
    w.kv("node_id", static_cast<std::uint64_t>(hl.node_id));
    w.kv("node_level", hl.node_level == kNoLevel
                           ? static_cast<std::int64_t>(-1)
                           : static_cast<std::int64_t>(hl.node_level));
    w.kv("aborts", hl.aborts);
    w.key("conflicts");
    w.begin_object();
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(htm::ConflictKind::kCount); ++k) {
      w.kv(std::string(
               htm::conflict_kind_name(static_cast<htm::ConflictKind>(k)))
               .c_str(),
           hl.conflicts[k]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (r.timeseries.enabled()) write_timeseries(w, r.timeseries);
  if (r.perf.attempted) write_perf(w, r.perf);
  w.end_object();
}

}  // namespace

bool write_manifest(const std::string& path, const std::string& bench,
                    const driver::ExperimentSpec* specs,
                    const driver::ExperimentResult* results, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  JsonWriter w(f);
  w.begin_object();
  w.kv("schema", kManifestSchema);
  w.kv("bench", bench.c_str());
  w.kv("points", static_cast<std::uint64_t>(n));
  w.key("sweep");
  w.begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.begin_object();
    write_spec(w, specs[i]);
    write_result(w, results[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fputc('\n', f);
  const bool ok = w.balanced() && std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace euno::obs
