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
  // The scalars, by the table's order and emit rules (driver::Emit).
  bool store_run = false;
  for (const auto& s : driver::kResultScalars) {
    store_run |= s.emit == driver::Emit::kStoreGroup && s.nonzero(r);
  }
  for (const auto& s : driver::kResultScalars) {
    if (s.emit == driver::Emit::kNever ||
        (s.emit == driver::Emit::kNonzero && !s.nonzero(r)) ||
        (s.emit == driver::Emit::kStoreGroup && !store_run)) {
      continue;
    }
    if (s.u64 != nullptr) {
      w.kv(s.name, r.*s.u64);
    } else {
      w.kv(s.name, r.*s.f64, s.precision);
    }
  }
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
