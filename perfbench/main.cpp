// perfbench: the repository benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH]
//
// Prints a human-readable report (host record, every metric with its unit,
// output-check results) and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, measured without tracing; with --trace 1 they are
// the per-layer set from a traced run (spans written to --spans). Exit code
// 0 when every output check passed, 3 when one failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

/// The workloads. Each is closed loop: a client sends its next op only
/// after the previous one returned. (An open-loop store run at a fixed
/// 1.0 Mops measured the scheduler preempting spin-lock holders, not the
/// program: sojourn p99 ranged 0.70 ms to 512 ms across runs.)
struct Workload {
  const char* name;
  std::function<Report(const RunArgs&)> run;
};

const Workload kWorkloads[] = {
    // sim-hot — the paper's headline regime: Euno, 16 simulated cores, Zipf
    // θ=0.99 over consecutive keys, 50/50 get/put, 1 Mi keys with half
    // preloaded at stride 2. Aborts, retries, CCM and the fallback path do
    // most of the work here.
    //   sim.host_ns_per_access      -> host_ops_per_s
    //   sim.accesses/instructions   -> ops_per_s (mainly on sim-low)
    //   htm.* (large here)          -> ops_per_s, lat_p99_us
    //   tree.* spans (sim ns)       -> lat_p50_us, lat_p99_us
    //   mem.*                       -> bytes_per_key, peak_rss_mb
    //   node.* kernels              -> no change: SimCtx keeps scalar loops
    {"sim-hot", [](const RunArgs& a) { return run_sim_workload(a, 0.99); }},
    // sim-low — same as sim-hot at θ=0.2: zero aborts, so the uncontended
    // fast path (segment probes, CCM upkeep) carries the cost. An abort-path
    // gain should move sim-hot and not this; a fast-path gain shows here.
    //   sim.accesses/instructions   -> ops_per_s, lat_p50_us
    //   htm.* (near zero)           -> no change expected
    {"sim-low", [](const RunArgs& a) { return run_sim_workload(a, 0.2); }},
    // kv-store — native, 4 clients -> ShardedStore::execute, 8 Euno shards,
    // u64 Zipf θ=0.99 over consecutive keys, 50/50, 1 Mi keys half
    // preloaded (~34 MB of tree: above L2, inside L3). Admission gate on
    // with an inflight cap of one per client, no token bucket, no deadlines:
    // nothing may be shed, so any failed op is a regression. The only
    // workload through store routing/admission and the per-shard fallback
    // locks every native op takes on a host without RTM.
    //   store.execute/self, skew    -> lat_p50_us, ops_per_s
    //   htm.fallbacks/lock spins    -> ops_per_s, lat_p99_us
    //   tree.get/put, node.*        -> ops_per_s, lat_*
    //   mem.*                       -> bytes_per_key, peak_rss_mb
    //   workload.next               -> harness share (never the program's)
    {"kv-store", run_kv_store},
    // str-scan — native, 4 threads directly on str-masstree (OLC), url
    // keys, YCSB-E (95% scans of 16, 5% inserts), 1 Mi keys half preloaded
    // (~80 MB with suffix boxes). Direct on the tree because a store scan
    // only visits the start key's shard; OLC because str-htm-bptree would
    // only re-measure its global fallback lock on a host without RTM. The
    // only workload through the bytes key layer, deferred scan emission and
    // box reclamation.
    //   tree.scan, scan_records     -> ops_per_s, lat_*
    //   mem.suffix_mb, epoch.*      -> bytes_per_key, peak_rss_mb
    //   workload.key_text           -> harness share (never the program's)
    {"str-scan", run_str_scan},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-hot|sim-low|kv-store|str-scan> [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH]\n",
               msg);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void print_metric(const char* name, double value, const char* unit) {
  std::printf("  %-36s %.6g %s\n", name, value, unit);
}

/// Emits the requested metric class in catalogue order. End-to-end metrics
/// must all be present; a per-layer metric the workload never touched is 0.
bool emit(const std::vector<MetricDef>& defs, MetricMap& values,
          bool missing_is_zero, std::string* json) {
  bool ok = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      if (!missing_is_zero) {
        std::printf("  %-36s MISSING\n", d.name);
        ok = false;
        continue;
      }
      it = values.emplace(d.name, 0.0).first;
    }
    print_metric(d.name, it->second, d.unit);
    if (!std::isfinite(it->second)) ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json->empty() ? "" : ", ", d.name,
                  std::isfinite(it->second) ? it->second : 0.0, d.unit);
    *json += buf;
  }
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", wl->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("%s\n", host_record().c_str());
  std::fflush(stdout);
  Report rep = wl->run(args);
  if (args.trace) {
    // The node-search kernels are a layer of their own, timed the same way
    // in every traced run (the sim-* trees keep SimCtx's scalar loops).
    measure_node_kernels(args.seed, &rep.per_layer["node.count_le_ns"],
                         &rep.per_layer["node.find_eq_ns"]);
  }
  for (const std::string& line : rep.lines) std::printf("%s\n", line.c_str());

  std::string json;
  std::printf("end-to-end%s:\n", args.trace ? " (traced run; not emitted)" : "");
  std::string e2e_json;
  bool ok = emit(kEndToEnd, rep.end_to_end, false, &e2e_json);
  const double failed_frac = rep.attempted == 0
                                 ? 1.0
                                 : static_cast<double>(rep.failed) /
                                       static_cast<double>(rep.attempted);
  print_metric("failed_op_frac", failed_frac, "ratio");
  if (args.trace) {
    std::printf("per-layer:\n");
    ok = emit(kPerLayer, rep.per_layer, true, &json) && ok;
  } else {
    json = e2e_json;
  }
  const std::size_t printed = rep.lines.size();
  rep.check(ok, "every metric is present and finite");
  rep.check(rep.attempted > 0, "at least one op attempted");
  for (std::size_t i = printed; i < rep.lines.size(); ++i) {
    std::printf("%s\n", rep.lines[i].c_str());
  }
  std::printf("%s\n", rep.correct ? "checks: all passed" : "checks: FAILED");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), json.c_str());
  return rep.correct ? 0 : 3;
}
