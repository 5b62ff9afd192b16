#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "htm/rtm.hpp"
#include "trees/node/simd_search.hpp"
#include "util/rng.hpp"
#include "util/tsc.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},
    {"host_ops_per_s", "1/s"},
    {"bytes_per_key", "B"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    // sim engine
    {"sim.host_ns_per_access", "ns"},
    {"sim.accesses_per_op", "count"},
    {"sim.instructions_per_op", "count"},
    // ctx/htm retry loop
    {"htm.attempts_per_op", "count"},
    {"htm.commit_frac", "ratio"},
    {"htm.aborts_per_op", "count"},
    {"htm.aborts_conflict_per_op", "count"},
    {"htm.aborts_capacity_per_op", "count"},
    {"htm.conflict_false_record_frac", "ratio"},
    {"htm.conflict_lock_subscription_frac", "ratio"},
    {"htm.upper_aborts_per_op", "count"},
    {"htm.lower_aborts_per_op", "count"},
    {"htm.fallbacks_per_op", "count"},
    {"htm.backoff_cycles_per_op", "cycles"},
    {"htm.wasted_cycle_frac", "ratio"},
    {"htm.lock_wait_cycles_per_op", "cycles"},
    {"htm.lock_wait_spins_per_op", "count"},
    // store
    {"store.execute_ns_p50", "ns"},
    {"store.execute_ns_p99", "ns"},
    {"store.self_ns_p50", "ns"},
    {"store.shard_skew", "ratio"},
    {"store.shed_frac", "ratio"},
    // trees (algo + node + key traits)
    {"tree.get_ns_p50", "ns"},
    {"tree.get_ns_p99", "ns"},
    {"tree.put_ns_p50", "ns"},
    {"tree.put_ns_p99", "ns"},
    {"tree.scan_ns_p50", "ns"},
    {"tree.scan_ns_p99", "ns"},
    {"tree.scan_records_per_op", "count"},
    {"node.count_le_ns", "ns"},
    {"node.find_eq_ns", "ns"},
    // util memory and epoch
    {"mem.tree_mb", "MB"},
    {"mem.ccm_mb", "MB"},
    {"mem.reserved_mb", "MB"},
    {"mem.suffix_mb", "MB"},
    {"epoch.retired_per_op", "count"},
    {"epoch.unfreed_boxes", "count"},
    // workload generator (the harness's own share)
    {"workload.next_ns", "ns"},
    {"workload.key_text_ns", "ns"},
    // tracing
    {"trace.overhead_pct", "%"},
    {"trace.ops", "count"},
};

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  lines.push_back("CHECK FAILED: " + what);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sample_quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const std::size_t idx =
      std::min(static_cast<std::size_t>(target), v.size() - 1);
  const double x = v[idx];
  const auto lo = std::lower_bound(v.begin(), v.end(), x) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), x) - v.begin();
  return x - 0.5 + (target - static_cast<double>(lo)) /
                       static_cast<double>(hi - lo);
}

MetricMap median_of(const std::vector<MetricMap>& reps) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& rep : reps) {
    for (const auto& [name, value] : rep) by_name[name].push_back(value);
  }
  MetricMap out;
  for (auto& [name, values] : by_name) out[name] = quantile(values, 0.5);
  return out;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_record() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "host: rtm_supported=%d simd_kernel=%s tsc_calibrated=%d "
                "tsc_ghz=%.3f nproc=%u build_type=%s",
                euno::htm::rtm_supported() ? 1 : 0,
                euno::trees::node::simd::active_kernels().name,
                euno::util::tsc_calibrated() ? 1 : 0, euno::util::tsc_ghz(),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  return buf;
}

void measure_node_kernels(std::uint64_t seed, double* count_le_ns,
                          double* find_eq_ns) {
  constexpr int kFanout = 16;
  constexpr int kProbes = 1 << 12;
  constexpr int kRounds = 512;
  euno::Xoshiro256 rng(seed ^ 0x6E0DEull);
  std::uint64_t keys[kFanout];
  std::uint64_t pairs[2 * kFanout];
  for (int i = 0; i < kFanout; ++i) {
    keys[i] = 2 * static_cast<std::uint64_t>(i) * 1000 + rng.next_bounded(1000);
    pairs[2 * i] = keys[i];
    pairs[2 * i + 1] = rng.next();
  }
  std::vector<std::uint64_t> probes(kProbes);
  for (auto& p : probes) {
    // Half the probes hit a stored key, half fall between keys.
    const auto i = static_cast<int>(rng.next_bounded(kFanout));
    p = rng.next_bounded(2) == 0 ? keys[i] : keys[i] + 1;
  }
  const auto& k = euno::trees::node::simd::active_kernels();
  long sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (const std::uint64_t p : probes) sink += k.count_le(keys, kFanout, p);
  }
  *count_le_ns = seconds_since(t0) * 1e9 / (double{kRounds} * kProbes);
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (const std::uint64_t p : probes) sink += k.find_eq_pairs(pairs, kFanout, p);
  }
  *find_eq_ns = seconds_since(t0) * 1e9 / (double{kRounds} * kProbes);
  // Keeps both loops observable so neither can be folded away.
  if (sink == 42) std::fputs("", stderr);
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOp: return "op";
    case SpanName::kWorkloadNext: return "workload.next";
    case SpanName::kKeyText: return "workload.key_text";
    case SpanName::kStoreExecute: return "store.execute";
    case SpanName::kTreeGet: return "tree.get";
    case SpanName::kTreePut: return "tree.put";
    case SpanName::kTreeScan: return "tree.scan";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

/// Self times of the spans [begin, end) of one op (contiguous in its
/// thread's log): duration minus the time covered by child spans. Returns
/// false when the op is malformed: a child outside its parent, overlapping
/// siblings, or self times that do not sum to the op span.
bool op_self_times(const std::vector<Span>& s, std::size_t begin,
                   std::size_t end, std::vector<double>* self) {
  if (s[begin].parent != -1) return false;
  self->assign(end - begin, 0);
  for (std::size_t i = begin; i < end; ++i) {
    if (s[i].end < s[i].start) return false;
    (*self)[i - begin] = static_cast<double>(s[i].end - s[i].start);
  }
  std::vector<std::uint64_t> last_child_end(end - begin, 0);
  for (std::size_t i = begin + 1; i < end; ++i) {
    const auto p = static_cast<std::size_t>(s[i].parent);
    if (s[i].parent < 0 || p < begin || p >= i) return false;
    if (s[i].start < s[p].start || s[i].end > s[p].end) return false;
    // Siblings are recorded in order; each starts after the previous one
    // under the same parent ended.
    if (s[i].start < last_child_end[p - begin]) return false;
    last_child_end[p - begin] = s[i].end;
    (*self)[p - begin] -= static_cast<double>(s[i].end - s[i].start);
  }
  double sum = 0;
  for (const double v : *self) sum += v;
  return sum == static_cast<double>(s[begin].end - s[begin].start);
}

}  // namespace

SpanSummary summarize_spans(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  std::vector<double> self;
  for (const SpanLog* log : logs) {
    const auto& s = log->spans();
    std::size_t begin = 0;
    while (begin < s.size()) {
      std::size_t end = begin + 1;
      while (end < s.size() && s[end].op == s[begin].op) ++end;
      out.ops++;
      if (op_self_times(s, begin, end, &self)) {
        for (std::size_t i = begin; i < end; ++i) {
          out.durations(s[i].name).push_back(
              static_cast<double>(s[i].end - s[i].start));
          out.self_times(s[i].name).push_back(self[i - begin]);
        }
      } else {
        out.bad_ops++;
      }
      begin = end;
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread\top\tname\tparent\tstart\tend\n", f);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& s = logs[t]->spans();
    for (const Span& sp : s) {
      const char* parent =
          sp.parent < 0 ? "-"
                        : span_name(s[static_cast<std::size_t>(sp.parent)].name);
      std::fprintf(f, "%zu\t%u\t%s\t%s\t%llu\t%llu\n", t, sp.op,
                   span_name(sp.name), parent,
                   static_cast<unsigned long long>(sp.start),
                   static_cast<unsigned long long>(sp.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
