// Shared harness pieces of the repository benchmark: the metric catalogue,
// per-run reports, exact quantiles, host facts and the span recorder of the
// traced run.
//
// Everything here lives outside src/: the benchmark drives each layer only
// through that layer's public functions, and every span is recorded by the
// benchmark's own code around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans (TSV)
};

/// One catalogued metric: printed in the final JSON line when its class
/// (end-to-end for untraced runs, per-layer for traced runs) is requested.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in BENCHMARK.json order. Every workload reports all
/// of them, each on the workload's own clock: wall time natively, simulated
/// time (cycles at kSimGhz) on the sim-* workloads.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics of the traced run. A layer the workload never enters
/// reports 0 (no store on sim-* and str-scan, no engine natively, ...).
extern const std::vector<MetricDef> kPerLayer;

/// Simulated core frequency used to convert cycles to seconds (the paper's
/// 2.3 GHz testbed, as in the figure benches).
inline constexpr double kSimGhz = 2.3;

/// Metric values of one repetition (or of a whole run, after medians).
using MetricMap = std::map<std::string, double>;

/// What one workload run hands back to main(): correctness verdict, op
/// accounting, metric values and human-readable report lines.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  std::vector<std::string> lines;

  /// Records a failed output check (the run still completes and prints).
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

/// Exact quantile of `v` (sorted in place) with linear interpolation between
/// order statistics; 0 for an empty sample.
double quantile(std::vector<double>& v, double q);

/// Quantile of integer-valued samples (cycles, nanoseconds), interpolated
/// within the tied run of values around the target rank as if each value v
/// were spread evenly over [v - 0.5, v + 0.5]: the standard grouped-data
/// estimator. Unlike the order statistic it moves when the share of samples
/// at the quantile's value changes, so a latency median that sits on one
/// dominant cycle count still reflects the distribution around it. Sorts
/// `v` in place; 0 for an empty sample.
double sample_quantile(std::vector<double>& v, double q);

/// Median over repetitions of each metric present in `reps`.
MetricMap median_of(const std::vector<MetricMap>& reps);

/// Host wall seconds since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// One line describing the host facts every comparison depends on: RTM,
/// active SIMD kernel, TSC calibration, nproc and the build type.
std::string host_record();

/// Nanoseconds per call of the active count_le / find_eq_pairs kernels at
/// the default fanout (16), measured on seeded random probes.
void measure_node_kernels(std::uint64_t seed, double* count_le_ns,
                          double* find_eq_ns);

// ---- traced run ----

/// Span names recorded around public calls. The tree spans cover the
/// registry tree's get/put/scan; store.execute covers ShardedStore::execute.
enum class SpanName : std::uint8_t {
  kOp,
  kWorkloadNext,
  kKeyText,
  kStoreExecute,
  kTreeGet,
  kTreePut,
  kTreeScan,
  kCount,
};
const char* span_name(SpanName n);

/// One recorded span. `parent` indexes the enclosing span in the same
/// thread's log (-1 for an op's root span); spans of one op share `op`.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kOp;
};

/// Per-thread span log. Every `period`-th op is recorded, until the log's
/// span capacity is used up; recording appends to preallocated memory only.
class SpanLog {
 public:
  SpanLog(std::uint32_t period, std::size_t capacity)
      : period_(period), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Starts op number `n` of this thread; returns whether it is recorded.
  bool begin_op(std::uint64_t n) {
    recording_ = n % period_ == 0 && spans_.size() + kMaxSpansPerOp <= capacity_;
    if (recording_) ++op_;
    return recording_;
  }
  bool recording() const { return recording_; }

  /// Opens a span under the innermost open one; returns its index or -1
  /// when this op is not recorded.
  int open(SpanName name, std::uint64_t now) {
    if (!recording_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{now, 0, op_, top_, name});
    top_ = idx;
    return idx;
  }
  void close(int idx, std::uint64_t now) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = now;
    top_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr std::size_t kMaxSpansPerOp = 8;
  std::uint32_t period_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint32_t op_ = 0;
  std::int32_t top_ = -1;
  bool recording_ = false;
};

/// Self time and duration samples per span name, from a set of logs.
struct SpanSummary {
  std::vector<double> dur[static_cast<std::size_t>(SpanName::kCount)];
  std::vector<double> self[static_cast<std::size_t>(SpanName::kCount)];
  std::uint64_t ops = 0;
  /// Ops whose spans are malformed: a child outside its parent, overlapping
  /// siblings, or self times that do not sum to the op span.
  std::uint64_t bad_ops = 0;

  std::vector<double>& durations(SpanName n) {
    return dur[static_cast<std::size_t>(n)];
  }
  std::vector<double>& self_times(SpanName n) {
    return self[static_cast<std::size_t>(n)];
  }
};

/// Computes self times (duration minus the time covered by child spans) and
/// runs the per-op self-check over every log.
SpanSummary summarize_spans(const std::vector<const SpanLog*>& logs);

/// Writes every span as one TSV line: thread, op, name, parent name, start,
/// end. Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ---- workloads (definitions and rationale in main.cpp) ----

/// Simulator, Euno, 16 simulated cores, Zipf `theta` over consecutive keys.
Report run_sim_workload(const RunArgs& args, double theta);
/// Native ShardedStore (8 Euno shards, admission gate on), 4 client threads.
Report run_kv_store(const RunArgs& args);
/// Native str-masstree, url keys, YCSB-E scans, 4 threads.
Report run_str_scan(const RunArgs& args);

}  // namespace perfbench
