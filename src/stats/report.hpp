// Fixed-width table / CSV emission for bench output.
//
// Every bench binary prints the rows of the paper figure it regenerates in a
// human-readable table, and the same data as CSV when --csv is passed.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace euno::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Convenience: format a double with `prec` decimals.
  static std::string num(double v, int prec = 2);
  static std::string num(std::uint64_t v);

  void print(bool csv) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses bench CLI flags shared by every figure binary.
struct BenchArgs {
  bool csv = false;
  std::uint64_t ops_per_thread = 0;  // 0 = figure default
  std::uint64_t key_range = 0;       // 0 = figure default
  std::uint64_t seed = 42;
  bool quick = false;  // reduced sweep for smoke runs
  /// Worker threads for the parallel sweep runner. 1 (the default) keeps the
  /// strictly sequential path, so single-core hosts see no behavior change;
  /// results are bit-identical either way. Accepts `--jobs=N` and `--jobs N`;
  /// `--jobs=auto` selects the host's hardware concurrency.
  int jobs = 1;
  /// `--trace=FILE`: write a Chrome trace-event JSON (Perfetto-loadable) of
  /// the sweep's traced cells. Empty = tracing off.
  std::string trace_path;
  /// `--json=FILE`: write the JSON run manifest (specs + results +
  /// histograms + hot-lines). Empty = no manifest.
  std::string json_path;
  /// `--tree=NAME`: restrict the bench to one registered tree (registry
  /// slug, e.g. "euno" or "htm-bptree"). Empty = the bench's default tree
  /// set. Parsing stores the raw name; benches resolve it against the tree
  /// registry (bench::selected_trees), which exits 2 and prints the
  /// registered list on an unknown name.
  std::string tree;
  /// `--native`: run the sweep on the native engine (real threads, real RTM
  /// when present) instead of the simulator. Native sweeps run sequentially
  /// regardless of --jobs (the points would contend for the same cores).
  bool native = false;
  /// `--metrics-interval=N`: windowed time-series channel, window length N in
  /// the engine's clock unit (wall ns native, simulated cycles sim). 0 = off.
  std::uint64_t metrics_interval = 0;
  /// `--perf`: sample hardware perf counters per benchmark phase (native
  /// engine; degrades to `available: false` when perf_event_open is denied).
  bool perf = false;
  /// `--store-shards=N`: route the bench through the sharded KV service
  /// layer with N shards (src/store). 0 = store layer off (the default
  /// single-tree path). Malformed or non-positive values exit 2.
  int store_shards = 0;
  /// `--offered-load=X`: open-loop aggregate arrival rate in Mops/s for
  /// store-enabled benches. 0 = closed loop. Must be a positive number.
  double offered_load = 0;
  /// `--deadline-us=N`: per-op deadline budget in microseconds for
  /// store-enabled benches, measured from scheduled arrival. 0 = off;
  /// the flag itself must be positive.
  std::uint64_t deadline_us = 0;
  /// `--key-domain=u64|bytes`: which key domain the bench runs in. "bytes"
  /// routes through the registry's string-tree factories (variable-length
  /// keys + value indirection); only trees registered with bytes-domain
  /// support accept it. Anything but the two exact literals exits 2.
  /// Empty = not passed: each bench picks its own default (fig_scan runs
  /// bytes, everything else u64 — the goldens' domain).
  std::string key_domain;
  /// `--scan-len=N`: records per range scan (bytes + u64 workloads). 0 =
  /// the bench's default; the flag itself must be positive.
  std::uint32_t scan_len = 0;

  /// Strict: an unknown flag or malformed numeric value prints usage to
  /// stderr and exits with status 2 (well-formed out-of-range --jobs values
  /// still clamp to 1, as before).
  static BenchArgs parse(int argc, char** argv);
};

}  // namespace euno::stats
