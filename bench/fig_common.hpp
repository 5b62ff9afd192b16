// Shared configuration for the figure-reproduction benches.
//
// Workload: YCSB-style, 8-byte keys/values, Zipfian default, *consecutive*
// hot keys (unscrambled ranks — hot records adjacent, as in the paper's
// analysis of false conflicts from consecutive records), half of the key
// range preloaded at stride 2 so the measured phase keeps inserting records
// between hot existing ones.
//
// Scale: the paper uses a 100 M key range on a real 20-core machine for
// ≥20 s per point; the simulated reproduction defaults to 1 M keys and a
// fixed operation count per point so a full figure regenerates in minutes.
// Shapes, not absolute numbers, are the reproduction target (see
// EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "driver/experiment.hpp"
#include "driver/parallel.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "stats/report.hpp"
#include "trees/registry.hpp"

namespace euno::bench {

/// Runs a figure's whole spec list through the parallel sweep runner
/// (`--jobs N`; the default jobs=1 is the strictly sequential path).
/// Results come back in spec order, bit-identical to a sequential loop, so
/// row emission stays a simple zip over (specs, results).
inline std::vector<driver::ExperimentResult> run_figure_sweep(
    const std::vector<driver::ExperimentSpec>& specs,
    const stats::BenchArgs& args) {
  if (args.native) {
    // Native points use real threads, so running sweep points concurrently
    // would have them contend for the same cores; always sequential.
    std::vector<driver::ExperimentResult> results;
    results.reserve(specs.size());
    for (const auto& s : specs) {
      results.push_back(driver::run_native_experiment(s));
    }
    return results;
  }
  return driver::run_sim_experiments(specs, args.jobs);
}

inline driver::ExperimentSpec figure_spec(const stats::BenchArgs& args) {
  driver::ExperimentSpec spec;
  spec.workload.key_range = args.key_range ? args.key_range : (1u << 20);
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = 0.5;
  spec.workload.scramble = false;
  spec.workload.seed = args.seed;
  spec.preload = spec.workload.key_range / 2;
  spec.preload_stride = 2;
  spec.threads = 16;
  spec.ops_per_thread = args.ops_per_thread ? args.ops_per_thread : 2000;
  spec.machine.arena_bytes = 3ull << 30;
  // Observability: latency percentiles go into every figure table; the
  // contention and trace channels switch on only when their output files were
  // requested. None of this changes any simulated quantity (see src/obs).
  spec.obs.latency = true;
  spec.obs.contention = !args.json_path.empty();
  spec.obs.trace = !args.trace_path.empty();
  spec.obs.metrics_interval = args.metrics_interval;
  spec.obs.perf = args.perf;
  return spec;
}

/// Short per-sweep-point label used for trace process names and manifests.
inline std::string point_label(const driver::ExperimentSpec& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %dt %s=%.2f",
                driver::tree_display_name(s.tree).c_str(), s.threads,
                workload::dist_kind_name(s.workload.dist).c_str(),
                s.workload.dist_param);
  return buf;
}

/// Writes the `--trace=` Chrome trace and/or the `--json=` run manifest for a
/// completed sweep. Call after run_figure_sweep in every figure binary.
inline void emit_artifacts(const stats::BenchArgs& args, const char* bench,
                           const std::vector<driver::ExperimentSpec>& specs,
                           const std::vector<driver::ExperimentResult>& results) {
  if (!args.trace_path.empty()) {
    // Results carry the trace still ring-encoded; decode here, at export
    // time (the decoded vectors must outlive write_chrome_trace).
    std::vector<std::vector<obs::TraceEvent>> decoded(results.size());
    std::vector<obs::TraceProcess> procs;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].trace.empty()) continue;
      decoded[i] = results[i].trace.merged();
      // Native streams carry wall-ns timestamps in per-thread rings: ghz=1.0
      // makes the cycles→µs conversion a ns→µs one, and the lanes are named
      // "thread N" instead of "core N".
      procs.push_back(obs::TraceProcess{point_label(specs[i]),
                                        args.native ? 1.0 : specs[i].ghz,
                                        &decoded[i],
                                        args.native ? "thread" : "core"});
    }
    if (obs::write_chrome_trace(args.trace_path.c_str(), procs)) {
      std::fprintf(stderr, "wrote trace (%zu processes) to %s\n", procs.size(),
                   args.trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed writing trace to %s\n",
                   args.trace_path.c_str());
      std::exit(1);
    }
  }
  if (!args.json_path.empty()) {
    if (obs::write_manifest(args.json_path, bench, specs.data(), results.data(),
                            results.size())) {
      std::fprintf(stderr, "wrote manifest (%zu points) to %s\n", results.size(),
                   args.json_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed writing manifest to %s\n",
                   args.json_path.c_str());
      std::exit(1);
    }
  }
}

/// Prints the top-K hottest-lines attribution table for one sweep point
/// (requires the contention channel; silently skips when it was off).
inline void print_hot_lines(const char* what,
                            const driver::ExperimentResult& r, bool csv) {
  if (r.hot_lines.empty()) return;
  std::printf("\n-- hottest cache lines: %s --\n", what);
  stats::Table t({"node", "line", "aborts", "same_record", "false_record",
                  "false_metadata", "lock_subscr"});
  for (const auto& hl : r.hot_lines) {
    auto k = [&](htm::ConflictKind c) {
      return stats::Table::num(hl.conflicts[static_cast<std::size_t>(c)]);
    };
    t.add_row({hl.label(), stats::Table::num(hl.line),
               stats::Table::num(hl.aborts), k(htm::ConflictKind::kTrueSameRecord),
               k(htm::ConflictKind::kFalseRecord),
               k(htm::ConflictKind::kFalseMetadata),
               k(htm::ConflictKind::kLockSubscription)});
  }
  t.print(csv);
}

/// Prints the registered-tree listing (slug + display name) and exits 2 —
/// the uniform rejection path for an unknown `--tree=` value.
[[noreturn]] inline void unknown_tree_exit(const std::string& name) {
  std::fprintf(stderr, "unknown tree '%s'; registered trees:\n", name.c_str());
  for (const auto& e : trees::tree_registry().entries()) {
    std::fprintf(stderr, "  %-14s %s\n", e.name.c_str(), e.display.c_str());
  }
  std::exit(2);
}

/// Resolves `--tree=` against the registry. Returns nullptr when the flag
/// was not given; exits 2 (with the registered list) on an unknown name.
inline const trees::TreeEntry* selected_tree(const stats::BenchArgs& args) {
  if (args.tree.empty()) return nullptr;
  const trees::TreeEntry* e = trees::tree_registry().by_name(args.tree);
  if (e == nullptr) unknown_tree_exit(args.tree);
  return e;
}

/// The trees a sweep should run: the single `--tree=` selection when given,
/// otherwise the bench's default slugs.
inline std::vector<std::string> selected_trees(
    const stats::BenchArgs& args, std::vector<std::string> defaults) {
  const trees::TreeEntry* e = selected_tree(args);
  if (e != nullptr) return {e->name};
  return defaults;
}

/// Single-tree benches: the `--tree=` selection when given, else the default.
inline std::string selected_tree_or(const stats::BenchArgs& args,
                                    const std::string& default_slug) {
  const trees::TreeEntry* e = selected_tree(args);
  return e != nullptr ? e->name : default_slug;
}

/// Benches that ablate one structure's internals accept `--tree=` only as a
/// restriction: unknown names exit 2 with the registered list (via
/// selected_tree), and known-but-unsupported selections exit 2 with the
/// bench's reason. Returns the selection (nullptr when the flag was absent).
inline const trees::TreeEntry* restrict_tree_selection(
    const stats::BenchArgs& args, std::initializer_list<const char*> supported,
    const char* why) {
  const trees::TreeEntry* e = selected_tree(args);
  if (e == nullptr) return nullptr;
  for (const char* slug : supported) {
    if (e->name == slug) return e;
  }
  std::fprintf(stderr, "--tree=%s is not supported by this bench: %s\n",
               e->name.c_str(), why);
  std::exit(2);
}

/// The default figure sweep rows, registry-driven: every tree registered
/// with caps.figure_default, in registration order.
inline std::vector<std::string> figure_trees() {
  std::vector<std::string> slugs;
  for (const auto& e : trees::tree_registry().entries()) {
    if (e.caps.figure_default) slugs.push_back(e.name);
  }
  return slugs;
}

/// figure_trees with the uniform `--tree=` narrowing applied.
inline std::vector<std::string> figure_trees(const stats::BenchArgs& args) {
  return selected_trees(args, figure_trees());
}

inline std::vector<double> theta_sweep(bool quick) {
  if (quick) return {0.2, 0.9};
  return {0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99};
}

inline std::vector<int> thread_sweep(bool quick) {
  if (quick) return {4, 16};
  return {1, 4, 8, 12, 16, 20};
}

inline void print_header(const char* figure, const char* what,
                         const driver::ExperimentSpec& spec) {
  std::printf("== %s: %s ==\n", figure, what);
  std::printf("   workload: %s, preload %llu (stride %u), %llu ops/thread\n\n",
              spec.workload.describe().c_str(),
              static_cast<unsigned long long>(spec.preload), spec.preload_stride,
              static_cast<unsigned long long>(spec.ops_per_thread));
}

}  // namespace euno::bench
