// Linearizability-test harness: run a workload on any registered tree under
// a schedule policy, record the operation history, check it. Trees are
// selected by registry slug and built through the entry's sim factory.
//
// The euno_check library compiles no tree code, and this header only reaches
// trees through the registry. The mutation self-test
// (tests/lin_mutation_test.cpp) compiles the registry sources itself with
// the EUNO_LIN_MUTATION_* defines and does not link euno_trees, so its binary
// holds only the deliberately broken instantiations (no ODR mix of healthy
// and mutated trees).
//
// A LinSpec is fully replayable: to_string()/parse() round-trip every knob
// including the schedule policy, so a failing run is reproduced with
//   lin_explore --replay='<spec string>'
// and the same seed deterministically re-derives the same interleaving.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "ctx/sim_ctx.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "trees/registry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace euno::check {

enum class LinPattern {
  /// Uniform random put/get/erase/scan over a small hot key range.
  kUniformMix,
  /// Core 0 inserts ascending odd keys between preloaded even keys, forcing
  /// leaf splits; the other cores read preloaded keys. Preloaded keys are
  /// never modified, so any get that misses one (the classic
  /// read-during-split race) is an immediate violation.
  kSplitRace,
};

inline const char* lin_pattern_name(LinPattern p) {
  return p == LinPattern::kUniformMix ? "mix" : "splitrace";
}

/// Strict decimal parse for spec fields: the whole token must be digits, so
/// a mistyped replay string is rejected instead of running a different spec.
inline bool parse_lin_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

/// Smallest simulated arena a replay string may ask for. Below it no
/// registered tree completes even the default LinSpec: the run aborts on a
/// failed arena mmap (arena=0) or on arena exhaustion mid-run, where a bad
/// replay should be a usage error. Measured by bisecting `arena=` per slug
/// on the default spec: rcu-bptree needs the most (24321 bytes), the str-*
/// trees about 3.7 KiB and every other tree under 1.2 KiB.
inline constexpr std::uint64_t kLinMinArenaBytes = 24ull << 10;

/// One linearizability run, fully specified and replayable.
struct LinSpec {
  /// Registry slug of the tree under test.
  std::string kind = "euno-markbits";
  /// Run under the hardened retry policy with a hair-trigger HTM-health
  /// monitor (any abort in a full window degrades the tree to lock-only), so
  /// the run exercises a mid-run degradation flip under the checker.
  bool degrade = false;
  LinPattern pattern = LinPattern::kUniformMix;
  int threads = 3;
  int ops_per_thread = 40;
  std::uint64_t key_range = 16;  // kUniformMix hot range
  std::uint64_t preload = 8;     // preloaded keys (kSplitRace: even slots)
  std::uint64_t workload_seed = 1;
  sim::SchedulePolicy sched{};
  std::uint64_t arena_bytes = 64ull << 20;

  /// Replayable, parse()-invertible spec string (';'-separated because the
  /// schedule policy string uses ',').
  std::string to_string() const {
    std::string s;
    s += "kind=";
    s += kind;
    s += degrade ? ";degrade=1" : "";
    s += ";pattern=";
    s += lin_pattern_name(pattern);
    s += ";threads=" + std::to_string(threads);
    s += ";ops=" + std::to_string(ops_per_thread);
    s += ";keys=" + std::to_string(key_range);
    s += ";preload=" + std::to_string(preload);
    s += ";wseed=" + std::to_string(workload_seed);
    s += ";arena=" + std::to_string(arena_bytes);
    s += ";sched=" + sched.to_string();
    return s;
  }

  static std::optional<LinSpec> parse(const std::string& str) {
    LinSpec spec;
    std::size_t pos = 0;
    while (pos <= str.size()) {
      std::size_t semi = str.find(';', pos);
      if (semi == std::string::npos) semi = str.size();
      const std::string tok = str.substr(pos, semi - pos);
      pos = semi + 1;
      if (tok.empty()) {
        if (pos > str.size()) break;
        return std::nullopt;
      }
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) return std::nullopt;
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      std::uint64_t n = 0;
      if (key == "kind") {
        if (trees::tree_registry().by_name(val) == nullptr) return std::nullopt;
        spec.kind = val;
      } else if (key == "degrade") {
        if (val != "0" && val != "1") return std::nullopt;
        spec.degrade = val == "1";
      } else if (key == "pattern") {
        if (val == "mix") spec.pattern = LinPattern::kUniformMix;
        else if (val == "splitrace") spec.pattern = LinPattern::kSplitRace;
        else return std::nullopt;
      } else if (key == "threads") {
        // One fiber per simulated core.
        if (!parse_lin_u64(val, &n) || n < 1 ||
            n > static_cast<std::uint64_t>(sim::MachineConfig::kMaxCores)) {
          return std::nullopt;
        }
        spec.threads = static_cast<int>(n);
      } else if (key == "ops") {
        if (!parse_lin_u64(val, &n) || n > INT_MAX) return std::nullopt;
        spec.ops_per_thread = static_cast<int>(n);
      } else if (key == "keys") {
        // kUniformMix draws keys from [0, keys): an empty range is no run.
        if (!parse_lin_u64(val, &spec.key_range) || spec.key_range == 0) {
          return std::nullopt;
        }
      } else if (key == "preload") {
        if (!parse_lin_u64(val, &spec.preload)) return std::nullopt;
      } else if (key == "wseed") {
        if (!parse_lin_u64(val, &spec.workload_seed)) return std::nullopt;
      } else if (key == "arena") {
        if (!parse_lin_u64(val, &spec.arena_bytes) ||
            spec.arena_bytes < kLinMinArenaBytes) {
          return std::nullopt;
        }
      } else if (key == "sched") {
        auto p = sim::SchedulePolicy::parse(val);
        if (!p) return std::nullopt;
        spec.sched = *p;
      } else {
        return std::nullopt;
      }
      if (pos > str.size()) break;
    }
    return spec;
  }

  /// gtest-safe name (alphanumerics and underscores only).
  std::string name() const {
    std::string s = to_string();
    std::string out;
    out.reserve(s.size());
    bool last_us = false;
    for (char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
      if (ok) {
        out += c;
        last_us = false;
      } else if (!last_us && !out.empty()) {
        out += '_';
        last_us = true;
      }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }
};

/// Preload value convention: a pure function of the key, disjoint from the
/// per-op unique values below (those have a nonzero high word).
inline Value lin_preload_value(Key k) { return k * 7 + 1; }

/// Unique per-operation put value: (core+1) in the high word, the op index
/// in the low word. Unique values make every stale read distinguishable.
inline Value lin_put_value(int core, int op_index) {
  return (static_cast<Value>(core + 1) << 32) |
         static_cast<Value>(op_index + 1);
}

struct LinRun {
  std::vector<HistoryEvent> history;
  CheckResult check;
  std::vector<sim::ScheduleDecision> decisions;
  bool truncated = false;
  std::uint64_t max_clock = 0;
  /// HTM-health degradation flips observed across all cores (spec.degrade).
  std::uint64_t degradations = 0;
};

/// The policy a degrade run executes under: hardened retry path plus a
/// hair-trigger health monitor — with min_commit_pct at 100, the first
/// window containing any abort flips the tree to lock-only mode.
inline htm::RetryPolicy lin_degrade_policy() {
  htm::RetryPolicy p = htm::RetryPolicy::hardened();
  p.health_window = 16;
  p.health_min_commit_pct = 100;
  return p;
}

/// Execute one run: build the tree, preload, run the per-core workload under
/// spec.sched recording the history, then check it. Also runs the tree's own
/// structural check_invariants() (throws on corruption).
inline LinRun run_lin(const LinSpec& spec) {
  sim::MachineConfig mc;
  mc.arena_bytes = spec.arena_bytes;
  sim::Simulation simulation(mc);
  simulation.set_schedule_policy(spec.sched);
  ctx::SimCtx setup(simulation, 0);
  const trees::TreeEntry* entry = trees::tree_registry().by_name(spec.kind);
  EUNO_ASSERT_MSG(entry != nullptr, "lin spec names an unregistered tree");
  const htm::RetryPolicy policy =
      spec.degrade ? lin_degrade_policy() : htm::RetryPolicy{};
  const std::unique_ptr<trees::AnyTree<ctx::SimCtx>> tree =
      entry->make_sim(setup, trees::TreeBuildOptions{policy});
  HistoryRecorder rec(spec.threads);
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));

  // kSplitRace places preloads at even slots so the writer can insert the
  // odd keys between them; kUniformMix preloads a prefix of the hot range.
  const bool split_race = spec.pattern == LinPattern::kSplitRace;
  for (std::uint64_t i = 0; i < spec.preload; ++i) {
    const Key k = split_race ? 2 * i : i;
    tree->put(setup, k, lin_preload_value(k));
    rec.record_preload(k, lin_preload_value(k), simulation.global_step());
  }

  // kSplitRace frontier hint: host-side (uninstrumented) is safe — all
  // fibers share one OS thread — and deliberately invisible to the
  // simulated memory system, so readers aim near the writer's frontier
  // without creating extra simulated conflicts.
  auto next_insert = std::make_shared<std::uint64_t>(1);

  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&simulation, &tree, &rec, &spec, &stats, next_insert,
                         split_race, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(spec.workload_seed * 1000003 + static_cast<std::uint64_t>(t));
      std::vector<KV> buf(8);
      for (int i = 0; i < spec.ops_per_thread; ++i) {
        HistoryEvent ev;
        ev.core = core;
        if (split_race) {
          if (core == 0) {
            const Key k = *next_insert;
            *next_insert = k + 2;
            ev.op = OpKind::kPut;
            ev.key = k;
            ev.value = lin_put_value(core, i);
            ev.inv = simulation.global_step();
            tree->put(c, ev.key, ev.value);
            ev.res = simulation.global_step();
          } else {
            // Read a preloaded (immutable) key near the split frontier.
            const std::uint64_t hi =
                std::min<std::uint64_t>(*next_insert / 2 + 1, spec.preload);
            const std::uint64_t lo = hi > 4 ? hi - 4 : 0;
            const std::uint64_t span = hi > lo ? hi - lo : 1;
            ev.op = OpKind::kGet;
            ev.key = 2 * (lo + rng.next_bounded(span));
            Value v = 0;
            ev.inv = simulation.global_step();
            ev.found = tree->get(c, ev.key, &v);
            ev.res = simulation.global_step();
            ev.value = v;
          }
        } else {
          ev.key = rng.next_bounded(spec.key_range);
          const auto roll = rng.next_bounded(10);
          if (roll < 3) {
            ev.op = OpKind::kPut;
            ev.value = lin_put_value(core, i);
            ev.inv = simulation.global_step();
            tree->put(c, ev.key, ev.value);
            ev.res = simulation.global_step();
          } else if (roll < 7) {
            ev.op = OpKind::kGet;
            Value v = 0;
            ev.inv = simulation.global_step();
            ev.found = tree->get(c, ev.key, &v);
            ev.res = simulation.global_step();
            ev.value = v;
          } else if (roll < 9) {
            ev.op = OpKind::kErase;
            ev.inv = simulation.global_step();
            ev.found = tree->erase(c, ev.key);
            ev.res = simulation.global_step();
          } else {
            ev.op = OpKind::kScan;
            ev.limit = static_cast<std::uint32_t>(buf.size());
            ev.inv = simulation.global_step();
            const std::size_t n = tree->scan(c, ev.key, buf.size(), buf.data());
            ev.res = simulation.global_step();
            ev.scan_out.assign(buf.begin(),
                               buf.begin() + static_cast<std::ptrdiff_t>(n));
          }
        }
        rec.record(core, std::move(ev));
      }
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  simulation.run();

  LinRun out;
  for (const auto& s : stats) out.degradations += s.total().degradations;
  out.history = rec.merged();
  out.decisions = simulation.schedule_decisions();
  out.truncated = simulation.schedule_truncated();
  out.max_clock = simulation.max_clock();
  tree->check_invariants();
  out.check = check_history(out.history);
  tree->destroy(setup);
  return out;
}

/// One-line repro command for a failing spec.
inline std::string lin_repro_line(const LinSpec& spec) {
  return "bench/lin_explore --replay='" + spec.to_string() + "'";
}

}  // namespace euno::check
