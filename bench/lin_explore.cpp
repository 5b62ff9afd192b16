// Schedule-exploration driver for the linearizability harness (src/check).
//
// Sweeps registered trees under random-preemption schedules (optionally with
// tx-begin preemption and abort-storm injection) or walks the bounded
// systematic schedule tree, checking every recorded history. Violations
// print a minimal counterexample plus a --replay spec string that reproduces
// the exact run (workload seed + schedule policy); the exit status is
// nonzero when any violation was found, so the binary doubles as a CI gate.
//
//   lin_explore --trees=all --mode=rand --seeds=16 --jobs=auto
//   lin_explore --mode=sys --trees=euno-s2-markbits --threads=2 --ops=3
//   lin_explore --replay='kind=euno-markbits;pattern=splitrace;...;sched=rand,seed=9'
//   lin_explore --history=hist.json   # dump euno.history.v1 for validation
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "check/euno_variants.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "driver/parallel.hpp"
#include "stats/report.hpp"
#include "trees/registry.hpp"

namespace {

using euno::check::ExploreOptions;
using euno::check::LinPattern;
using euno::check::LinRun;
using euno::check::LinSpec;
using euno::check::ScheduleExplorer;
using euno::parse_decimal_u64;
using euno::sim::SchedulePolicy;

struct Options {
  std::vector<std::string> trees{"euno-markbits"};
  LinPattern pattern = LinPattern::kUniformMix;
  SchedulePolicy::Mode mode = SchedulePolicy::Mode::kRandom;
  std::uint64_t seeds = 8;
  std::uint64_t seed0 = 1;
  std::uint32_t preempt = 100;
  bool txpreempt = false;
  std::uint32_t storm = 0;
  int threads = 3;
  int ops = 40;
  std::uint64_t keys = 16;
  std::uint64_t preload = 8;
  std::uint64_t wseed = 1;
  std::uint32_t budget = 1;         // sys: max preemptions
  std::uint64_t max_schedules = 64; // sys: schedule cap
  int jobs = 1;
  bool csv = false;
  std::string history_path;
  std::string replay;
};

[[noreturn]] void usage_and_exit(const char* bad) {
  if (bad != nullptr) std::fprintf(stderr, "lin_explore: bad argument '%s'\n", bad);
  std::fprintf(stderr,
               "usage: lin_explore [--trees=all|SLUG,..] [--pattern=mix|splitrace]\n"
               "                   [--mode=rand|sys|det] [--seeds=N] [--seed0=S]\n"
               "                   [--preempt=P] [--txpreempt] [--storm=P]\n"
               "                   [--threads=N] [--ops=N] [--keys=N] [--preload=N]\n"
               "                   [--wseed=S] [--budget=N]\n"
               "                   [--max-schedules=N] [--jobs=N|auto] [--csv]\n"
               "                   [--history=FILE] [--replay=SPEC]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "--trees") {
      o.trees.clear();
      if (val == "all") {
        for (const auto& e : euno::trees::tree_registry().entries())
          o.trees.push_back(e.name);
      } else {
        std::size_t pos = 0;
        while (pos <= val.size()) {
          std::size_t comma = val.find(',', pos);
          if (comma == std::string::npos) comma = val.size();
          std::string slug = val.substr(pos, comma - pos);
          if (euno::trees::tree_registry().by_name(slug) == nullptr)
            usage_and_exit(argv[i]);
          o.trees.push_back(std::move(slug));
          pos = comma + 1;
          if (pos > val.size()) break;
        }
      }
      if (o.trees.empty()) usage_and_exit(argv[i]);
    } else if (key == "--pattern") {
      if (val == "mix") o.pattern = LinPattern::kUniformMix;
      else if (val == "splitrace") o.pattern = LinPattern::kSplitRace;
      else usage_and_exit(argv[i]);
    } else if (key == "--mode") {
      if (val == "rand") o.mode = SchedulePolicy::Mode::kRandom;
      else if (val == "sys") o.mode = SchedulePolicy::Mode::kSystematic;
      else if (val == "det") o.mode = SchedulePolicy::Mode::kDeterministic;
      else usage_and_exit(argv[i]);
    } else if (key == "--seeds" && parse_decimal_u64(val, &n)) {
      o.seeds = n;
    } else if (key == "--seed0" && parse_decimal_u64(val, &n)) {
      o.seed0 = n;
    } else if (key == "--preempt" && parse_decimal_u64(val, &n) && n <= 100) {
      o.preempt = static_cast<std::uint32_t>(n);
    } else if (key == "--txpreempt" && eq == std::string::npos) {
      o.txpreempt = true;
    } else if (key == "--storm" && parse_decimal_u64(val, &n) && n <= 100) {
      o.storm = static_cast<std::uint32_t>(n);
    } else if (key == "--threads" && parse_decimal_u64(val, &n) && n >= 1 &&
               n <= static_cast<std::uint64_t>(
                        euno::sim::MachineConfig::kMaxCores)) {
      o.threads = static_cast<int>(n);
    } else if (key == "--ops" && parse_decimal_u64(val, &n) && n <= INT_MAX) {
      o.ops = static_cast<int>(n);
    } else if (key == "--keys" && parse_decimal_u64(val, &n) && n >= 1) {
      o.keys = n;
    } else if (key == "--preload" && parse_decimal_u64(val, &n)) {
      o.preload = n;
    } else if (key == "--wseed" && parse_decimal_u64(val, &n)) {
      o.wseed = n;
    } else if (key == "--budget" && parse_decimal_u64(val, &n) &&
               n <= UINT32_MAX) {
      o.budget = static_cast<std::uint32_t>(n);
    } else if (key == "--max-schedules" && parse_decimal_u64(val, &n)) {
      o.max_schedules = n;
    } else if (key == "--jobs") {
      if (val == "auto") {
        o.jobs = euno::driver::default_jobs();
      } else if (parse_decimal_u64(val, &n) && n >= 1) {
        o.jobs = static_cast<int>(n);
      } else {
        usage_and_exit(argv[i]);
      }
    } else if (key == "--csv" && eq == std::string::npos) {
      o.csv = true;
    } else if (key == "--history") {
      o.history_path = val;
    } else if (key == "--replay") {
      o.replay = val;
    } else {
      usage_and_exit(argv[i]);
    }
  }
  return o;
}

LinSpec base_spec(const Options& o, const std::string& kind) {
  LinSpec s;
  s.kind = kind;
  s.pattern = o.pattern;
  s.threads = o.threads;
  s.ops_per_thread = o.ops;
  s.key_range = o.keys;
  s.preload = o.preload;
  s.workload_seed = o.wseed;
  s.sched.mode = o.mode;
  s.sched.preempt_pct = o.preempt;
  s.sched.preempt_on_tx_begin = o.txpreempt;
  s.sched.abort_storm_pct = o.storm;
  if (o.mode == SchedulePolicy::Mode::kSystematic) {
    s.sched.max_steps = 2'000'000;  // livelock valve for adversarial prefixes
  }
  return s;
}

void write_history(const std::string& path, const LinSpec& spec,
                   const LinRun& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lin_explore: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  euno::check::HistoryMeta meta;
  meta.spec = spec.to_string();
  meta.schedule = spec.sched.to_string();
  meta.cores = spec.threads;
  meta.truncated = run.truncated;
  euno::check::write_history_json(f, run.history, meta);
  std::fclose(f);
}

void print_violations(const LinSpec& spec, const LinRun& run) {
  for (const auto& v : run.check.violations) {
    std::fputs(euno::check::describe_violation(v).c_str(), stderr);
  }
  std::fprintf(stderr, "replay: lin_explore --replay='%s'\n",
               spec.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  if (!o.replay.empty()) {
    const auto spec = LinSpec::parse(o.replay);
    if (!spec) usage_and_exit(o.replay.c_str());
    const LinRun run = euno::check::run_lin(*spec);
    if (!o.history_path.empty()) write_history(o.history_path, *spec, run);
    std::printf("%s\n  ops=%zu keys=%zu segments=%zu states=%llu %s\n",
                spec->to_string().c_str(), run.history.size(),
                run.check.keys_checked, run.check.segments,
                static_cast<unsigned long long>(run.check.states_explored),
                run.check.ok ? "OK" : "VIOLATION");
    if (!run.check.ok) print_violations(*spec, run);
    return run.check.ok ? 0 : 1;
  }

  euno::stats::Table table(
      {"tree", "schedule", "runs", "ops", "keys", "segments", "states",
       "violations"});
  bool any_violation = false;
  std::optional<std::pair<LinSpec, LinRun>> to_dump;  // first run (or first bad)

  if (o.mode == SchedulePolicy::Mode::kSystematic) {
    // One bounded DFS per tree; trees fan out across jobs.
    struct KindResult {
      std::uint64_t runs = 0, states = 0, ops = 0, keys = 0, segs = 0;
      std::vector<std::pair<LinSpec, LinRun>> bad;
      std::optional<std::pair<LinSpec, LinRun>> first;
    };
    std::vector<KindResult> results(o.trees.size());
    euno::driver::parallel_for_each(
        o.trees.size(), o.jobs, [&](std::size_t ti) {
          KindResult& r = results[ti];
          ExploreOptions eo;
          eo.max_preemptions = o.budget;
          eo.max_schedules = o.max_schedules;
          ScheduleExplorer explorer(eo);
          while (auto prefix = explorer.next()) {
            LinSpec spec = base_spec(o, o.trees[ti]);
            spec.sched.choices = *prefix;
            LinRun run = euno::check::run_lin(spec);
            explorer.report(run.decisions);
            ++r.runs;
            r.states += run.check.states_explored;
            r.ops += run.history.size();
            r.keys += run.check.keys_checked;
            r.segs += run.check.segments;
            if (!run.check.ok) r.bad.emplace_back(spec, std::move(run));
            else if (!r.first) r.first.emplace(spec, std::move(run));
          }
        });
    for (std::size_t ti = 0; ti < o.trees.size(); ++ti) {
      auto& r = results[ti];
      LinSpec spec = base_spec(o, o.trees[ti]);
      table.add_row({o.trees[ti],
                     spec.sched.to_string(), euno::stats::Table::num(r.runs),
                     euno::stats::Table::num(r.ops),
                     euno::stats::Table::num(r.keys),
                     euno::stats::Table::num(r.segs),
                     euno::stats::Table::num(r.states),
                     euno::stats::Table::num(static_cast<std::uint64_t>(r.bad.size()))});
      for (auto& [spec_b, run_b] : r.bad) {
        any_violation = true;
        print_violations(spec_b, run_b);
        // Prefer dumping a violating run; keep the first one found.
        if (!to_dump || to_dump->second.check.ok)
          to_dump.emplace(spec_b, std::move(run_b));
      }
      if (!to_dump && r.first) to_dump = std::move(r.first);
    }
  } else {
    // det: one schedule per tree. rand: `seeds` schedules per tree.
    std::vector<LinSpec> specs;
    for (const auto& k : o.trees) {
      if (o.mode == SchedulePolicy::Mode::kDeterministic) {
        specs.push_back(base_spec(o, k));
        continue;
      }
      for (std::uint64_t s = 0; s < o.seeds; ++s) {
        LinSpec spec = base_spec(o, k);
        spec.sched.seed = o.seed0 + s;
        specs.push_back(spec);
      }
    }
    std::vector<LinRun> runs(specs.size());
    euno::driver::parallel_for_each(specs.size(), o.jobs, [&](std::size_t i) {
      runs[i] = euno::check::run_lin(specs[i]);
    });
    // Aggregate per tree for the table; report violations per run.
    std::size_t i = 0;
    for (const auto& k : o.trees) {
      const std::size_t per =
          o.mode == SchedulePolicy::Mode::kDeterministic ? 1 : o.seeds;
      std::uint64_t ops = 0, keys = 0, segs = 0, states = 0, bad = 0;
      for (std::size_t j = 0; j < per; ++j, ++i) {
        ops += runs[i].history.size();
        keys += runs[i].check.keys_checked;
        segs += runs[i].check.segments;
        states += runs[i].check.states_explored;
        if (!runs[i].check.ok) {
          ++bad;
          any_violation = true;
          print_violations(specs[i], runs[i]);
          if (!to_dump || to_dump->second.check.ok)
            to_dump.emplace(specs[i], runs[i]);
        } else if (!to_dump) {
          to_dump.emplace(specs[i], runs[i]);
        }
      }
      LinSpec spec = base_spec(o, k);
      table.add_row({k, spec.sched.to_string(),
                     euno::stats::Table::num(static_cast<std::uint64_t>(per)),
                     euno::stats::Table::num(ops), euno::stats::Table::num(keys),
                     euno::stats::Table::num(segs),
                     euno::stats::Table::num(states),
                     euno::stats::Table::num(bad)});
    }
  }

  table.print(o.csv);
  if (!o.history_path.empty() && to_dump)
    write_history(o.history_path, to_dump->first, to_dump->second);
  return any_violation ? 1 : 0;
}
