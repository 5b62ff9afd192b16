// Linearizability sweep: every registered tree under the schedule-exploration
// policies (deterministic, seeded-random preemption, preempt-on-tx-begin,
// abort-storm injection), histories checked by src/check. Plus determinism
// of replay (same spec => identical history) and a bounded systematic
// exploration on a tiny configuration.
#include <string>
#include <vector>

#include "check/euno_variants.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "repro_main.hpp"

namespace euno::tests {
namespace {

using check::LinPattern;
using check::LinRun;
using check::LinSpec;
using sim::SchedulePolicy;

SchedulePolicy rand_policy(std::uint64_t seed, std::uint32_t preempt_pct = 100,
                           bool txp = false, std::uint32_t storm = 0) {
  SchedulePolicy p;
  p.mode = SchedulePolicy::Mode::kRandom;
  p.seed = seed;
  p.preempt_pct = preempt_pct;
  p.preempt_on_tx_begin = txp;
  p.abort_storm_pct = storm;
  return p;
}

std::vector<LinSpec> lin_params() {
  std::vector<LinSpec> specs;
  for (const auto& entry : trees::tree_registry().entries()) {
    const std::string& kind = entry.name;
    // Deterministic heap scheduler (the production interleaving).
    {
      LinSpec s;
      s.kind = kind;
      specs.push_back(s);
    }
    // Seeded random preemption at access granularity.
    {
      LinSpec s;
      s.kind = kind;
      s.sched = rand_policy(7);
      specs.push_back(s);
    }
    // Adversarial: deschedule every fiber right after tx begin, plus a
    // moderate random-preemption background.
    {
      LinSpec s;
      s.kind = kind;
      s.sched = rand_policy(11, 60, /*txp=*/true);
      specs.push_back(s);
    }
    // Abort-storm injection: 25% of transaction begins are doomed on the
    // spot, pushing every tree through its retry and fallback paths.
    {
      LinSpec s;
      s.kind = kind;
      s.sched = rand_policy(13, 40, /*txp=*/false, /*storm=*/25);
      specs.push_back(s);
    }
    // Split-race pattern: readers chase a writer that splits leaves.
    {
      LinSpec s;
      s.kind = kind;
      s.pattern = LinPattern::kSplitRace;
      s.preload = 12;
      s.ops_per_thread = 48;
      s.sched = rand_policy(17);
      specs.push_back(s);
    }
  }
  // Adaptive-enabled Euno variants (full() config: lockbits + adaptation).
  for (const char* kind : {"euno-s2-adaptive", "euno"}) {
    LinSpec s;
    s.kind = kind;
    s.sched = rand_policy(19, 80, /*txp=*/true);
    specs.push_back(s);
  }
  // Graceful degradation under an abort storm: the hardened policy with a
  // hair-trigger health monitor must flip each HTM-using tree to lock-only
  // mid-run without the history ceasing to linearize.
  for (const char* kind : {"htm-bptree", "htm-masstree", "euno-s2-markbits",
                           "euno-markbits"}) {
    LinSpec s;
    s.kind = kind;
    s.degrade = true;
    s.sched = rand_policy(29, 50, /*txp=*/false, /*storm=*/60);
    specs.push_back(s);
  }
  // Three-path degrade chain: the same hair-trigger monitor drives the
  // policy's staged descent fast -> middle+slow -> terminal lock-only
  // mid-run (each stage flip counts one degradation; see the dedicated
  // chain test below for the stage assertions).
  for (const std::uint64_t seed : {29ull, 31ull}) {
    LinSpec s;
    s.kind = "3path-bptree";
    s.degrade = true;
    s.sched = rand_policy(seed, 50, /*txp=*/false, /*storm=*/60);
    specs.push_back(s);
  }
  return specs;
}

class LinCheck : public ::testing::TestWithParam<LinSpec> {};

TEST_P(LinCheck, HistoryIsLinearizable) {
  const LinSpec& spec = GetParam();
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun run = run_lin(spec);
  ASSERT_FALSE(run.history.empty());
  EXPECT_TRUE(run.check.complete)
      << "segment cap exceeded; checker result is partial";
  EXPECT_FALSE(run.truncated) << "scheduler hit the max_steps valve";
  std::string detail;
  for (const auto& v : run.check.violations) detail += describe_violation(v);
  EXPECT_TRUE(run.check.ok) << detail << check::lin_repro_line(spec);
  if (spec.degrade) {
    EXPECT_GE(run.degradations, 1u)
        << "degrade spec never tripped the HTM-health monitor";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrees, LinCheck, ::testing::ValuesIn(lin_params()),
                         [](const ::testing::TestParamInfo<LinSpec>& info) {
                           return info.param.name();
                         });

// Dedicated degrade-chain check: under a violent abort storm the three-path
// policy must walk the whole descent — fast disabled (stage 1), then the
// terminal lock-only mode (stage 2) — mid-run, with the history still
// linearizing across both flips. Each stage flip counts exactly one
// degradation, so the full chain shows as exactly two.
TEST(LinDegradeChain, ThreePathDescendsToTerminalLockOnly) {
  LinSpec spec;
  spec.kind = "3path-bptree";
  spec.degrade = true;
  spec.ops_per_thread = 80;
  spec.sched = rand_policy(29, 50, /*txp=*/false, /*storm=*/60);
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun run = run_lin(spec);
  std::string detail;
  for (const auto& v : run.check.violations) detail += describe_violation(v);
  EXPECT_TRUE(run.check.ok) << detail << check::lin_repro_line(spec);
  EXPECT_EQ(run.degradations, 2u)
      << "expected the full fast->middle->terminal descent";
}

TEST(LinDeterminism, SameSpecSameHistory) {
  LinSpec spec;
  spec.kind = "euno-markbits";
  spec.sched = rand_policy(23, 90, /*txp=*/true, /*storm=*/10);
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun a = run_lin(spec);
  const LinRun b = run_lin(spec);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    ASSERT_EQ(x.inv, y.inv) << "event " << i;
    ASSERT_EQ(x.res, y.res) << "event " << i;
    ASSERT_EQ(x.op, y.op) << "event " << i;
    ASSERT_EQ(x.core, y.core) << "event " << i;
    ASSERT_EQ(x.key, y.key) << "event " << i;
    ASSERT_EQ(x.value, y.value) << "event " << i;
    ASSERT_EQ(x.found, y.found) << "event " << i;
    ASSERT_EQ(x.scan_out, y.scan_out) << "event " << i;
  }
}

TEST(LinDeterminism, SpecStringRoundTrips) {
  LinSpec spec;
  spec.kind = "htm-masstree";
  spec.degrade = true;
  spec.pattern = LinPattern::kSplitRace;
  spec.threads = 2;
  spec.ops_per_thread = 9;
  spec.workload_seed = 99;
  spec.sched = rand_policy(5, 33, true, 7);
  const auto parsed = LinSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value()) << spec.to_string();
  EXPECT_EQ(parsed->to_string(), spec.to_string());
}

// Replay strings that used to crash the run or silently misreport it: an
// empty key range (the workload draws from [0, 0)), more fibers than
// simulated cores, integers with trailing characters (atoi read "3x" as 3),
// names that are not registry slugs, and arenas no tree fits in (arena=0
// failed the mmap, the others ran out mid-preload). All of them must be
// rejected.
TEST(LinDeterminism, SpecStringRejectsMalformedFields) {
  const std::string below_floor =
      "arena=" + std::to_string(check::kLinMinArenaBytes - 1);
  for (const char* bad :
       {"keys=0", "threads=33", "threads=3x", "ops=9x", "keys=16k",
        "preload=8p", "wseed=1z", "arena=64M", "degrade=yes", "kind=EunoS4",
        "kind=Baseline", "arena=0", "arena=1", "arena=64", "arena=1024",
        below_floor.c_str(),
        // Signed, overflowing and out-of-range integers: the same values the
        // lin_explore flags reject, never wrapped or saturated.
        "kind=euno;sched=rand,seed=-1,preempt=60,storm=-1",
        "sched=rand,seed=-1", "sched=rand,storm=-1", "sched=rand,storm=101",
        "sched=rand,preempt=101", "sched=rand,txp=2",
        "sched=rand,seed=18446744073709551616",
        "sched=sys,choices=1.4294967296", "wseed=99999999999999999999",
        "ops=2147483648", "ops=-1", "preload=+8"}) {
    EXPECT_FALSE(LinSpec::parse(bad).has_value()) << bad;
  }
  // The bounds themselves stay valid.
  const auto edge = LinSpec::parse(
      "kind=euno-markbits;threads=32;keys=1;arena=" +
      std::to_string(check::kLinMinArenaBytes));
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->threads, 32);
  EXPECT_EQ(edge->key_range, 1u);
  EXPECT_EQ(edge->arena_bytes, check::kLinMinArenaBytes);
}

// The sweep above follows registry order. This binary adds the checker-only
// Euno variants from a test TU, whose static initializers may run before the
// library's; the registry still lists every builtin first, in its fixed
// order, and the variants after them.
TEST(LinRegistry, BuiltinsComeFirstAndCheckerVariantsLast) {
  std::vector<std::string> names;
  for (const auto& e : trees::tree_registry().entries()) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "htm-bptree", "masstree", "htm-masstree", "euno",
                       "euno-split", "euno-part", "euno-lockbits",
                       "euno-markbits", "lock-bptree", "3path-bptree",
                       "str-htm-bptree", "str-masstree", "str-lock-bptree",
                       "euno-s1-markbits", "euno-s2-markbits",
                       "euno-s8-markbits", "euno-s2-adaptive"}));
}

// Bounded systematic exploration of a tiny configuration: 2 fibers, a few
// ops on one hot key pair. Every explored interleaving must linearize, and
// the explorer must actually deviate from the default schedule.
TEST(LinExplore, SystematicTinyConfigAllSchedulesLinearize) {
  LinSpec spec;
  spec.kind = "euno-s2-markbits";
  spec.threads = 2;
  spec.ops_per_thread = 3;
  spec.key_range = 2;
  spec.preload = 1;
  spec.sched.mode = SchedulePolicy::Mode::kSystematic;
  spec.sched.max_steps = 200000;
  repro_extra() = "# replay: " + check::lin_repro_line(spec);

  check::ExploreOptions eo;
  eo.max_preemptions = 1;
  eo.max_schedules = 48;
  check::ScheduleExplorer explorer(eo);
  std::uint64_t runs = 0;
  std::uint64_t deviating_runs = 0;
  while (auto prefix = explorer.next()) {
    LinSpec s = spec;
    s.sched.choices = *prefix;
    if (!prefix->empty()) ++deviating_runs;
    const LinRun run = run_lin(s);
    std::string detail;
    for (const auto& v : run.check.violations) detail += describe_violation(v);
    ASSERT_TRUE(run.check.ok)
        << detail << "choices prefix len " << prefix->size() << "\n"
        << check::lin_repro_line(s);
    EXPECT_FALSE(run.truncated);
    explorer.report(run.decisions);
    ++runs;
  }
  EXPECT_EQ(runs, explorer.schedules_started());
  EXPECT_GE(runs, 2u) << "explorer never left the default schedule";
  EXPECT_GE(deviating_runs, 1u);
}

}  // namespace
}  // namespace euno::tests

EUNO_TEST_MAIN_WITH_REPRO()
