// Checker self-test: a deliberately broken tree MUST be flagged.
//
// This translation unit is compiled with three seeded-bug defines (see
// tests/CMakeLists.txt), each knocking out one tree policy's load-bearing
// correctness mechanism:
//
//  - EUNO_LIN_MUTATION_SKIP_SEQ_RECHECK: EunoBPTree's get path skips the
//    leaf-seqno re-validation — the exact defense against reading a leaf
//    that split underneath the lookup.
//  - EUNO_LIN_MUTATION_SKIP_EDGE_VALIDATION: RCU-HTM's splice transaction
//    installs its private copy without re-checking the recorded edge set,
//    so a racing splice is silently overwritten (lost updates) and the
//    original is retired twice.
//  - EUNO_LIN_MUTATION_SKIP_MIDDLE_BUMP: the three-path policy's middle
//    path commits without bumping node versions, breaking its handshake
//    with concurrent slow-path validation (torn/stale reads).
//
// Each mutation affects a disjoint tree type, so one binary carries all
// three. The binary compiles the registry sources (builtin_trees.cpp,
// registry.cpp, simd_search.cpp) itself under the same defines and does not
// link euno_trees, so every registry slug it resolves builds a mutated
// instantiation, and no other binary ever links a broken variant. Every test must find a schedule where the seeded
// bug produces a linearizability violation, and that counterexample must
// replay deterministically from its printed spec string.
#include "check/harness.hpp"
#include "repro_main.hpp"

#ifndef EUNO_LIN_MUTATION_SKIP_SEQ_RECHECK
#error "lin_mutation_test must be compiled with EUNO_LIN_MUTATION_SKIP_SEQ_RECHECK"
#endif
#ifndef EUNO_LIN_MUTATION_SKIP_EDGE_VALIDATION
#error "lin_mutation_test must be compiled with EUNO_LIN_MUTATION_SKIP_EDGE_VALIDATION"
#endif
#ifndef EUNO_LIN_MUTATION_SKIP_MIDDLE_BUMP
#error "lin_mutation_test must be compiled with EUNO_LIN_MUTATION_SKIP_MIDDLE_BUMP"
#endif

namespace euno::tests {
namespace {

using check::LinPattern;
using check::LinRun;
using check::LinSpec;

// Sweep schedule seeds until the mutation's race window is actually hit,
// then prove the counterexample replays: same spec => same violation, and
// the printed spec string round-trips through LinSpec::parse for --replay.
LinSpec find_violating_spec(LinSpec (*make_spec)(std::uint64_t)) {
  std::optional<LinSpec> violating;
  for (std::uint64_t seed = 1; seed <= 60 && !violating; ++seed) {
    const LinSpec spec = make_spec(seed);
    const LinRun run = run_lin(spec);
    if (!run.check.ok) violating = spec;
  }
  EXPECT_TRUE(violating.has_value())
      << "no schedule seed in 1..60 exposed the seeded mutation — the "
         "checker or the adversarial scheduler lost its teeth";
  if (!violating) return make_spec(1);
  repro_extra() = "# replay: " + check::lin_repro_line(*violating);
  return *violating;
}

void expect_deterministic_replay(const LinSpec& spec) {
  const LinRun a = run_lin(spec);
  const LinRun b = run_lin(spec);
  ASSERT_FALSE(a.check.ok) << "replay lost the violation";
  ASSERT_FALSE(b.check.ok) << "second replay lost the violation";
  ASSERT_FALSE(a.check.violations.empty());
  ASSERT_EQ(a.check.violations.size(), b.check.violations.size());
  EXPECT_EQ(a.check.violations[0].key, b.check.violations[0].key);
  EXPECT_EQ(a.check.violations[0].segment_index,
            b.check.violations[0].segment_index);
  const auto parsed = LinSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value());
  const LinRun c = run_lin(*parsed);
  EXPECT_FALSE(c.check.ok) << "parsed replay spec lost the violation";
}

LinSpec mutation_spec(std::uint64_t sched_seed) {
  LinSpec spec;
  spec.kind = "euno-markbits";  // markbit config: both mutated sites active
  spec.pattern = LinPattern::kSplitRace;
  // 1 writer + 3 readers, with preloaded even keys spread across the whole
  // insert range so nearly every split moves keys the readers are chasing.
  // Splits keep the left leaf's marks as a conservative superset, so a
  // reader's get on a moved-out key reaches the lower transaction — whose
  // skipped seqno re-check is exactly the seeded bug.
  spec.threads = 4;
  spec.ops_per_thread = 120;
  spec.preload = 40;
  spec.workload_seed = 5;
  spec.sched.mode = sim::SchedulePolicy::Mode::kRandom;
  spec.sched.seed = sched_seed;
  spec.sched.preempt_pct = 100;
  return spec;
}

TEST(LinMutation, BrokenSeqRecheckIsFlaggedAndReplayable) {
  // Sweep schedule seeds until the race window is actually hit — the
  // mutation only misbehaves when a split lands inside a lookup.
  std::optional<LinSpec> violating;
  for (std::uint64_t seed = 1; seed <= 60 && !violating; ++seed) {
    const LinSpec spec = mutation_spec(seed);
    const LinRun run = run_lin(spec);
    if (!run.check.ok) violating = spec;
  }
  ASSERT_TRUE(violating.has_value())
      << "no schedule seed in 1..60 exposed the seeded mutation — the "
         "checker or the adversarial scheduler lost its teeth";
  repro_extra() = "# replay: " + check::lin_repro_line(*violating);

  // The counterexample must replay deterministically: same spec, same
  // violation, twice.
  const LinRun a = run_lin(*violating);
  const LinRun b = run_lin(*violating);
  ASSERT_FALSE(a.check.ok) << "replay lost the violation";
  ASSERT_FALSE(b.check.ok) << "second replay lost the violation";
  ASSERT_FALSE(a.check.violations.empty());
  ASSERT_EQ(a.check.violations.size(), b.check.violations.size());
  EXPECT_EQ(a.check.violations[0].key, b.check.violations[0].key);
  EXPECT_EQ(a.check.violations[0].segment_index,
            b.check.violations[0].segment_index);

  // The violation is a vanished preloaded key: preloads are even keys that
  // are never erased, and the shrunk core names the impossible read.
  const auto& v = a.check.violations[0];
  EXPECT_EQ(v.key % 2, 0u) << "expected a preloaded (even) key";
  EXPECT_FALSE(v.core.empty());
  const std::string text = check::describe_violation(v);
  EXPECT_NE(text.find("violation on key"), std::string::npos);

  // And the printed spec string round-trips for the --replay flow.
  const auto parsed = LinSpec::parse(violating->to_string());
  ASSERT_TRUE(parsed.has_value());
  const LinRun c = run_lin(*parsed);
  EXPECT_FALSE(c.check.ok) << "parsed replay spec lost the violation";
}

// RCU-HTM with edge validation knocked out: two updaters whose windows
// overlap both build private copies from the same snapshot and both splice;
// the second install silently discards the first (a lost update), and the
// doubly-retired original pollutes the arena free list. A small key range
// keeps the contending puts inside the same few leaves so racing splices
// are common; 100% preemption makes the clone/splice window wide.
LinSpec rcu_mutation_spec(std::uint64_t sched_seed) {
  LinSpec spec;
  spec.kind = "rcu-bptree";
  spec.threads = 4;
  spec.ops_per_thread = 80;
  spec.key_range = 24;
  spec.preload = 12;
  spec.workload_seed = 5;
  spec.sched.mode = sim::SchedulePolicy::Mode::kRandom;
  spec.sched.seed = sched_seed;
  spec.sched.preempt_pct = 100;
  return spec;
}

TEST(LinMutation, BrokenRcuEdgeValidationIsFlaggedAndReplayable) {
  const LinSpec spec = find_violating_spec(&rcu_mutation_spec);
  if (HasFailure()) return;
  expect_deterministic_replay(spec);
}

// Three-path with the middle-path version bump knocked out: middle-path
// HTM commits mutate nodes without touching their versions, so concurrent
// slow-path optimistic validation passes on data that changed under it —
// torn or stale reads the checker must flag. The abort storm dooms enough
// fast/middle transactions to force a dense middle-commit / slow-OLC mix
// (both run at stage 0, so no degradation is needed — and the hair-trigger
// degrade monitor would actually hide the bug by rushing to the terminal
// lock-only stage, where the mutation is inert). The small key range keeps
// the mix on the same few leaves; 100% preemption holds slow-path
// read/validate windows open across middle commits.
LinSpec three_path_mutation_spec(std::uint64_t sched_seed) {
  LinSpec spec;
  spec.kind = "3path-bptree";
  spec.threads = 4;
  spec.ops_per_thread = 100;
  spec.key_range = 24;
  spec.preload = 12;
  spec.workload_seed = 5;
  spec.sched.mode = sim::SchedulePolicy::Mode::kRandom;
  spec.sched.seed = sched_seed;
  spec.sched.preempt_pct = 100;
  spec.sched.abort_storm_pct = 50;
  return spec;
}

TEST(LinMutation, BrokenMiddlePathBumpIsFlaggedAndReplayable) {
  const LinSpec spec = find_violating_spec(&three_path_mutation_spec);
  if (HasFailure()) return;
  expect_deterministic_replay(spec);
}

// The mutation must not fire on the deterministic scheduler's serial-ish
// interleavings *every* time — but whatever it produces, the checker result
// itself must stay deterministic for a fixed spec.
TEST(LinMutation, CheckerVerdictIsDeterministicPerSpec) {
  const LinSpec spec = mutation_spec(3);
  const LinRun a = run_lin(spec);
  const LinRun b = run_lin(spec);
  EXPECT_EQ(a.check.ok, b.check.ok);
  EXPECT_EQ(a.check.violations.size(), b.check.violations.size());
  EXPECT_EQ(a.history.size(), b.history.size());
}

}  // namespace
}  // namespace euno::tests

EUNO_TEST_MAIN_WITH_REPRO()
