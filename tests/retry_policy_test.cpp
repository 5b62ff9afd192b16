// RetryPolicy and TxStats unit tests: budget selection for every abort
// reason, construction-time validation of policy and tree configs, preset
// invariants, and the aggregation arithmetic the experiment driver relies on.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/euno_config.hpp"
#include "ctx/sim_ctx.hpp"
#include "htm/policy.hpp"
#include "sim/engine.hpp"
#include "trees/trees.hpp"

namespace euno::tests {
namespace {

using htm::AbortReason;
using htm::ConflictKind;
using htm::RetryPolicy;
using htm::TxResult;
using htm::TxStats;

// ---- budget_for ----

TEST(RetryPolicy, BudgetForEveryReason) {
  RetryPolicy p;
  p.conflict_retries = 7;
  p.capacity_retries = 3;
  p.other_retries = 5;
  EXPECT_EQ(p.budget_for(AbortReason::kConflict), 7);
  EXPECT_EQ(p.budget_for(AbortReason::kCapacity), 3);
  // Everything else draws the "other" budget, including the reasons that
  // never normally reach the budget logic (kNone, kLockBusy).
  EXPECT_EQ(p.budget_for(AbortReason::kExplicit), 5);
  EXPECT_EQ(p.budget_for(AbortReason::kNested), 5);
  EXPECT_EQ(p.budget_for(AbortReason::kOther), 5);
  EXPECT_EQ(p.budget_for(AbortReason::kLockBusy), 5);
  EXPECT_EQ(p.budget_for(AbortReason::kNone), 5);
}

TEST(RetryPolicy, DefaultEqualsNaive) {
  const RetryPolicy d;
  const RetryPolicy n = RetryPolicy::naive();
  EXPECT_EQ(d.conflict_retries, n.conflict_retries);
  EXPECT_EQ(d.capacity_retries, n.capacity_retries);
  EXPECT_EQ(d.other_retries, n.other_retries);
}

TEST(RetryPolicy, HardenedPresetIsValid) {
  const RetryPolicy h = RetryPolicy::hardened();
  EXPECT_TRUE(h.backoff);
  EXPECT_TRUE(h.anti_lemming);
  EXPECT_GT(h.starvation_threshold, 0u);
  // The semantics-changing health monitor stays opt-in.
  EXPECT_EQ(h.health_window, 0u);
  EXPECT_NO_THROW(h.validate());
}

// ---- validate ----

TEST(RetryPolicy, ValidateRejectsNegativeBudgets) {
  RetryPolicy p;
  p.conflict_retries = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.capacity_retries = -2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.other_retries = -3;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(RetryPolicy, ValidateRejectsDegenerateBackoff) {
  RetryPolicy p;
  p.backoff = true;
  p.backoff_base = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.backoff = true;
  p.backoff_base = 128;
  p.backoff_cap = 64;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // A zero base is fine while backoff is off (the knob is inert).
  p = RetryPolicy{};
  p.backoff_base = 0;
  EXPECT_NO_THROW(p.validate());
}

TEST(RetryPolicy, ValidateRejectsZeroSpinCapAndBadHealthPct) {
  RetryPolicy p;
  p.lock_wait_spin_cap = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.health_window = 100;
  p.health_min_commit_pct = 101;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Out-of-range pct is inert while the monitor is off.
  p = RetryPolicy{};
  p.health_min_commit_pct = 101;
  EXPECT_NO_THROW(p.validate());
}

TEST(EunoConfigValidate, RejectsBadTuning) {
  core::EunoConfig cfg;
  cfg.adapt_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::EunoConfig{};
  cfg.sched_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::EunoConfig{};
  cfg.policy.conflict_retries = -5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(core::EunoConfig::full().validate());
}

TEST(EunoConfigValidate, TreeConstructorsRejectBadConfigs) {
  sim::MachineConfig mc;
  mc.arena_bytes = 64ull << 20;
  sim::Simulation simulation(mc);
  ctx::SimCtx c(simulation, 0);

  core::EunoConfig bad = core::EunoConfig::full();
  bad.adapt_window = 0;
  EXPECT_THROW((trees::EunoBPTree<ctx::SimCtx>(c, bad)), std::invalid_argument);

  trees::HtmBPTree<ctx::SimCtx>::Options hopt;
  hopt.policy.other_retries = -1;
  EXPECT_THROW((trees::HtmBPTree<ctx::SimCtx>(c, hopt)), std::invalid_argument);

  trees::OlcBPTree<ctx::SimCtx>::Options oopt;
  oopt.policy.lock_wait_spin_cap = 0;
  EXPECT_THROW((trees::OlcBPTree<ctx::SimCtx>(c, oopt)), std::invalid_argument);
}

// ---- TxStats ----

TEST(TxStats, NoteAbortClassifiesEveryReason) {
  TxStats st;
  TxResult r;
  r.reason = AbortReason::kConflict;
  r.conflict = ConflictKind::kTrueSameRecord;
  st.note_abort(r);
  r.conflict = ConflictKind::kFalseMetadata;
  st.note_abort(r);
  r = TxResult{};
  r.reason = AbortReason::kExplicit;
  r.xabort_payload = htm::xabort_code::kFaultInjected;
  st.note_abort(r);
  r = TxResult{};
  r.reason = AbortReason::kOther;  // "unknown" bucket: interrupts, faults
  st.note_abort(r);
  r = TxResult{};
  r.reason = AbortReason::kLockBusy;
  st.note_abort(r);

  EXPECT_EQ(st.aborts[static_cast<int>(AbortReason::kConflict)], 2u);
  EXPECT_EQ(st.aborts[static_cast<int>(AbortReason::kExplicit)], 1u);
  EXPECT_EQ(st.aborts[static_cast<int>(AbortReason::kOther)], 1u);
  EXPECT_EQ(st.aborts[static_cast<int>(AbortReason::kLockBusy)], 1u);
  // Conflict-kind attribution only applies to conflict aborts.
  EXPECT_EQ(st.conflicts[static_cast<int>(ConflictKind::kTrueSameRecord)], 1u);
  EXPECT_EQ(st.conflicts[static_cast<int>(ConflictKind::kFalseMetadata)], 1u);
  EXPECT_EQ(st.conflicts[static_cast<int>(ConflictKind::kUnknown)], 0u);
  EXPECT_EQ(st.total_aborts(), 5u);
}

TEST(TxStats, TotalAbortsExcludesTheCommittedSlot) {
  TxStats st;
  st.aborts[static_cast<int>(AbortReason::kNone)] = 99;  // never counted
  st.aborts[static_cast<int>(AbortReason::kConflict)] = 2;
  EXPECT_EQ(st.total_aborts(), 2u);
}

TEST(TxStats, AggregationSumsEveryField) {
  TxStats a;
  a.attempts = 10;
  a.commits = 7;
  a.fallbacks = 2;
  a.aborts[static_cast<int>(AbortReason::kConflict)] = 3;
  a.conflicts[static_cast<int>(ConflictKind::kFalseRecord)] = 3;
  a.lock_wait_cycles = 100;
  a.lock_wait_timeouts = 1;
  a.backoff_cycles = 50;
  a.starvation_escapes = 2;
  a.degradations = 1;

  TxStats b = a;
  b += a;
  EXPECT_EQ(b.attempts, 20u);
  EXPECT_EQ(b.commits, 14u);
  EXPECT_EQ(b.fallbacks, 4u);
  EXPECT_EQ(b.aborts[static_cast<int>(AbortReason::kConflict)], 6u);
  EXPECT_EQ(b.conflicts[static_cast<int>(ConflictKind::kFalseRecord)], 6u);
  EXPECT_EQ(b.lock_wait_cycles, 200u);
  EXPECT_EQ(b.lock_wait_timeouts, 2u);
  EXPECT_EQ(b.backoff_cycles, 100u);
  EXPECT_EQ(b.starvation_escapes, 4u);
  EXPECT_EQ(b.degradations, 2u);
  EXPECT_EQ(b.total_aborts(), 6u);
}

}  // namespace
}  // namespace euno::tests
