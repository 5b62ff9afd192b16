// Retry policy and per-thread transaction statistics.
//
// The retry policy reproduces the DBX-style fallback strategy the paper
// reuses (§4.2.1): different thresholds for different abort types, after
// which execution serializes on a fallback lock. On top of the classic
// three budgets, the policy carries the hardened-path knobs (DESIGN.md §10):
// seeded-jitter exponential backoff, anti-lemming lock waiting, a per-thread
// starvation escape hatch and a global HTM-health monitor. Every hardened
// knob defaults to OFF so the default policy executes the naive DBX path
// bit-identically; RetryPolicy::hardened() enables the full set.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "htm/abort.hpp"

namespace euno::htm {

struct RetryPolicy {
  int conflict_retries = 10;  // data conflicts: worth retrying under HTM
  int capacity_retries = 2;   // capacity rarely resolves itself; give up fast
  int other_retries = 4;      // interrupts etc.
  // kLockBusy attempts (fallback lock observed held) wait for release and do
  // not consume retry budget — the transaction never really ran.

  // ---- hardened-path knobs (all default OFF: the naive DBX path) ----

  /// Seeded-jitter exponential backoff after conflict/other aborts: the n-th
  /// abort of a reason waits ~backoff_base << (n-1) cycles (jittered into
  /// [d/2, d], capped at backoff_cap) before retrying, desynchronizing
  /// mutually-destructive retry storms. Capacity aborts never back off —
  /// an oversized footprint does not shrink by waiting.
  bool backoff = false;
  std::uint32_t backoff_base = 32;
  std::uint32_t backoff_cap = 4096;

  /// Anti-lemming lock waiting: instead of camping on the fallback lock's
  /// cache line, waiters poll it with exponentially spaced jittered delays;
  /// after observing the release they wait a jittered grace period (up to
  /// rearm_grace cycles) and re-arm the full retry budget rather than
  /// stampeding into HTM with whatever budget the pre-lock attempts left.
  /// In-transaction subscription at begin is unaffected (it is load-bearing
  /// for correctness; see DESIGN.md §10).
  bool anti_lemming = false;
  std::uint32_t rearm_grace = 256;

  /// Fairness escape hatch: after this many consecutive operations that
  /// exhausted their retry budget (reset by any HTM commit), the thread goes
  /// straight to the fallback lock — guaranteed progress by serialization.
  /// 0 = off.
  std::uint32_t starvation_threshold = 0;

  /// Counted kLockBusy waiting: every this many polls of one
  /// wait-for-release episode count a lock_wait_timeout (the wait itself
  /// continues — mutual exclusion still requires the release).
  std::uint32_t lock_wait_spin_cap = 1u << 20;

  /// HTM-health monitor (glibc-tunable style): when a window of
  /// `health_window` HTM attempts on a tree commits less than
  /// `health_min_commit_pct` percent of them, the tree permanently degrades
  /// to lock-only mode. 0 = monitor off.
  std::uint32_t health_window = 0;
  std::uint32_t health_min_commit_pct = 10;

  /// Budget for a given abort reason.
  int budget_for(AbortReason r) const {
    switch (r) {
      case AbortReason::kConflict: return conflict_retries;
      case AbortReason::kCapacity: return capacity_retries;
      default: return other_retries;
    }
  }

  /// The classic three-budget DBX policy (== default construction).
  static RetryPolicy naive() { return RetryPolicy{}; }

  /// Full hardened preset: backoff + anti-lemming + starvation escape.
  /// The health monitor stays opt-in (it changes the failure semantics, not
  /// just the timing).
  static RetryPolicy hardened() {
    RetryPolicy p;
    p.backoff = true;
    p.backoff_base = 64;
    p.backoff_cap = 8192;
    p.anti_lemming = true;
    p.rearm_grace = 512;
    p.starvation_threshold = 64;
    p.lock_wait_spin_cap = 4096;
    return p;
  }

  /// Rejects inconsistent configurations with a clear error. Called by the
  /// tree constructors, so a bad policy fails loudly at construction instead
  /// of silently misbehaving mid-run.
  void validate() const {
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("RetryPolicy: " + what);
    };
    if (conflict_retries < 0) fail("conflict_retries must be >= 0");
    if (capacity_retries < 0) fail("capacity_retries must be >= 0");
    if (other_retries < 0) fail("other_retries must be >= 0");
    if (backoff && backoff_base == 0) fail("backoff_base must be >= 1");
    if (backoff && backoff_cap < backoff_base) {
      fail("backoff_cap must be >= backoff_base");
    }
    if (lock_wait_spin_cap == 0) fail("lock_wait_spin_cap must be >= 1");
    if (health_window != 0 && health_min_commit_pct > 100) {
      fail("health_min_commit_pct must be <= 100");
    }
  }
};

/// Per-thread transaction counters. Aggregated by the experiment driver.
struct TxStats {
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t fallbacks = 0;  // attempts completed under the fallback lock
  std::array<std::uint64_t, static_cast<std::size_t>(AbortReason::kCount)> aborts{};
  std::array<std::uint64_t, static_cast<std::size_t>(ConflictKind::kCount)> conflicts{};
  // ---- hardened-path accounting (in the context's wait_clock units: sim
  // simulated cycles, native cpu_relax iterations — DESIGN.md §10) ----
  std::uint64_t lock_wait_cycles = 0;    // waiting for fallback-lock release
  std::uint64_t lock_wait_timeouts = 0;  // wait episodes that hit the spin cap
  std::uint64_t backoff_cycles = 0;      // post-abort backoff + re-arm grace
  std::uint64_t starvation_escapes = 0;  // fairness hatch engagements
  std::uint64_t degradations = 0;        // HTM-health flips observed (the
                                         // flipping thread counts exactly one)
  // ---- three-path policy accounting (sync/three_path.hpp; zero for every
  // other policy, and their manifest keys are emitted only when nonzero so
  // pre-existing goldens stay byte-identical)
  std::uint64_t middle_attempts = 0;      // three-path middle-path HTM attempts
  std::uint64_t middle_commits = 0;       // three-path middle-path commits
  std::uint64_t slow_path_ops = 0;        // ops completed on the lock-free-style
                                          // slow path (announced, no HTM)
  // Nodes handed to epoch reclamation by a policy. No current policy counts
  // any (the tree-level EpochManager keeps its own ledger); perfbench reports
  // it as epoch.retired_per_op.
  std::uint64_t epoch_retired = 0;

  void note_abort(const TxResult& r) {
    aborts[static_cast<std::size_t>(r.reason)]++;
    if (r.reason == AbortReason::kConflict) {
      conflicts[static_cast<std::size_t>(r.conflict)]++;
    }
  }

  std::uint64_t total_aborts() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 1; i < aborts.size(); ++i) sum += aborts[i];
    return sum;
  }

  TxStats& operator+=(const TxStats& o) {
    attempts += o.attempts;
    commits += o.commits;
    fallbacks += o.fallbacks;
    for (std::size_t i = 0; i < aborts.size(); ++i) aborts[i] += o.aborts[i];
    for (std::size_t i = 0; i < conflicts.size(); ++i) conflicts[i] += o.conflicts[i];
    lock_wait_cycles += o.lock_wait_cycles;
    lock_wait_timeouts += o.lock_wait_timeouts;
    backoff_cycles += o.backoff_cycles;
    starvation_escapes += o.starvation_escapes;
    degradations += o.degradations;
    middle_attempts += o.middle_attempts;
    middle_commits += o.middle_commits;
    slow_path_ops += o.slow_path_ops;
    epoch_retired += o.epoch_retired;
    return *this;
  }
};

}  // namespace euno::htm
