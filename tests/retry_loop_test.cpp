// The shared HTM retry loop (ctx/retry_loop.hpp) driven by a scripted
// backend with native semantics: lock-wait counted in pause units. Each HTM
// attempt replays a scripted _xbegin status word through the real
// htm::rtm_decode and lock-held polls are scripted too, so the native RTM
// branch of the loop — budgets, backoff, anti-lemming waiting, the spin-cap
// timeouts, health degradation and the starvation escape — is checked
// exactly on any host, RTM or not.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "ctx/retry_loop.hpp"
#include "htm/rtm.hpp"
#include "util/rng.hpp"

namespace euno::tests {
namespace {

using ctx::FallbackLock;
using ctx::TraceCode;
using ctx::TxnOutcome;
using ctx::TxSite;
using htm::AbortReason;
using htm::RetryPolicy;
using htm::TxStats;

constexpr unsigned kCommit = htm::rtm_status::kStarted;
constexpr unsigned kConflict =
    htm::rtm_status::kConflict | htm::rtm_status::kRetry;
constexpr unsigned kCapacity = htm::rtm_status::kCapacity;
constexpr unsigned kLockedAbort = htm::rtm_status::with_code(
    htm::rtm_status::kExplicit, htm::xabort_code::kFallbackLocked);

class ScriptedCtx : public ctx::RetryLoop<ScriptedCtx> {
 public:
  explicit ScriptedCtx(int id = 0) : RetryLoop(id) {}

  // ---- script ----
  bool rtm = true;
  std::deque<unsigned> statuses;  // one _xbegin status word per HTM attempt
  // Consumed one entry per pre-attempt wait: that many polls see the lock
  // held, then it is released. Empty = never held.
  std::deque<std::uint32_t> held;

  // ---- record ----
  std::uint64_t relaxed = 0;  // the wait clock: pause/wait units
  std::vector<std::uint32_t> waits;
  std::vector<TraceCode> events;
  int body_runs = 0;

  // ---- RetryLoop backend ----
  bool htm_available() const { return rtm; }
  bool lock_held(FallbackLock&) {
    if (held.empty()) return false;
    if (held.front() == 0) {
      held.pop_front();
      return false;
    }
    --held.front();
    return true;
  }
  std::uint64_t now() const { return 0; }  // read only with an observer
  std::uint64_t wait_clock() const { return relaxed; }
  void wait(std::uint32_t n) {
    relaxed += n;
    waits.push_back(n);
  }
  void pause() { ++relaxed; }
  template <class Body>
  ctx::Attempt attempt(TxSite, FallbackLock&, Body& body) {
    ctx::Attempt a;
    if (statuses.empty()) {
      ADD_FAILURE() << "script ran out of status words";
      a.committed = true;
      return a;
    }
    const unsigned status = statuses.front();
    statuses.pop_front();
    if (status == kCommit) {
      body();
      a.committed = true;
    } else {
      a.result = htm::rtm_decode(status);
    }
    return a;
  }
  void note_event(TraceCode code, std::uint8_t = 0, std::uint8_t = 0) {
    events.push_back(code);
  }
  void acquire_fallback(FallbackLock& lock) {
    EXPECT_EQ(lock.word.exchange(1), 0u);
  }
  void after_acquire() {}
  void release_fallback(FallbackLock& lock) { lock.word.store(0); }

  TxnOutcome txn(FallbackLock& lock, const RetryPolicy& policy) {
    return RetryLoop::txn(TxSite::kMono, lock, policy, [&] { ++body_runs; });
  }
  TxnOutcome try_txn(FallbackLock& lock, const RetryPolicy& policy) {
    return RetryLoop::try_txn(TxSite::kMono, lock, policy,
                              [&] { ++body_runs; });
  }
  const TxStats& st() const { return stats().at(TxSite::kMono); }
  int count(TraceCode code) const {
    int n = 0;
    for (TraceCode e : events) n += e == code;
    return n;
  }
};

std::uint64_t aborts(const TxStats& st, AbortReason r) {
  return st.aborts[static_cast<std::size_t>(r)];
}

/// The loop's jitter stream, modelled independently: seed formula and
/// uniform [d/2, d] draw.
struct JitterModel {
  Xoshiro256 rng;
  explicit JitterModel(int id)
      : rng(0xB0FFull +
            0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(id) + 1)) {}
  std::uint32_t jitter(std::uint32_t d) {
    if (d <= 1) return d;
    return d / 2 + static_cast<std::uint32_t>(rng.next_bounded(d / 2 + 1));
  }
};

TEST(RetryLoop, ConflictStormExhaustsBudgetAndFallsBack) {
  ScriptedCtx c;
  FallbackLock lock;
  const RetryPolicy p;  // naive: 10 conflict retries
  c.statuses.assign(11, kConflict);
  const TxnOutcome out = c.txn(lock, p);
  EXPECT_TRUE(out.committed);
  EXPECT_TRUE(out.used_fallback);
  EXPECT_EQ(out.aborts, 11u);
  EXPECT_EQ(c.st().attempts, 11u);
  EXPECT_EQ(aborts(c.st(), AbortReason::kConflict), 11u);
  EXPECT_EQ(c.st().total_aborts(), 11u);
  EXPECT_EQ(c.st().commits, 1u);
  EXPECT_EQ(c.st().fallbacks, 1u);
  EXPECT_EQ(c.st().backoff_cycles, 0u);
  EXPECT_TRUE(c.waits.empty());
  EXPECT_TRUE(c.statuses.empty());
  EXPECT_EQ(c.body_runs, 1);
  EXPECT_EQ(lock.word.load(), 0u);
  EXPECT_EQ(c.count(TraceCode::kAbort), 11);
  EXPECT_EQ(c.count(TraceCode::kFallbackAcquired), 1);
  EXPECT_EQ(c.count(TraceCode::kFallbackReleased), 1);
  EXPECT_FALSE(c.in_fallback());
}

TEST(RetryLoop, CapacityAbortsNeverBackOff) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.backoff = true;
  c.statuses = {kCapacity, kCapacity, kCapacity};
  const TxnOutcome out = c.txn(lock, p);
  EXPECT_TRUE(out.used_fallback);
  EXPECT_EQ(c.st().attempts, 3u);
  EXPECT_EQ(aborts(c.st(), AbortReason::kCapacity), 3u);
  EXPECT_EQ(c.st().backoff_cycles, 0u);
  EXPECT_TRUE(c.waits.empty());

  // The same policy does back off after a conflict.
  c.statuses = {kConflict, kCommit};
  c.txn(lock, p);
  ASSERT_EQ(c.waits.size(), 1u);
  EXPECT_EQ(c.st().backoff_cycles, c.waits[0]);
  EXPECT_GE(c.waits[0], p.backoff_base / 2);
  EXPECT_LE(c.waits[0], p.backoff_base);
}

TEST(RetryLoop, FallbackLockedAbortRetriesForFree) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.conflict_retries = 0;
  p.capacity_retries = 0;
  p.other_retries = 0;
  c.statuses = {kLockedAbort, kLockedAbort, kLockedAbort, kLockedAbort,
                kLockedAbort, kCommit};
  const TxnOutcome out = c.txn(lock, p);
  EXPECT_TRUE(out.committed);
  EXPECT_FALSE(out.used_fallback);
  EXPECT_EQ(out.aborts, 5u);
  EXPECT_EQ(c.st().attempts, 6u);
  EXPECT_EQ(c.st().commits, 1u);
  EXPECT_EQ(c.st().fallbacks, 0u);
  EXPECT_EQ(aborts(c.st(), AbortReason::kLockBusy), 5u);
  EXPECT_EQ(aborts(c.st(), AbortReason::kExplicit), 0u);
  EXPECT_EQ(c.body_runs, 1);
}

TEST(RetryLoop, StatusZeroCountsAsOther) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.other_retries = 1;
  c.statuses = {0u, 0u};
  const TxnOutcome out = c.txn(lock, p);
  EXPECT_TRUE(out.used_fallback);
  EXPECT_EQ(c.st().attempts, 2u);
  EXPECT_EQ(aborts(c.st(), AbortReason::kOther), 2u);
  EXPECT_EQ(c.st().total_aborts(), 2u);
}

TEST(RetryLoop, BackoffJitterIsDeterministicAndCapped) {
  RetryPolicy p;
  p.backoff = true;
  p.backoff_base = 64;
  p.backoff_cap = 300;
  p.conflict_retries = 8;
  const auto run = [&](int id) {
    ScriptedCtx c(id);
    FallbackLock lock;
    c.statuses.assign(9, kConflict);
    c.txn(lock, p);
    EXPECT_EQ(c.st().attempts, 9u);
    std::uint64_t sum = 0;
    for (std::uint32_t w : c.waits) sum += w;
    EXPECT_EQ(c.st().backoff_cycles, sum);
    return c.waits;
  };
  const std::vector<std::uint32_t> waits = run(3);
  // Eight backoffs: none after the abort that exhausts the budget.
  ASSERT_EQ(waits.size(), 8u);
  JitterModel model(3);
  for (std::size_t i = 0; i < waits.size(); ++i) {
    const std::uint32_t d = std::min<std::uint32_t>(64u << i, 300u);
    EXPECT_GE(waits[i], d / 2) << i;
    EXPECT_LE(waits[i], d) << i;
    EXPECT_LE(waits[i], p.backoff_cap) << i;
    EXPECT_EQ(waits[i], model.jitter(d)) << i;
  }
  EXPECT_EQ(run(3), waits);
  EXPECT_NE(run(4), waits);
}

TEST(RetryLoop, AntiLemmingGraceRearmsBudget) {
  RetryPolicy p;
  p.conflict_retries = 1;
  // Attempt 1 starts at once; attempt 2 first waits out three held polls.
  const auto script = [](ScriptedCtx& c) {
    c.held = {0, 3};
    c.statuses = {kConflict, kConflict, kConflict};
  };
  {
    ScriptedCtx c;
    FallbackLock lock;
    script(c);
    c.txn(lock, p);
    // Naive waiting: one pause per poll, and the budget stays spent.
    EXPECT_EQ(c.st().attempts, 2u);
    EXPECT_EQ(c.st().lock_wait_cycles, 3u);
    EXPECT_EQ(c.st().backoff_cycles, 0u);
    EXPECT_EQ(c.statuses.size(), 1u);
  }
  p.anti_lemming = true;
  ScriptedCtx c(7);
  FallbackLock lock;
  script(c);
  c.txn(lock, p);
  JitterModel model(7);
  const std::uint32_t polls[3] = {model.jitter(32), model.jitter(64),
                                  model.jitter(128)};
  const auto grace =
      static_cast<std::uint32_t>(model.rng.next_bounded(p.rearm_grace + 1));
  ASSERT_NE(grace, 0u);
  // The grace re-armed the budget: one more attempt than the naive run.
  EXPECT_EQ(c.st().attempts, 3u);
  EXPECT_TRUE(c.statuses.empty());
  EXPECT_EQ(c.st().fallbacks, 1u);
  EXPECT_EQ(c.st().lock_wait_cycles,
            std::uint64_t{polls[0]} + polls[1] + polls[2]);
  EXPECT_EQ(c.st().backoff_cycles, grace);
  EXPECT_EQ(c.waits, (std::vector<std::uint32_t>{polls[0], polls[1], polls[2],
                                                 grace}));
}

TEST(RetryLoop, SpinCapCountsTimeoutsButNeverUnsubscribes) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.lock_wait_spin_cap = 4;
  c.held = {10};
  c.statuses = {kCommit};
  const TxnOutcome out = c.txn(lock, p);
  EXPECT_TRUE(out.committed);
  EXPECT_FALSE(out.used_fallback);
  EXPECT_EQ(c.st().lock_wait_timeouts, 2u);
  EXPECT_EQ(c.st().lock_wait_cycles, 10u);
  EXPECT_EQ(c.st().attempts, 1u);
  EXPECT_EQ(c.count(TraceCode::kLockWaitTimeout), 2);
}

TEST(RetryLoop, HealthWindowFlipCountsExactlyOneDegradation) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.conflict_retries = 0;
  p.health_window = 4;
  p.health_min_commit_pct = 50;
  // Each op: one aborted attempt plus its fallback = 2 window attempts, so
  // the second op fills the window at 0% commits.
  c.statuses = {kConflict, kConflict};
  for (int i = 0; i < 5; ++i) c.txn(lock, p);
  EXPECT_EQ(c.st().degradations, 1u);
  EXPECT_EQ(lock.degraded.load(), 1u);
  EXPECT_EQ(c.count(TraceCode::kHtmDegraded), 1);
  // Degraded ops skip HTM entirely.
  EXPECT_EQ(c.st().attempts, 2u);
  EXPECT_EQ(c.st().fallbacks, 5u);
  EXPECT_TRUE(c.statuses.empty());

  // Another thread on the same tree sees the flip but does not count it.
  ScriptedCtx other(1);
  other.txn(lock, p);
  EXPECT_EQ(other.st().degradations, 0u);
  EXPECT_EQ(other.st().fallbacks, 1u);
}

TEST(RetryLoop, StarvationEscapeFiresAfterThreshold) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.conflict_retries = 0;
  p.starvation_threshold = 2;
  c.statuses = {kConflict, kConflict, kCommit};
  c.txn(lock, p);
  c.txn(lock, p);
  EXPECT_EQ(c.st().starvation_escapes, 0u);
  const TxnOutcome escaped = c.txn(lock, p);  // straight to the lock
  EXPECT_TRUE(escaped.used_fallback);
  EXPECT_EQ(escaped.aborts, 0u);
  EXPECT_EQ(c.st().starvation_escapes, 1u);
  EXPECT_EQ(c.count(TraceCode::kStarvationEscape), 1);
  const TxnOutcome next = c.txn(lock, p);  // the escape reset the streak
  EXPECT_FALSE(next.used_fallback);
  EXPECT_EQ(c.st().attempts, 3u);
  EXPECT_EQ(c.st().fallbacks, 3u);
  EXPECT_TRUE(c.statuses.empty());
}

TEST(RetryLoop, TryTxnGivesUpInsteadOfFallingBack) {
  ScriptedCtx c;
  FallbackLock lock;
  RetryPolicy p;
  p.conflict_retries = 1;
  c.statuses = {kConflict, kConflict};
  const TxnOutcome out = c.try_txn(lock, p);
  EXPECT_FALSE(out.committed);
  EXPECT_FALSE(out.used_fallback);
  EXPECT_EQ(out.aborts, 2u);
  EXPECT_EQ(c.st().attempts, 2u);
  EXPECT_EQ(c.st().fallbacks, 0u);
  EXPECT_EQ(c.body_runs, 0);
}

TEST(RetryLoop, WithoutHtmTxnSerializesAndTryTxnGivesUp) {
  ScriptedCtx c;
  c.rtm = false;
  FallbackLock lock;
  RetryPolicy p;
  p.starvation_threshold = 1;
  const TxnOutcome tried = c.try_txn(lock, p);
  EXPECT_FALSE(tried.committed);
  EXPECT_EQ(c.st().attempts, 0u);
  EXPECT_EQ(c.body_runs, 0);
  for (int i = 0; i < 3; ++i) {
    const TxnOutcome out = c.txn(lock, p);
    EXPECT_TRUE(out.used_fallback);
    EXPECT_EQ(out.aborts, 0u);
  }
  // One attempt per txn(), and a machine without HTM does not starve.
  EXPECT_EQ(c.st().attempts, 3u);
  EXPECT_EQ(c.st().fallbacks, 3u);
  EXPECT_EQ(c.st().starvation_escapes, 0u);
  EXPECT_EQ(c.body_runs, 3);
}

}  // namespace
}  // namespace euno::tests
