// The HTM retry/fallback state machine, written once for every execution
// context (DESIGN.md §10).
//
// RetryLoop<Backend> is a CRTP base. SimCtx and NativeCtx derive from it and
// supply only the primitives that really differ between the simulated
// multicore and a real RTM machine; the DBX-style per-reason budgets and the
// hardened-path mechanisms live here, so the two substrates cannot drift
// apart. A Backend provides:
//
//   bool htm_available()                    false: txn() always serializes
//   bool lock_held(FallbackLock&)           the pre-attempt lock poll
//   std::uint64_t now()                     the observer's timeline clock
//   std::uint64_t wait_clock()              the lock-wait accounting clock
//   void wait(std::uint32_t n), pause()     n units of delay / one poll pause
//   Attempt attempt(site, lock, body)       one subscribed HTM attempt
//   void note_event(TraceCode, a, b)        trace event, outside any region
//   void acquire_fallback(FallbackLock&), after_acquire(),
//        release_fallback(FallbackLock&)    the serialized path's lock
//
// An op leaves the loop one of two ways: an HTM commit, or the serialized
// run under the fallback lock (txn()), which try_txn() reports as an
// uncommitted return instead. The only non-local exit is the simulator's
// abort exception, which attempt() catches itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "ctx/common.hpp"
#include "htm/policy.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"

namespace euno::ctx {

/// What one HTM attempt reports back to the loop.
struct Attempt {
  bool committed = false;
  /// Abort cause; a kFallbackLocked explicit abort arrives as kLockBusy.
  htm::TxResult result{};
  /// now() units from begin to abort, and now() at the abort. Only read
  /// when the context has an observer.
  std::uint64_t wasted = 0;
  std::uint64_t abort_at = 0;
};

template <class Backend>
class RetryLoop {
 public:
  SiteStats& stats() { return stats_; }
  const SiteStats& stats() const { return stats_; }

  /// Observability sink for this thread (nullptr = off). The driver hands
  /// each thread its own ThreadObs, so recording is lock-free.
  void set_observer(obs::ThreadObs* o) { obs_ = o; }
  obs::ThreadObs* observer() { return obs_; }

  bool in_fallback() const { return in_fallback_; }

  // ---- transactions ----

  /// Execute `body` atomically: HTM attempts with the fallback lock
  /// subscribed at begin, retried per `policy`, serializing on `lock` when
  /// the budget is exhausted (or the machine has no HTM).
  template <class Body>
  TxnOutcome txn(TxSite site, FallbackLock& lock, const htm::RetryPolicy& policy,
                 Body&& body) {
    return run<true>(site, lock, policy, body);
  }

  /// HTM-only variant: identical retry structure, but budget exhaustion (or
  /// missing HTM) returns (committed=false) instead of serializing on the
  /// fallback lock. Multi-path policies (sync/three_path.hpp) use this to
  /// chain paths.
  template <class Body>
  TxnOutcome try_txn(TxSite site, FallbackLock& lock,
                     const htm::RetryPolicy& policy, Body&& body) {
    return run<false>(site, lock, policy, body);
  }

 protected:
  /// `id` (core or thread id) seeds the jitter stream: deterministic per
  /// thread and distinct across threads.
  explicit RetryLoop(int id)
      : jitter_rng_(0xB0FFull + 0x9E3779B97F4A7C15ull *
                                    (static_cast<std::uint64_t>(id) + 1)) {}

 private:
  Backend& self() { return static_cast<Backend&>(*this); }

  template <bool kAllowFallback, class Body>
  TxnOutcome run(TxSite site, FallbackLock& lock,
                 const htm::RetryPolicy& policy, Body& body) {
    TxnOutcome out;
    htm::TxStats& st = stats_.at(site);

    if constexpr (kAllowFallback) {
      // Permanent HTM-health degradation: straight to the lock.
      if (policy.health_window != 0 &&
          lock.degraded.load(std::memory_order_relaxed) != 0) {
        run_fallback(lock, st, out, body);
        return out;
      }
      // Fairness escape hatch: a thread that exhausted its budget on too many
      // consecutive operations serializes immediately — guaranteed progress.
      if (policy.starvation_threshold != 0 &&
          starved_ops_ >= policy.starvation_threshold) {
        st.starvation_escapes++;
        starved_ops_ = 0;
        self().note_event(TraceCode::kStarvationEscape,
                          static_cast<std::uint8_t>(site), 0);
        run_fallback(lock, st, out, body);
        health_note(lock, policy, st, 1, 0);
        return out;
      }
    }

    const bool has_htm = self().htm_available();
    if (has_htm) {
      if (htm_attempts(site, lock, policy, st, out, body)) {
        return out;
      }
    } else if constexpr (kAllowFallback) {
      st.attempts++;  // no HTM: the serialized run is the op's one attempt
    }
    if constexpr (kAllowFallback) {
      // Only an exhausted HTM budget counts toward starvation.
      if (has_htm && policy.starvation_threshold != 0) starved_ops_++;
      // Acquiring the lock aborts every subscribed transaction; the body
      // then runs plain.
      run_fallback(lock, st, out, body);
      health_note(lock, policy, st, out.aborts + 1, 0);
    }
    return out;
  }

  /// The HTM attempts of one op. True once an attempt commits; false when
  /// the retry budget is exhausted.
  template <class Body>
  bool htm_attempts(TxSite site, FallbackLock& lock,
                    const htm::RetryPolicy& policy, htm::TxStats& st,
                    TxnOutcome& out, Body& body) {
    Backend& b = self();
    int conflict_budget = 0, capacity_budget = 0, other_budget = 0;
    // Per-reason abort streaks: the exponent of the backoff series.
    std::uint32_t streak[static_cast<std::size_t>(htm::AbortReason::kCount)] = {};
    const auto rearm = [&] {
      conflict_budget = policy.conflict_retries;
      capacity_budget = policy.capacity_retries;
      other_budget = policy.other_retries;
      std::fill(std::begin(streak), std::end(streak), 0u);
    };
    rearm();

    for (;;) {
      if (await_release(site, lock, policy, st)) rearm();

      st.attempts++;
      const Attempt a = b.attempt(site, lock, body);
      if (a.committed) {
        st.commits++;
        b.note_event(TraceCode::kTxCommit, static_cast<std::uint8_t>(site), 0);
        if (policy.starvation_threshold != 0) starved_ops_ = 0;
        health_note(lock, policy, st, out.aborts + 1, 1);
        out.committed = true;
        return true;
      }
      const htm::TxResult& r = a.result;
      if (obs_ != nullptr) {
        obs_->abort_wasted.record(a.wasted);
        obs_->series.note_abort(a.abort_at);
      }
      st.note_abort(r);
      out.aborts++;
      b.note_event(TraceCode::kAbort, static_cast<std::uint8_t>(r.reason),
                   static_cast<std::uint8_t>(r.conflict));
      // The transaction never really ran: wait for the release, free of
      // charge.
      if (r.reason == htm::AbortReason::kLockBusy) continue;
      int* budget = &other_budget;
      if (r.reason == htm::AbortReason::kConflict) budget = &conflict_budget;
      if (r.reason == htm::AbortReason::kCapacity) budget = &capacity_budget;
      if (--*budget < 0) return false;
      // Hardened path: seeded-jitter exponential backoff per abort reason,
      // desynchronizing mutually-destructive retry storms. Capacity aborts
      // never back off (the footprint does not shrink by waiting).
      if (policy.backoff && r.reason != htm::AbortReason::kCapacity) {
        const std::uint32_t n = ++streak[static_cast<std::size_t>(r.reason)];
        std::uint64_t d = static_cast<std::uint64_t>(policy.backoff_base)
                          << std::min<std::uint32_t>(n - 1, 16);
        d = std::min<std::uint64_t>(d, policy.backoff_cap);
        const std::uint32_t j = jitter(static_cast<std::uint32_t>(d));
        st.backoff_cycles += j;
        b.wait(j);
      }
    }
  }

  /// Wait while the fallback lock is held: an attempt started now would
  /// abort on its subscription anyway. The naive policy camps on the line;
  /// the anti-lemming policy polls it with exponentially spaced jittered
  /// delays, then after the release waits a jittered grace period and asks
  /// for the retry budget to be re-armed (returns true) instead of
  /// stampeding with the rest of the convoy. Waited units are always
  /// counted, and every lock_wait_spin_cap polls of one episode count a
  /// timeout. The wait itself is unbounded: a holder always releases, since
  /// every serialized body (and every injected lock-hold delay) is finite.
  bool await_release(TxSite site, FallbackLock& lock,
                     const htm::RetryPolicy& policy, htm::TxStats& st) {
    Backend& b = self();
    bool waited = false;
    const std::uint64_t w0 = b.wait_clock();
    std::uint32_t polls = 0;
    std::uint32_t poll_delay = policy.backoff_base;
    while (b.lock_held(lock)) {
      waited = true;
      if (++polls >= policy.lock_wait_spin_cap) {
        polls = 0;
        st.lock_wait_timeouts++;
        b.note_event(TraceCode::kLockWaitTimeout,
                     static_cast<std::uint8_t>(site), 0);
      }
      if (policy.anti_lemming) {
        b.wait(jitter(poll_delay));
        poll_delay = std::min(poll_delay * 2, policy.backoff_cap);
      } else {
        b.pause();
      }
    }
    if (!waited) return false;
    st.lock_wait_cycles += b.wait_clock() - w0;
    if (!policy.anti_lemming) return false;
    const std::uint32_t g =
        policy.rearm_grace != 0
            ? static_cast<std::uint32_t>(
                  jitter_rng_.next_bounded(policy.rearm_grace + 1))
            : 0;
    if (g != 0) {
      st.backoff_cycles += g;
      b.wait(g);
    }
    return true;
  }

  /// Acquire the fallback lock, run the body serially, release. The
  /// acquisition write aborts every subscribed transaction.
  template <class Body>
  void run_fallback(FallbackLock& lock, htm::TxStats& st, TxnOutcome& out,
                    Body& body) {
    Backend& b = self();
    b.acquire_fallback(lock);
    st.fallbacks++;
    if (obs_ != nullptr) obs_->series.note_fallback(b.now());
    b.note_event(TraceCode::kFallback, 0, 0);
    b.note_event(TraceCode::kFallbackAcquired, 0, 0);
    b.after_acquire();
    in_fallback_ = true;
    body();
    in_fallback_ = false;
    b.release_fallback(lock);
    b.note_event(TraceCode::kFallbackReleased, 0, 0);
    st.commits++;
    out.used_fallback = true;
    out.committed = true;
  }

  /// HTM-health monitor (DESIGN.md §10): feed this op's `attempts` HTM
  /// attempts, of which `commits` committed, into the tree's shared window;
  /// when a full window's commit rate stays below the threshold, permanently
  /// degrade the tree to lock-only mode. Host-side relaxed atomics off the
  /// transactional path (zero simulated cost); windows race benignly (a
  /// concurrent reset only delays the verdict).
  void health_note(FallbackLock& lock, const htm::RetryPolicy& policy,
                   htm::TxStats& st, std::uint64_t attempts,
                   std::uint64_t commits) {
    if (policy.health_window == 0) return;
    if (lock.degraded.load(std::memory_order_relaxed) != 0) return;
    const std::uint64_t a =
        lock.health_attempts.fetch_add(attempts, std::memory_order_relaxed) +
        attempts;
    const std::uint64_t c =
        lock.health_commits.fetch_add(commits, std::memory_order_relaxed) +
        commits;
    if (a < policy.health_window) return;
    if (c * 100 < a * policy.health_min_commit_pct) {
      std::uint32_t expect = 0;
      if (lock.degraded.compare_exchange_strong(expect, 1,
                                                std::memory_order_relaxed)) {
        st.degradations++;
        self().note_event(TraceCode::kHtmDegraded, 0, 0);
      }
    } else {
      // Healthy window: start a new one.
      lock.health_attempts.store(0, std::memory_order_relaxed);
      lock.health_commits.store(0, std::memory_order_relaxed);
    }
  }

  /// Seeded jitter: uniform in [d/2, d].
  std::uint32_t jitter(std::uint32_t d) {
    if (d <= 1) return d;
    return d / 2 +
           static_cast<std::uint32_t>(jitter_rng_.next_bounded(d / 2 + 1));
  }

  SiteStats stats_{};
  obs::ThreadObs* obs_ = nullptr;
  bool in_fallback_ = false;
  std::uint32_t starved_ops_ = 0;  // consecutive ops that exhausted the budget
  Xoshiro256 jitter_rng_;
};

}  // namespace euno::ctx
