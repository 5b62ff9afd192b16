// Simulated execution context: fibers on the simulated multicore.
//
// Every shared-memory access runs the full simulator protocol (doom check,
// HTM conflict detection/set tracking, coherence cost) before the raw
// load/store. txn() is the shared retry loop (retry_loop.hpp); SimCtx
// supplies its simulated-machine primitives, with aborts delivered as
// sim::TxAbortException instead of hardware rollback.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "ctx/common.hpp"
#include "ctx/retry_loop.hpp"
#include "sim/engine.hpp"
#include "sim/txabort.hpp"

namespace euno::ctx {

/// API-symmetric alias: the simulation object is the long-lived engine env.
using SimEnv = sim::Simulation;

class SimCtx : public RetryLoop<SimCtx> {
 public:
  SimCtx(sim::Simulation& simulation, int core)
      : RetryLoop(core), sim_(&simulation), core_(core) {}

  int tid() const { return core_; }
  sim::Simulation& simulation() { return *sim_; }

  /// This core's simulated clock (cycles); the timestamp source for the
  /// per-op latency histograms and the deadline clock.
  std::uint64_t now() const { return sim_->clock_of(core_); }

  [[noreturn]] void tx_abort_user() {
    sim_->htm().tx_abort_explicit(core_, htm::xabort_code::kUser);
  }

  // ---- shared memory ----

  template <class T>
  T read(const T& src) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    sim_->mem_access(const_cast<T*>(&src), sizeof(T), /*is_write=*/false);
    return src;
  }

  template <class T>
  void write(T& dst, T val) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    sim_->mem_access(&dst, sizeof(T), /*is_write=*/true);
    dst = val;
  }

  // ---- atomics ----
  // Fibers interleave only at instrumented points, so plain operations on the
  // underlying storage are atomic by construction; the simulator still runs
  // the conflict protocol (a CAS is an exclusive-ownership request even when
  // it fails) and charges RMW cost.

  template <class T>
  T atomic_load(const std::atomic<T>& a) {
    sim_->mem_access(const_cast<std::atomic<T>*>(&a), sizeof(T), false);
    return a.load(std::memory_order_relaxed);
  }

  template <class T>
  void atomic_store(std::atomic<T>& a, T v) {
    sim_->mem_access(&a, sizeof(T), true);
    a.store(v, std::memory_order_relaxed);
  }

  template <class T>
  bool cas(std::atomic<T>& a, T expect, T desired) {
    sim_->mem_access(&a, sizeof(T), true, sim_->config().costs.atomic_rmw);
    return a.compare_exchange_strong(expect, desired, std::memory_order_relaxed);
  }

  template <class T>
  T fetch_or(std::atomic<T>& a, T v) {
    sim_->mem_access(&a, sizeof(T), true, sim_->config().costs.atomic_rmw);
    return a.fetch_or(v, std::memory_order_relaxed);
  }

  template <class T>
  T fetch_and(std::atomic<T>& a, T v) {
    sim_->mem_access(&a, sizeof(T), true, sim_->config().costs.atomic_rmw);
    return a.fetch_and(v, std::memory_order_relaxed);
  }

  template <class T>
  T fetch_add(std::atomic<T>& a, T v) {
    sim_->mem_access(&a, sizeof(T), true, sim_->config().costs.atomic_rmw);
    return a.fetch_add(v, std::memory_order_relaxed);
  }

  // ---- allocation ----

  void* alloc(std::size_t bytes, MemClass cls, sim::LineKind kind) {
    void* p = sim_->arena().alloc(bytes, cls, kind);
    sim_->htm().note_tx_alloc(core_, p, bytes, cls);
    if (sim_->in_fiber()) sim_->charge(sim_->config().costs.alloc);
    return p;
  }

  void free(void* p, std::size_t bytes, MemClass cls) {
    // Frees inside a transaction take effect at commit (abort must be able to
    // leave the memory intact).
    if (!sim_->htm().defer_tx_free(core_, p, bytes, cls)) {
      sim_->arena().free(p, bytes, cls);
    }
    if (sim_->in_fiber()) sim_->charge(sim_->config().costs.alloc);
  }

  void tag_memory(void* p, std::size_t bytes, sim::LineKind kind) {
    sim_->arena().tag(p, bytes, kind);
  }

  /// Deleter usable from any fiber at any later time (epoch reclamation).
  std::function<void(void*)> make_deleter(std::size_t bytes, MemClass cls) {
    return [sim = sim_, bytes, cls](void* p) { sim->arena().free(p, bytes, cls); };
  }

  // ---- annotations ----

  void note_event(TraceCode code, std::uint8_t a = 0, std::uint8_t b = 0) {
    sim_->record_trace(static_cast<std::uint8_t>(code), a, b);
  }

  /// Annotate a freshly allocated tree node for contention attribution:
  /// level 0 = leaf, 1+ = interior. No-op unless the experiment enabled the
  /// contention channel.
  void note_node(void* p, std::size_t bytes, std::uint8_t level) {
    obs::NodeRegistry* reg = sim_->node_registry();
    if (reg != nullptr) {
      reg->register_node(sim_->arena().line_index(p), (bytes + 63) / 64, level);
    }
  }
  void set_op_target(std::uint64_t key) { sim_->htm().set_op_target(core_, key); }
  void clear_op_target() { sim_->htm().clear_op_target(core_); }
  void compute(std::uint64_t n) { sim_->compute(n); }
  void spin_pause() { sim_->spin_wait(); }

  /// Software prefetch hint. Meaningless under simulation (the cost model
  /// charges per instrumented access, and a hint must not move simulated
  /// time), so this is a no-op; NativeCtx maps it to real prefetch
  /// instructions.
  void prefetch(const void*, std::size_t = 0) const {}

 private:
  friend class RetryLoop<SimCtx>;

  // ---- RetryLoop backend (retry_loop.hpp) ----

  static constexpr bool htm_available() { return true; }
  bool lock_held(FallbackLock& lock) { return atomic_load(lock.word) != 0; }
  /// Lock-wait and backoff are accounted in simulated cycles.
  std::uint64_t wait_clock() const { return now(); }
  void wait(std::uint32_t n) { sim_->charge(n); }
  void pause() { spin_pause(); }

  template <class Body>
  Attempt attempt(TxSite site, FallbackLock& lock, Body& body) {
    auto& htm_model = sim_->htm();
    const auto& cfg = sim_->config();
    const std::uint64_t start = now();
    note_event(TraceCode::kTxBegin, static_cast<std::uint8_t>(site), 0);
    htm_model.tx_begin(core_);
    sim_->charge(cfg.htm.tx_begin_cost);
    Attempt a;
    try {
      // Subscribe the fallback lock inside the transaction. Subscription
      // at begin is load-bearing: checking the lock any later could let a
      // transaction observe partial multi-line state of a fallback
      // holder's critical section with no conflict ever firing.
      if (atomic_load(lock.word) != 0) {
        htm_model.tx_abort_explicit(core_, htm::xabort_code::kFallbackLocked);
      }
      // Schedule-exploration hooks (no-op under the default policy): may
      // deschedule this fiber with the transaction open, or doom it on
      // the spot (throws through the explicit-abort path).
      sim_->sched_tx_begin(core_);
      body();
      htm_model.tx_commit(core_);
      a.committed = true;
    } catch (const sim::TxAbortException& e) {
      // CAUTION: every fiber shares this OS thread's __cxa_eh_globals, so
      // no scheduling point may occur while an exception is alive — the
      // catch clause only copies the result; all handling (which charges
      // simulated time and may yield) happens after the handler ends.
      a.result = e.result;
    }
    if (a.committed) {
      sim_->charge(cfg.htm.tx_commit_cost);
      sim_->counters(core_).cycles_in_tx += now() - start;
      return a;
    }
    htm_model.on_abort_handled(core_);
    sim_->charge(cfg.htm.abort_penalty);
    a.abort_at = now();
    a.wasted = a.abort_at - start;
    sim_->counters(core_).cycles_wasted += a.wasted;
    htm::TxResult& r = a.result;
    if (r.reason == htm::AbortReason::kExplicit &&
        r.xabort_payload == htm::xabort_code::kFallbackLocked) {
      r.reason = htm::AbortReason::kLockBusy;
    }
    if (r.xabort_payload == htm::xabort_code::kFaultInjected) {
      // Injection attribution: bursts arrive as explicit aborts, spurious
      // per-access aborts as kOther (both tagged with the 0xA5 payload).
      const obs::FaultArg arg = r.reason == htm::AbortReason::kExplicit
                                    ? obs::FaultArg::kBurst
                                    : obs::FaultArg::kSpurious;
      note_event(TraceCode::kFaultInjected, static_cast<std::uint8_t>(arg), 0);
    }
    return a;
  }

  void acquire_fallback(FallbackLock& lock) {
    while (!cas<std::uint32_t>(lock.word, 0, 1)) spin_pause();
  }
  /// Lock-holder-delay fault injection: the acquirer is "preempted" with
  /// the lock held. The stall is charged before the body, so every waiter
  /// sees the full delayed-release window.
  void after_acquire() {
    const std::uint64_t hold = sim_->htm().fault_lock_hold_delay();
    if (hold != 0) {
      note_event(TraceCode::kFaultInjected,
                 static_cast<std::uint8_t>(obs::FaultArg::kLockHolderDelay), 0);
      sim_->charge(hold);
    }
  }
  void release_fallback(FallbackLock& lock) {
    atomic_store<std::uint32_t>(lock.word, 0);
  }

  sim::Simulation* sim_;
  int core_;
};

}  // namespace euno::ctx
