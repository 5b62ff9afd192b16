// Native execution context: real threads, real Intel RTM.
//
// read/write compile to relaxed atomic loads/stores (plain movs on x86-64 —
// zero overhead, but well-defined under the optimistic races the trees rely
// on). txn() is the shared retry loop (retry_loop.hpp): NativeCtx supplies
// real hardware transactions that elide the per-tree fallback lock; when RTM
// is unavailable (or the budget is exhausted) the loop serializes on the
// lock, so the same binary runs correctly on machines without TSX.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "ctx/common.hpp"
#include "ctx/retry_loop.hpp"
#include "obs/ring.hpp"
#include "htm/rtm.hpp"
#include "sim/line.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/memstats.hpp"
#include "util/spinlock.hpp"
#include "util/tsc.hpp"

namespace euno::ctx {

/// Long-lived engine state shared by all native contexts. (The native engine
/// needs nothing beyond the process heap; this exists for API symmetry with
/// SimEnv and as the factory for per-thread contexts.)
class NativeEnv {
 public:
  explicit NativeEnv(int max_threads = 64) : max_threads_(max_threads) {}
  int max_threads() const { return max_threads_; }

 private:
  int max_threads_;
};

class NativeCtx : public RetryLoop<NativeCtx> {
 public:
  /// Reads and writes hit raw process memory (no instrumentation layer), so
  /// node search may use vectorized kernels that load several slots per
  /// instruction (trees/node/simd_search.hpp). SimCtx lacks this flag: its
  /// per-element instrumented reads define the simulated cost model and the
  /// golden manifests, and must stay scalar.
  static constexpr bool kRawMemory = true;

  NativeCtx(NativeEnv& env, int tid) : RetryLoop(tid), tid_(tid) {
    EUNO_ASSERT(tid >= 0 && tid < env.max_threads());
  }

  int tid() const { return tid_; }

  /// Explicit user abort — only meaningful inside a hardware transaction.
  [[noreturn]] void tx_abort_user() {
    EUNO_ASSERT(in_tx_);
    htm::rtm_abort_user();
  }

  // ---- shared memory ----

  template <class T>
  T read(const T& src) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    // atomic_ref<const T> arrives only in C++26; the const_cast is sound
    // because load() never writes.
    return std::atomic_ref<T>(const_cast<T&>(src)).load(std::memory_order_relaxed);
  }

  template <class T>
  void write(T& dst, T val) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    std::atomic_ref<T>(dst).store(val, std::memory_order_relaxed);
  }

  // ---- atomics (outside HTM regions) ----

  template <class T>
  T atomic_load(const std::atomic<T>& a) {
    return a.load(std::memory_order_acquire);
  }

  template <class T>
  void atomic_store(std::atomic<T>& a, T v) {
    a.store(v, std::memory_order_release);
  }

  template <class T>
  bool cas(std::atomic<T>& a, T expect, T desired) {
    return a.compare_exchange_strong(expect, desired, std::memory_order_acq_rel);
  }

  template <class T>
  T fetch_or(std::atomic<T>& a, T v) {
    return a.fetch_or(v, std::memory_order_acq_rel);
  }

  template <class T>
  T fetch_and(std::atomic<T>& a, T v) {
    return a.fetch_and(v, std::memory_order_acq_rel);
  }

  template <class T>
  T fetch_add(std::atomic<T>& a, T v) {
    return a.fetch_add(v, std::memory_order_acq_rel);
  }

  // ---- allocation ----

  void* alloc(std::size_t bytes, MemClass cls, sim::LineKind /*kind*/) {
    const Block b = block_for(bytes, cls);
    void* p = b.line_aligned
                  ? ::operator new(b.bytes, std::align_val_t{kCacheLineSize})
                  : ::operator new(b.bytes);
    MemStats::instance().note_alloc(cls, b.bytes);
    return p;
  }

  void free(void* p, std::size_t bytes, MemClass cls) {
    release(p, bytes, cls);
  }

  /// Line-kind tagging is a simulator concept; no-op natively.
  void tag_memory(void*, std::size_t, sim::LineKind) {}

  /// Deleter usable from any thread at any later time (epoch reclamation).
  std::function<void(void*)> make_deleter(std::size_t bytes, MemClass cls) {
    return [bytes, cls](void* p) { release(p, bytes, cls); };
  }

  // ---- annotations ----

  /// Record a tree/op event into this thread's ring (no-op without a ring).
  /// Events are dropped while a hardware transaction is open: a ring append
  /// inside the transaction would join its write set (rolled back on abort,
  /// and a fresh source of capacity/conflict aborts).
  void note_event(TraceCode code, std::uint8_t a = 0, std::uint8_t b = 0) {
    if (ring_ == nullptr || in_tx_) return;
    ring_->append(now() - trace_origin_, static_cast<std::uint8_t>(code), a, b);
  }
  void note_node(void*, std::size_t, std::uint8_t) {}
  void set_op_target(std::uint64_t) {}
  void clear_op_target() {}
  void compute(std::uint64_t) {}
  void spin_pause() { cpu_relax(); }

  /// Software prefetch of `bytes` starting at `p` (read intent, all cache
  /// levels): the tree walks hint the next node while validating the
  /// current one. Prefetch never faults, so no address check is needed
  /// beyond null (skipped to avoid polluting the TLB with page-zero walks).
  void prefetch(const void* p, std::size_t bytes = kCacheLineSize) const {
    if (p == nullptr) return;
    const char* q = static_cast<const char*>(p);
    for (std::size_t off = 0; off < bytes; off += kCacheLineSize) {
      __builtin_prefetch(q + off, /*rw=*/0, /*locality=*/3);
    }
  }

  // ---- observability ----

  /// Wall-clock nanoseconds (the native analogue of the simulated cycle
  /// clock; per-op latency histograms and trace timestamps record in this
  /// unit natively). Calibrated-rdtsc fast path, steady_clock fallback when
  /// the host lacks an invariant TSC (util/tsc.hpp).
  std::uint64_t now() const { return util::monotonic_ns(); }

  /// Attach this thread's event ring (obs.trace channel). `origin` — the
  /// run's start in now() units — is subtracted from every timestamp so the
  /// ring's varint clock-deltas stay small and traces start near zero.
  void set_trace_ring(obs::EventRing* ring, std::uint64_t origin) {
    ring_ = ring;
    trace_origin_ = origin;
  }

 private:
  friend class RetryLoop<NativeCtx>;

  // ---- RetryLoop backend (retry_loop.hpp) ----

  static bool htm_available() { return htm::rtm_supported(); }
  bool lock_held(FallbackLock& lock) const {
    return lock.word.load(std::memory_order_acquire) != 0;
  }
  /// Lock-wait and backoff are accounted in pause instructions: wait() and
  /// pause() advance this counter by the cpu_relax()es they issue.
  std::uint64_t wait_clock() const { return relaxed_; }
  void wait(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) cpu_relax();
    relaxed_ += n;
  }
  void pause() {
    cpu_relax();
    ++relaxed_;
  }

  template <class Body>
  Attempt attempt(TxSite site, FallbackLock& lock, Body& body) {
    // Wasted time is stamped only when a ThreadObs consumes it: un-observed
    // runs read no clock. Stamp and trace event come *before* rtm_begin: a
    // ring append inside the transaction would enlarge the write set and be
    // rolled back on abort.
    const bool timed = observer() != nullptr;
    const std::uint64_t begin_ts = timed ? now() : 0;
    note_event(TraceCode::kTxBegin, static_cast<std::uint8_t>(site), 0);
    Attempt a;
    const unsigned status = htm::rtm_begin();
    if (status == htm::rtm_status::kStarted) {
      // Subscribe the fallback lock: brings its line into our read set,
      // so a fallback acquirer aborts us.
      if (lock.word.load(std::memory_order_relaxed) != 0) {
        htm::rtm_abort_fallback_locked();
      }
      in_tx_ = true;
      body();
      in_tx_ = false;
      htm::rtm_end();
      a.committed = true;
      return a;
    }
    in_tx_ = false;
    a.result = htm::rtm_decode(status);
    if (timed) {
      a.abort_at = now();
      a.wasted = a.abort_at - begin_ts;
    }
    return a;
  }

  void acquire_fallback(FallbackLock& lock) {
    for (;;) {
      std::uint32_t expected = 0;
      if (lock.word.compare_exchange_weak(expected, 1,
                                          std::memory_order_acquire)) {
        return;
      }
      while (lock.word.load(std::memory_order_relaxed) != 0) cpu_relax();
    }
  }
  void after_acquire() {}
  void release_fallback(FallbackLock& lock) {
    lock.word.store(0, std::memory_order_release);
  }

  /// How one block sits on the heap. Nodes, CCM and the other classes are
  /// rounded to whole cache lines and line-aligned: their layouts place
  /// headers and records on line boundaries. Bytes-domain boxes are
  /// immutable after publication, so alignment buys them nothing; they take
  /// the default allocator at their own size (the aligned path leaves a
  /// free-list fragment behind each small block).
  struct Block {
    std::size_t bytes;
    bool line_aligned;
  };
  static Block block_for(std::size_t bytes, MemClass cls) {
    if (cls == MemClass::kBytesBox) return Block{bytes, false};
    return Block{cacheline_round_up(bytes), true};
  }
  static void release(void* p, std::size_t bytes, MemClass cls) {
    const Block b = block_for(bytes, cls);
    MemStats::instance().note_free(cls, b.bytes);
    if (b.line_aligned) {
      ::operator delete(p, std::align_val_t{kCacheLineSize});
    } else {
      ::operator delete(p);
    }
  }

  int tid_;
  bool in_tx_ = false;
  obs::EventRing* ring_ = nullptr;
  std::uint64_t trace_origin_ = 0;
  std::uint64_t relaxed_ = 0;  // cpu_relax()es issued by wait()/pause()
};

}  // namespace euno::ctx
