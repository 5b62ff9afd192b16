// The simulated-multicore execution engine.
//
// Each simulated core runs one fiber (its own mmap'd stack; see "Context
// switching" below). The fiber with the smallest simulated clock runs; it
// keeps running until its clock passes the next-smallest runnable clock, at
// which point control moves to that fiber. This realizes a globally
// consistent interleaving at instrumented-access granularity,
// deterministically, on a single OS thread.
//
// Simulated time advances only through charge(): every instrumented memory
// access, atomic, allocation and explicit compute charge moves the current
// fiber's clock by the cost model's cycles. Throughput for an experiment is
// completed-ops / max core clock.
//
// Context switching: one primitive, switch_context(), moves between any two
// contexts (fiber or scheduler). On x86-64 it is a 21-instruction assembly
// routine (engine.cpp) that pushes the callee-saved registers, MXCSR and the
// x87 control word, swaps stack pointers and pops the other side's frame —
// no syscall, no signal mask, no jmp_buf. spawn() writes each fiber's
// initial frame, so a first entry is an ordinary switch that "returns" into
// an entry stub. ASan, TSan and other architectures switch with
// swapcontext instead (ASan annotates every switch with
// __sanitizer_start/finish_switch_fiber); the scheduling above the
// primitive is the same on both paths.
//
// Scheduling structures: under the deterministic policy a fiber that crosses
// the yield threshold hands off *directly* to its successor; run()'s own
// stack is re-entered only when a fiber finishes. The runnable fibers (all
// but the running one) are the leaves of a loser tree (tournament tree)
// keyed by `clock << 5 | spawn index` (kMaxCores = 32 fits in 5 bits), so
// the (clock, spawn index) order is one integer compare and the root is the
// minimum. The yielder's clock is strictly above its threshold, the root's
// clock, so its successor is always the root: a handoff puts the yielder
// into the root's leaf slot and replays that slot's log2(#fibers) matches
// with branch-free selects, and the new root's clock is the successor's
// threshold. Ties break toward the lower spawn index, as in every scheduler
// this engine has had, so interleavings are bit-identical to them. The
// exploration policies (run_scheduled_loop) still return to the scheduler
// stack at every decision.
//
// INVARIANT (exception safety across fibers): all fibers share one OS thread
// and therefore one __cxa_eh_globals. Code running inside a fiber must never
// reach a scheduling point (charge()/mem_access()/spin_wait()) while a C++
// exception is in flight or while executing a catch clause whose exception
// is still alive — interleaved catch lifetimes across fibers corrupt the
// shared caught-exception stack. Catch TxAbortException, copy its 3-byte
// result, leave the handler, then do any charged work. (The same invariant
// keeps every stack switch clear of a live exception.)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ucontext.h>
#include <vector>

#include "obs/contention.hpp"
#include "obs/event.hpp"
#include "obs/ring.hpp"
#include "sim/arena.hpp"
#include "sim/htm.hpp"
#include "sim/machine.hpp"
#include "sim/memmodel.hpp"
#include "sim/schedule.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

// Sanitizers cannot follow a hand-rolled stack switch: TSan loses the
// happens-before graph and ASan's shadow stack bookkeeping follows the OS
// thread. Under either sanitizer (and off x86-64) we switch with ucontext
// (and, for ASan, annotate every switch with
// __sanitizer_start/finish_switch_fiber — see engine.cpp).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define EUNO_SIM_UCONTEXT_ONLY 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define EUNO_SIM_UCONTEXT_ONLY 1
#endif
#endif
#if !defined(EUNO_SIM_UCONTEXT_ONLY) && defined(__linux__) && defined(__x86_64__)
#define EUNO_SIM_FAST_SWITCH 1
#endif

namespace euno::sim {

/// One recorded simulation event (aborts, fallbacks, tx/op boundaries, run
/// slices, ...). Cheap and fixed-size; recording is off unless
/// enable_trace() was called. The canonical type lives in obs/event.hpp.
using TraceEvent = obs::TraceEvent;

/// Per-core cost/usage counters (simulated).
struct CoreCounters {
  std::uint64_t instructions = 0;   // instrumented ops + explicit compute
  std::uint64_t mem_accesses = 0;
  std::uint64_t cycles_in_tx = 0;      // cycles spent inside transactions
  std::uint64_t cycles_wasted = 0;     // cycles of aborted transaction attempts
  std::uint64_t cycles_spinning = 0;   // cycles in spin-wait loops
};

class Simulation {
 public:
  explicit Simulation(MachineConfig cfg = MachineConfig{});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Register a fiber pinned to simulated core `core`. The body runs inside
  /// the simulation; it receives the core id. Must be called before run().
  void spawn(int core, std::function<void(int)> body);

  /// Run until every spawned fiber finishes.
  void run();

  // ---- facilities callable from inside fiber bodies ----

  /// Advance the current fiber's clock; may transfer control to another
  /// fiber (and return later). Header-inline: the common case is "add and
  /// keep running"; only crossing the yield threshold switches fibers.
  void charge(std::uint64_t cycles) {
    Fiber* f = current_;
    if (f == nullptr) return;  // setup/teardown outside the simulation is free
    f->clock += cycles;
    if (f->clock > yield_threshold_) [[unlikely]] yield();
  }

  /// Full memory-access protocol: doom check, HTM conflict handling &
  /// set tracking, coherence cost. The caller performs the raw load/store
  /// immediately after this returns (no scheduling point intervenes).
  /// Throws TxAbortException on aborts. `extra_cycles` folds additional
  /// cost (e.g. an RMW's) into the single pre-access charge.
  void mem_access(void* addr, std::size_t size, bool is_write,
                  std::uint32_t extra_cycles = 0) {
    // Outside any fiber (single-threaded setup/verification) accesses are
    // uninstrumented: there are no in-flight transactions and no clock.
    Fiber* f = current_;
    if (f == nullptr) return;
    // Global real-time axis: one tick per instrumented access. History
    // recording (src/check) stamps operation invoke/response with this
    // counter, which stays a valid execution order under every schedule
    // policy (per-core clocks only order execution under the deterministic
    // policy).
    ++step_;
    const int core = f->core;
    htm_->check_doomed(core);

    // Charge first: charge() is the engine's only scheduling point, and it
    // must happen *before* the conflict protocol so that the protocol, the
    // coherence update and the caller's raw load/store form one indivisible
    // step in the global interleaving. (Running the protocol before a yield
    // opens two races: our own transaction can be doomed while suspended and
    // then leak a zombie write, or another core can start a transaction on
    // this line and we would miss the conflict.) The cost is estimated from
    // the pre-access coherence state.
    LineState& line = arena_->line_of(addr);
    auto& c = counters_[core];
    c.instructions += 1;
    c.mem_accesses += 1;
    f->clock += cfg_.costs.instr +
                peek_cost(line, core, is_write, cfg_, f->clock) + extra_cycles;
    if (f->clock > yield_threshold_) [[unlikely]] yield();

    // Post-yield: raise any abort delivered while suspended, then run the
    // conflict protocol and coherence transition. The caller's raw access
    // follows immediately with no intervening scheduling point.
    htm_->check_doomed(core);
    htm_->on_access(core, addr, size, is_write);
    apply_access(line, core, is_write, f->clock);
  }

  /// A scheduling point with spin cost (used by simulated spin loops).
  void spin_wait();

  /// Explicit compute work (`n` abstract instructions at 1 cycle each).
  void compute(std::uint64_t n);

  int current_core() const;
  bool in_fiber() const { return current_ != nullptr; }

  std::uint64_t clock_of(int core) const {
    const auto i = static_cast<std::size_t>(core);
    return i < core_fiber_.size() && core_fiber_[i] != nullptr
               ? core_fiber_[i]->clock
               : 0;
  }
  std::uint64_t max_clock() const;
  CoreCounters& counters(int core) { return counters_[core]; }

  /// Stack switches performed so far (scheduler -> fiber, fiber -> fiber
  /// and fiber -> scheduler). Host-independent: a function of the simulated
  /// interleaving only.
  std::uint64_t switch_count() const { return switches_; }

  SharedArena& arena() { return *arena_; }
  SimHTM& htm() { return *htm_; }
  const MachineConfig& config() const { return cfg_; }

  /// Injected-fault counters of the run so far (sim/fault.hpp; all zero
  /// unless MachineConfig::fault armed a campaign).
  const FaultCounters& fault_counters() const { return htm_->fault_counters(); }

  /// Event tracing (timeline analyses, --trace export; off by default).
  /// Events land in per-core rings (compact varint/delta encoding; see
  /// obs/ring.hpp) so recording never interleaves cores; trace_events()
  /// decodes and merges them back into one clock-ordered stream.
  void enable_trace();
  bool trace_enabled() const { return trace_on_; }
  void record_trace(std::uint8_t code, std::uint8_t a, std::uint8_t b) {
    // active_ring_ is non-null exactly while a fiber runs with tracing on
    // (begin_slice caches &trace_buf_[core] for each run slice), so the
    // disabled-tracing hot path is a single pointer test.
    if (active_ring_ != nullptr) [[unlikely]] {
      active_ring_->append(current_->clock, code, a, b);
    }
  }
  /// All recorded events merged across cores, ordered by clock (stable: a
  /// core's own events keep their recording order, equal clocks keep core
  /// order — bit-identical to the concat+stable_sort this replaced).
  /// Decodes eagerly; for the cheap hand-off used by experiments, see
  /// take_trace().
  std::vector<TraceEvent> trace_events() const;

  /// Move the recorded trace out of the engine, still encoded (no decode or
  /// merge — a pointer move; the caller decodes lazily via
  /// obs::TraceStream::merged()). The engine's buffers reset to empty.
  obs::TraceStream take_trace();

  /// Contention attribution (off by default): conflict aborts recorded into
  /// `map`, node annotations from the trees into `reg`. Both are caller-owned
  /// and must outlive run(). Pass nullptrs to disable again.
  void enable_contention(obs::ContentionMap* map, obs::NodeRegistry* reg);
  obs::NodeRegistry* node_registry() { return node_registry_; }

  // ---- schedule exploration (src/sim/schedule.hpp, src/check) ----

  /// Install a schedule policy. Must be called before run(). The default
  /// policy keeps the direct-handoff deterministic scheduler; anything else
  /// routes run() through the generic decision loop.
  void set_schedule_policy(SchedulePolicy p);
  const SchedulePolicy& schedule_policy() const { return sched_.policy; }

  /// Monotone count of instrumented accesses — the global real-time axis of
  /// the run under any schedule policy. Reading it never advances simulated
  /// time (history recording is free in simulated cycles).
  std::uint64_t global_step() const { return step_; }

  /// Branch points recorded by the last run() in systematic mode, in
  /// decision order (empty in other modes).
  const std::vector<ScheduleDecision>& schedule_decisions() const {
    return sched_.decisions;
  }
  /// True when the last run() hit SchedulePolicy::max_steps and fell back to
  /// the deterministic policy to terminate.
  bool schedule_truncated() const { return sched_.truncated; }

  /// Called by SimCtx::attempt right after a transaction begins: applies the
  /// adversarial hooks (preempt-on-tx-begin yields; an abort storm throws
  /// TxAbortException via the explicit-abort path). Inline no-op unless a
  /// hook is armed, so the production txn path is untouched.
  void sched_tx_begin(int core) {
    if (sched_.hooks_armed) [[unlikely]] sched_tx_begin_slow(core);
  }

  /// Internal: fiber entry point (first code run on a fiber's stack).
  [[noreturn]] void fiber_main(int index);

 private:
  /// A suspendable execution: a fiber, or the scheduler (run()'s stack).
  struct Context {
#if defined(EUNO_SIM_FAST_SWITCH)
    void* sp = nullptr;  // saved stack pointer while suspended
#else
    ucontext_t uctx{};
    void* fake_stack = nullptr;  // ASan fake-stack handle while suspended
#endif
    // Lowest usable stack address and size: a fiber's pooled stack, or for
    // the scheduler the bounds ASan reports at the first fiber entry.
    const void* stack = nullptr;
    std::size_t stack_bytes = 0;
  };

  struct Fiber {
    Context ctx;
    std::function<void(int)> body;
    std::uint32_t index = 0;  // spawn index
    int core = -1;
    std::uint64_t clock = 0;
    bool done = false;
  };

  /// Suspend the running context into `from` and resume `to`. Every stack
  /// switch the engine makes goes through here. `from_finished` marks the
  /// final switch out of a fiber (ASan then releases its fake stack).
  void switch_context(Context& from, Context& to, bool from_finished = false);
  /// Slow path of charge(): the running fiber crossed its yield threshold.
  void yield();
  /// Make `f` the running fiber and open its trace run slice.
  void begin_slice(Fiber& f);
  /// Close the running fiber's trace run slice; nothing runs afterwards.
  void end_slice();
  void run_deterministic_loop();
  void run_scheduled_loop();
  /// Pick the next fiber among `runnable` (sorted by fiber index) under the
  /// installed policy. `last` is the fiber index that just yielded (~0u at
  /// the start of the run); `choice_cursor` advances through
  /// policy.choices in systematic mode.
  std::size_t pick_runnable(const std::vector<std::uint32_t>& runnable,
                            std::uint32_t last, std::size_t& choice_cursor);
  std::size_t min_clock_pos(const std::vector<std::uint32_t>& runnable) const;
  void sched_tx_begin_slow(int core);

  MachineConfig cfg_;
  std::unique_ptr<SharedArena> arena_;
  std::unique_ptr<SimHTM> htm_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<CoreCounters> counters_;
  // Deterministic policy: loser tree over packed (clock, spawn index) keys
  // of the runnable fibers, excluding current_ (see "Scheduling
  // structures"), and each runnable fiber's leaf slot in it.
  std::vector<std::uint64_t> tourney_;
  std::array<std::uint32_t, MachineConfig::kMaxCores> slot_of_{};
  Context sched_ctx_;  // run()'s own stack while a fiber runs
  Fiber* current_ = nullptr;
  std::uint64_t yield_threshold_ = ~0ull;
  bool running_ = false;
  bool handoff_ = false;  // yields hand off fiber-to-fiber (deterministic loop)
  bool trace_on_ = false;
  std::vector<obs::EventRing> trace_buf_;  // per core; see enable_trace
  obs::EventRing* active_ring_ = nullptr;  // == &trace_buf_[current core] or null
  // core -> fiber lookup (indexed by core id; fibers_ owns stable pointers),
  // so clock_of() is O(1) — it sits on the latency channel's per-op path.
  std::vector<Fiber*> core_fiber_;
  obs::NodeRegistry* node_registry_ = nullptr;
  std::uint64_t step_ = 0;  // instrumented accesses; see global_step()
  std::uint64_t switches_ = 0;  // see switch_count()

  /// Schedule-exploration state (cold: touched only by non-default policies
  /// and the sched_tx_begin slow path).
  struct SchedState {
    SchedulePolicy policy{};
    bool hooks_armed = false;   // preempt_on_tx_begin || abort_storm_pct
    bool force_switch = false;  // next decision must leave the current fiber
    bool truncated = false;
    std::uint64_t run_start_step = 0;
    Xoshiro256 rng{1};
    std::vector<ScheduleDecision> decisions;
  };
  SchedState sched_;
};

/// The simulation owning the currently-executing fiber, if any (fiber-local
/// accessor used by SimCtx helpers). thread_local, so concurrently running
/// simulations on different OS threads (the parallel sweep runner) never see
/// each other.
Simulation*& current_simulation();

}  // namespace euno::sim
