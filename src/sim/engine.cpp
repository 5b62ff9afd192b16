#include "sim/engine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

// Under ASan every stack switch must be bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so the
// fake-stack machinery and shadow poisoning follow the fiber, not the OS
// thread. engine.hpp already forces the ucontext path for sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define EUNO_SIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EUNO_SIM_ASAN_FIBERS 1
#endif
#endif
#if defined(EUNO_SIM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#define EUNO_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define EUNO_ASAN_FINISH_SWITCH(fake, bottom, size) \
  __sanitizer_finish_switch_fiber((fake), (bottom), (size))
#else
#define EUNO_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define EUNO_ASAN_FINISH_SWITCH(fake, bottom, size) ((void)0)
#endif

namespace euno::sim {

namespace {
constexpr std::size_t kStackBytes = 256 * 1024;
constexpr std::size_t kGuardBytes = 4096;

// Fiber stacks (mmap + guard page) are recycled through a per-OS-thread pool
// so a sweep of hundreds of experiments doesn't pay hundreds of mmap/mprotect/
// munmap rounds per Simulation. Per-thread keeps the pool lock-free under the
// parallel sweep runner; the pool holds base (pre-guard) pointers and unmaps
// everything at thread exit.
struct StackPool {
  std::vector<void*> bases;

  ~StackPool() {
    for (void* base : bases) ::munmap(base, kStackBytes + kGuardBytes);
  }

  void* acquire() {
    if (!bases.empty()) {
      void* base = bases.back();
      bases.pop_back();
      return base;
    }
    void* base = ::mmap(nullptr, kStackBytes + kGuardBytes,
                        PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                        0);
    EUNO_ASSERT_MSG(base != MAP_FAILED, "fiber stack mmap failed");
    // Guard page at the low end catches stack overflow.
    ::mprotect(base, kGuardBytes, PROT_NONE);
    return base;
  }

  void release(void* base) {
    // Cap the pool: a 20-fiber experiment keeps ~5 MB parked, which is the
    // steady state of any sweep; anything beyond is returned to the OS.
    constexpr std::size_t kMaxPooled = 64;
    if (bases.size() < kMaxPooled) {
      bases.push_back(base);
    } else {
      ::munmap(base, kStackBytes + kGuardBytes);
    }
  }
};

StackPool& stack_pool() {
  static thread_local StackPool pool;
  return pool;
}

#if defined(EUNO_SIM_FAST_SWITCH)
// The stack switch (x86-64 System V): push the callee-saved registers, then
// MXCSR and the x87 control word in one 8-byte slot; store the stack pointer
// through `save`, load `next` and pop the same frame from it. spawn() builds
// a fresh fiber's frame so that the `ret` lands in euno_sim_fiber_entry with
// r12 = Simulation*, r13 = spawn index, r14 = fiber_entry; the stub's CFI
// marks it as the outermost frame so backtraces stop there.
extern "C" {
__attribute__((visibility("hidden"))) void euno_sim_swap(void** save,
                                                         void* next);
__attribute__((visibility("hidden"))) void euno_sim_fiber_entry();
}
asm(R"(
  .pushsection .text
  .p2align 4
  .globl euno_sim_swap
  .hidden euno_sim_swap
  .type euno_sim_swap, @function
euno_sim_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size euno_sim_swap, .-euno_sim_swap

  .p2align 4
  .globl euno_sim_fiber_entry
  .hidden euno_sim_fiber_entry
  .type euno_sim_fiber_entry, @function
euno_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  movq %r13, %rsi
  call *%r14
  ud2
  .cfi_endproc
  .size euno_sim_fiber_entry, .-euno_sim_fiber_entry
  .popsection
)");

void fiber_entry(Simulation* simulation, std::uint64_t index) {
  simulation->fiber_main(static_cast<int>(index));
}
#else
// makecontext only passes ints; stash the simulation + fiber index through
// a pair of 32-bit halves of `this`.
void trampoline(unsigned hi, unsigned lo, unsigned index) {
  auto bits = (static_cast<std::uint64_t>(hi) << 32) | lo;
  auto* simulation = reinterpret_cast<Simulation*>(bits);
  simulation->fiber_main(static_cast<int>(index));
}
#endif

// Scheduler keys: (clock, spawn index) packed so that one integer compare
// orders them. One fiber per core, so spawn indices fit the low bits.
constexpr int kIndexBits = 5;
constexpr std::uint64_t kIndexMask = (1u << kIndexBits) - 1;
constexpr std::uint64_t kNoKey = ~0ull;  // empty tournament slot
static_assert(MachineConfig::kMaxCores <= (1 << kIndexBits));

std::uint64_t run_key(std::uint64_t clock, std::uint32_t index) {
  // clock < 2^58 keeps every key below kNoKey.
  EUNO_ASSERT_MSG(clock < (1ull << (63 - kIndexBits)),
                  "simulated clock overflows the scheduler key");
  return clock << kIndexBits | index;
}

// Loser tree with m leaf slots: t[0] holds the winner (the minimum key),
// t[1..m-1] the loser of each internal match, node p's children being 2p
// and 2p+1 and leaf slot s sitting at node m + s. Put `key` into the winner's
// slot and replay that slot's matches up to the root: one fixed path of
// log2(m) branch-free steps.
void tourney_replay(std::uint64_t* t, std::size_t m, std::size_t slot,
                    std::uint64_t key) {
  for (std::size_t p = (m + slot) >> 1; p > 0; p >>= 1) {
    // Each match is a coin flip, so select with a mask, not a branch.
    const std::uint64_t other = t[p];
    const std::uint64_t flip =
        (key ^ other) & (0 - static_cast<std::uint64_t>(other < key));
    t[p] = other ^ flip;  // the loser stays at p
    key ^= flip;          // the winner plays on
  }
  t[0] = key;
}

}  // namespace

Simulation*& current_simulation() {
  static thread_local Simulation* sim = nullptr;
  return sim;
}

Simulation::Simulation(MachineConfig cfg)
    : cfg_(cfg),
      arena_(std::make_unique<SharedArena>(cfg.arena_bytes)),
      // The fault engine's campaign axis is this simulation's global step
      // counter; taking its address here is safe (it is only dereferenced
      // during run()).
      htm_(std::make_unique<SimHTM>(*arena_, cfg_, &step_)),
      counters_(MachineConfig::kMaxCores) {}

Simulation::~Simulation() {
  for (auto& f : fibers_) {
    stack_pool().release(static_cast<char*>(const_cast<void*>(f->ctx.stack)) -
                         kGuardBytes);
  }
}

void Simulation::spawn(int core, std::function<void(int)> body) {
  EUNO_ASSERT_MSG(!running_, "spawn during run() is not supported");
  EUNO_ASSERT(core >= 0 && core < MachineConfig::kMaxCores);
  for (const auto& f : fibers_) {
    EUNO_ASSERT_MSG(f->core != core, "one fiber per simulated core");
  }
  auto fiber = std::make_unique<Fiber>();
  fiber->core = core;
  fiber->index = static_cast<std::uint32_t>(fibers_.size());
  fiber->body = std::move(body);

  char* stack = static_cast<char*>(stack_pool().acquire()) + kGuardBytes;
  fiber->ctx.stack = stack;
  fiber->ctx.stack_bytes = kStackBytes;

#if defined(EUNO_SIM_FAST_SWITCH)
  // The frame euno_sim_swap pops on first entry (lowest address first):
  // MXCSR | x87 control word (inherited from the spawning thread, as
  // getcontext would), r15, r14, r13, r12, rbx, rbp (0: outermost frame),
  // return address. The stack top is page-aligned, so the entry stub runs
  // with the 16-byte alignment the ABI requires before its call.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  auto* frame = reinterpret_cast<std::uint64_t*>(stack + kStackBytes) - 8;
  frame[0] = mxcsr | static_cast<std::uint64_t>(fpu_cw) << 32;
  frame[1] = 0;
  frame[2] = reinterpret_cast<std::uint64_t>(&fiber_entry);
  frame[3] = fiber->index;
  frame[4] = reinterpret_cast<std::uint64_t>(this);
  frame[5] = 0;
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uint64_t>(&euno_sim_fiber_entry);
  fiber->ctx.sp = frame;
#else
  ucontext_t& uctx = fiber->ctx.uctx;
  EUNO_ASSERT(getcontext(&uctx) == 0);
  uctx.uc_stack.ss_sp = stack;
  uctx.uc_stack.ss_size = kStackBytes;
  uctx.uc_link = nullptr;  // fiber_main never returns
  const auto bits = reinterpret_cast<std::uint64_t>(this);
  makecontext(&uctx, reinterpret_cast<void (*)()>(trampoline), 3,
              static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits),
              fiber->index);
#endif
  if (core_fiber_.size() <= static_cast<std::size_t>(core)) {
    core_fiber_.resize(static_cast<std::size_t>(core) + 1, nullptr);
  }
  core_fiber_[static_cast<std::size_t>(core)] = fiber.get();
  fibers_.push_back(std::move(fiber));
}

void Simulation::fiber_main(int index) {
  Fiber& f = *fibers_[static_cast<std::size_t>(index)];
#if defined(EUNO_SIM_ASAN_FIBERS)
  // First time on this fiber's stack: complete the switch that entered it.
  // The run loops enter their first fiber from the scheduler, which is how
  // the scheduler context learns its stack bounds for the switches back.
  const void* from_stack = nullptr;
  std::size_t from_bytes = 0;
  EUNO_ASAN_FINISH_SWITCH(f.ctx.fake_stack, &from_stack, &from_bytes);
  if (sched_ctx_.stack == nullptr) {
    sched_ctx_.stack = from_stack;
    sched_ctx_.stack_bytes = from_bytes;
  }
#endif
  try {
    f.body(f.core);
  } catch (const TxAbortException&) {
    std::fprintf(stderr, "fatal: TxAbortException escaped a fiber body\n");
    std::abort();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: exception escaped fiber body: %s\n", e.what());
    std::abort();
  }
  EUNO_ASSERT_MSG(!htm_->in_tx(f.core), "fiber finished with an open transaction");
  f.done = true;
  switch_context(f.ctx, sched_ctx_, /*from_finished=*/true);
  std::abort();  // nothing resumes a finished fiber
}

void Simulation::switch_context(Context& from, Context& to,
                                [[maybe_unused]] bool from_finished) {
  ++switches_;
#if defined(EUNO_SIM_FAST_SWITCH)
  euno_sim_swap(&from.sp, to.sp);
#else
  // A null save slot tells ASan a finished fiber's fake stack dies with it.
  EUNO_ASAN_START_SWITCH(from_finished ? nullptr : &from.fake_stack, to.stack,
                         to.stack_bytes);
  swapcontext(&from.uctx, &to.uctx);
  EUNO_ASAN_FINISH_SWITCH(from.fake_stack, nullptr, nullptr);
#endif
}

void Simulation::begin_slice(Fiber& f) {
  current_ = &f;
  if (trace_on_) [[unlikely]] {
    active_ring_ = &trace_buf_[static_cast<std::size_t>(f.core)];
    record_trace(static_cast<std::uint8_t>(obs::EventCode::kRunBegin), 0, 0);
  }
}

void Simulation::end_slice() {
  record_trace(static_cast<std::uint8_t>(obs::EventCode::kRunEnd), 0, 0);
  current_ = nullptr;
  active_ring_ = nullptr;
}

void Simulation::run() {
  EUNO_ASSERT_MSG(!running_, "run() is not reentrant");
  running_ = true;
  Simulation* prev = current_simulation();
  current_simulation() = this;

  if (sched_.policy.deterministic_default()) {
    run_deterministic_loop();
  } else {
    run_scheduled_loop();
  }

  current_simulation() = prev;
  running_ = false;
}

// The scheduler stack only starts the run and reaps finished fibers: every
// yield in between is a direct handoff (yield()), so the fiber that returns
// here is whichever one finished, not necessarily the one dispatched.
void Simulation::run_deterministic_loop() {
  // Leaves: the runnable fibers in spawn order, padded to a power of two
  // with empty slots; `w` holds each node's match winner during the build.
  std::size_t m = 1;
  while (m < fibers_.size()) m *= 2;
  std::vector<std::uint64_t> w(2 * m, kNoKey);
  std::uint32_t slot = 0;
  for (const auto& f : fibers_) {
    if (f->done) continue;
    slot_of_[f->index] = slot;
    w[m + slot++] = run_key(f->clock, f->index);
  }
  tourney_.assign(m, kNoKey);
  for (std::size_t p = m - 1; p > 0; --p) {
    w[p] = std::min(w[2 * p], w[2 * p + 1]);
    tourney_[p] = std::max(w[2 * p], w[2 * p + 1]);
  }
  tourney_[0] = w[1];

  handoff_ = true;
  while (tourney_[0] != kNoKey) {
    Fiber& f = *fibers_[tourney_[0] & kIndexMask];
    tourney_replay(tourney_.data(), m, slot_of_[f.index], kNoKey);
    // The fiber may run ahead until it passes the next-smallest runnable
    // clock (the new winner, now that `f` left the tree).
    yield_threshold_ =
        tourney_[0] == kNoKey ? ~0ull : tourney_[0] >> kIndexBits;
    begin_slice(f);
    switch_context(sched_ctx_, f.ctx);
    end_slice();  // the finished fiber's slice
  }
  handoff_ = false;
}

// Generic decision loop for the exploration policies: the running fiber
// yields at every instrumented access (yield_threshold_ = 0), and every
// resume is one explicit scheduling decision. Host-side cost is a fiber
// switch per access — irrelevant for the tiny configurations the
// linearizability harness runs, and never taken by the production policy.
void Simulation::run_scheduled_loop() {
  sched_.decisions.clear();
  sched_.truncated = false;
  sched_.force_switch = false;
  sched_.run_start_step = step_;
  sched_.rng = Xoshiro256(sched_.policy.seed);

  std::vector<std::uint32_t> runnable;  // fiber indices, ascending
  runnable.reserve(fibers_.size());
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->done) runnable.push_back(static_cast<std::uint32_t>(i));
  }

  std::uint32_t last = ~0u;
  std::size_t choice_cursor = 0;
  while (!runnable.empty()) {
    const std::size_t pos = pick_runnable(runnable, last, choice_cursor);
    const std::uint32_t index = runnable[pos];
    runnable.erase(runnable.begin() + static_cast<std::ptrdiff_t>(pos));
    Fiber& f = *fibers_[index];
    yield_threshold_ = 0;  // any charge returns control: access granularity
    begin_slice(f);
    switch_context(sched_ctx_, f.ctx);
    end_slice();
    last = index;
    if (!f.done) {
      runnable.insert(std::lower_bound(runnable.begin(), runnable.end(), index),
                      index);
    }
  }
}

std::size_t Simulation::min_clock_pos(
    const std::vector<std::uint32_t>& runnable) const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < runnable.size(); ++i) {
    if (fibers_[runnable[i]]->clock < fibers_[runnable[best]]->clock) best = i;
  }
  return best;  // ties break toward the lower fiber index (list is sorted)
}

std::size_t Simulation::pick_runnable(const std::vector<std::uint32_t>& runnable,
                                      std::uint32_t last,
                                      std::size_t& choice_cursor) {
  const std::size_t n = runnable.size();
  const bool force = sched_.force_switch;
  sched_.force_switch = false;
  if (n == 1) return 0;

  // Livelock safety valve: past the step budget, stop exploring and drain
  // the run with the deterministic policy (which always terminates).
  const auto& sp = sched_.policy;
  if (sp.max_steps != 0 && step_ - sched_.run_start_step > sp.max_steps) {
    sched_.truncated = true;
    return min_clock_pos(runnable);
  }

  switch (sp.mode) {
    case SchedulePolicy::Mode::kDeterministic: {
      // Reached only with adversarial hooks armed: min-clock picks, but a
      // forced switch (tx begin) must leave the yielding fiber if possible.
      std::size_t best = ~std::size_t{0};
      for (std::size_t i = 0; i < n; ++i) {
        if (force && runnable[i] == last) continue;
        if (best == ~std::size_t{0} ||
            fibers_[runnable[i]]->clock < fibers_[runnable[best]]->clock) {
          best = i;
        }
      }
      return best == ~std::size_t{0} ? 0 : best;
    }
    case SchedulePolicy::Mode::kRandom: {
      std::size_t last_pos = n;  // position of the yielding fiber, if runnable
      for (std::size_t i = 0; i < n; ++i) {
        if (runnable[i] == last) {
          last_pos = i;
          break;
        }
      }
      const bool preempt =
          force || sched_.rng.next_bounded(100) < sp.preempt_pct;
      if (!preempt && last_pos < n) return last_pos;
      if (last_pos < n) {
        // Uniform among the *other* fibers: a preemption means a switch.
        const std::size_t k = sched_.rng.next_bounded(n - 1);
        return k + (k >= last_pos ? 1 : 0);
      }
      return sched_.rng.next_bounded(n);
    }
    case SchedulePolicy::Mode::kSystematic: {
      // Round-robin default: the smallest fiber index above the yielding
      // fiber, wrapping — always a switch, so spin loops cannot starve the
      // fiber they wait on.
      std::size_t preferred = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (runnable[i] > last) {
          preferred = i;
          break;
        }
      }
      std::size_t chosen = preferred;
      if (choice_cursor < sp.choices.size()) {
        chosen = std::min<std::size_t>(sp.choices[choice_cursor], n - 1);
      }
      ++choice_cursor;
      sched_.decisions.push_back(ScheduleDecision{
          static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(chosen),
          static_cast<std::uint32_t>(preferred)});
      return chosen;
    }
  }
  return 0;
}

void Simulation::set_schedule_policy(SchedulePolicy p) {
  EUNO_ASSERT_MSG(!running_, "set_schedule_policy during run() is not supported");
  sched_.policy = std::move(p);
  sched_.hooks_armed = sched_.policy.preempt_on_tx_begin ||
                       sched_.policy.abort_storm_pct > 0;
  sched_.rng = Xoshiro256(sched_.policy.seed);
}

void Simulation::sched_tx_begin_slow(int core) {
  if (current_ == nullptr) return;
  // Storm first: a doomed transaction never gets to run, so preempting it
  // as well would only explore redundant schedules. Throws through the
  // explicit-abort path; SimCtx::attempt's catch handles it like any abort.
  if (sched_.policy.abort_storm_pct > 0 &&
      sched_.rng.next_bounded(100) < sched_.policy.abort_storm_pct) {
    htm_->tx_abort_explicit(core, htm::xabort_code::kSchedulerInjected);
  }
  if (sched_.policy.preempt_on_tx_begin) {
    sched_.force_switch = true;
    yield();
  }
}

void Simulation::yield() {
  Fiber& f = *current_;
  if (!handoff_) {
    // Exploration policies decide every switch on the scheduler stack.
    switch_context(f.ctx, sched_ctx_);
    return;
  }
  // f.clock > yield_threshold_ == the winner's clock, so the winner is the
  // minimum over every runnable fiber including f: hand off to it directly.
  // f takes over the winner's leaf slot; the replayed winner bounds `next`.
  Fiber& next = *fibers_[tourney_[0] & kIndexMask];
  const std::uint32_t slot = slot_of_[next.index];
  slot_of_[f.index] = slot;
  tourney_replay(tourney_.data(), tourney_.size(), slot,
                 run_key(f.clock, f.index));
  yield_threshold_ = tourney_[0] >> kIndexBits;
  end_slice();
  begin_slice(next);
  switch_context(f.ctx, next.ctx);
}

void Simulation::spin_wait() {
  if (current_ == nullptr) return;
  counters_[current_->core].cycles_spinning += cfg_.costs.spin_wait;
  charge(cfg_.costs.spin_wait);
}

void Simulation::compute(std::uint64_t n) {
  if (current_ == nullptr) return;
  counters_[current_->core].instructions += n;
  charge(n);
}

void Simulation::enable_trace() {
  if constexpr (!obs::kCompiledIn) return;
  trace_on_ = true;
  if (trace_buf_.empty()) {
    trace_buf_.resize(static_cast<std::size_t>(MachineConfig::kMaxCores));
  }
}

std::vector<TraceEvent> Simulation::trace_events() const {
  return obs::merge_ring_events(trace_buf_);
}

obs::TraceStream Simulation::take_trace() {
  EUNO_ASSERT_MSG(!running_, "take_trace during run() is not supported");
  obs::TraceStream stream(std::move(trace_buf_));
  trace_buf_.clear();  // moved-from: make the empty state explicit
  if (trace_on_) {
    // Keep the invariant enable_trace() established: rings exist for every
    // core while tracing is on (a subsequent run() records again).
    trace_buf_.resize(static_cast<std::size_t>(MachineConfig::kMaxCores));
  }
  return stream;
}

void Simulation::enable_contention(obs::ContentionMap* map,
                                   obs::NodeRegistry* reg) {
  if constexpr (!obs::kCompiledIn) return;
  node_registry_ = reg;
  htm_->set_contention_map(map);
}

int Simulation::current_core() const {
  EUNO_ASSERT(current_ != nullptr);
  return current_->core;
}

std::uint64_t Simulation::max_clock() const {
  std::uint64_t m = 0;
  for (const auto& f : fibers_) m = std::max(m, f->clock);
  return m;
}

}  // namespace euno::sim
