// Tests for the simulated-multicore engine: fiber scheduling order (against
// an executable reference model), the stack-switch contract, clock
// accounting, determinism, arena allocation, and the coherence cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/memmodel.hpp"
#include "sim/txabort.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace euno::sim {
namespace {

MachineConfig small_config() {
  MachineConfig cfg;
  cfg.arena_bytes = 16ull << 20;
  return cfg;
}

TEST(Arena, AllocationsAreLineAlignedAndDisjoint) {
  SharedArena arena(1 << 20);
  void* a = arena.alloc(10, MemClass::kOther, LineKind::kOther);
  void* b = arena.alloc(10, MemClass::kOther, LineKind::kOther);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_NE(arena.line_index(a), arena.line_index(b));
}

TEST(Arena, FreeListReuse) {
  SharedArena arena(1 << 20);
  void* a = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  arena.free(a, 64, MemClass::kOther);
  void* b = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  EXPECT_EQ(a, b);
}

TEST(Arena, AllocZeroesMemory) {
  SharedArena arena(1 << 20);
  auto* p = static_cast<std::uint64_t*>(
      arena.alloc(64, MemClass::kOther, LineKind::kOther));
  p[0] = 0xdead;
  arena.free(p, 64, MemClass::kOther);
  auto* q = static_cast<std::uint64_t*>(
      arena.alloc(64, MemClass::kOther, LineKind::kOther));
  EXPECT_EQ(q[0], 0u);
}

TEST(Arena, TagsCoverAllLines) {
  SharedArena arena(1 << 20);
  void* p = arena.alloc(200, MemClass::kOther, LineKind::kRecord);
  for (std::size_t off = 0; off < 200; off += 64) {
    EXPECT_EQ(arena.line_of(static_cast<char*>(p) + off).kind, LineKind::kRecord);
  }
}

TEST(Arena, ContainsChecksBounds) {
  SharedArena arena(1 << 20);
  void* p = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  EXPECT_TRUE(arena.contains(p));
  int local;
  EXPECT_FALSE(arena.contains(&local));
}

TEST(Engine, FibersRunToCompletion) {
  Simulation sim(small_config());
  std::vector<int> order;
  sim.spawn(0, [&](int core) { order.push_back(core); });
  sim.spawn(1, [&](int core) { order.push_back(core); });
  sim.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST(Engine, MinClockFiberRunsFirst) {
  Simulation sim(small_config());
  std::vector<std::pair<int, std::uint64_t>> events;
  // Fiber 0 does expensive steps, fiber 1 cheap steps; the interleaving must
  // honour simulated time: fiber 1 gets many steps in while fiber 0 is
  // "busy".
  sim.spawn(0, [&](int) {
    for (int i = 0; i < 3; ++i) {
      sim.charge(1000);
      events.push_back({0, sim.clock_of(0)});
    }
  });
  sim.spawn(1, [&](int) {
    for (int i = 0; i < 3; ++i) {
      sim.charge(10);
      events.push_back({1, sim.clock_of(1)});
    }
  });
  sim.run();
  ASSERT_EQ(events.size(), 6u);
  // All of fiber 1's events (clocks 10,20,30) precede fiber 0's second event
  // (clock 2000).
  std::uint64_t fiber1_last_pos = 0, fiber0_second_pos = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].first == 1) fiber1_last_pos = i;
    if (events[i].first == 0 && events[i].second == 2000) fiber0_second_pos = i;
  }
  EXPECT_LT(fiber1_last_pos, fiber0_second_pos);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim(small_config());
    auto* cell = static_cast<std::uint64_t*>(
        sim.arena().alloc(8, MemClass::kOther, LineKind::kOther));
    for (int core = 0; core < 4; ++core) {
      sim.spawn(core, [&sim, cell](int c) {
        for (int i = 0; i < 100; ++i) {
          sim.mem_access(cell, 8, true);
          *cell += static_cast<std::uint64_t>(c) + 1;
        }
      });
    }
    sim.run();
    return std::make_pair(*cell, sim.max_clock());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Engine, ChargeAccumulatesPerCore) {
  Simulation sim(small_config());
  sim.spawn(0, [&](int) { sim.charge(123); });
  sim.spawn(1, [&](int) { sim.charge(456); });
  sim.run();
  EXPECT_EQ(sim.clock_of(0), 123u);
  EXPECT_EQ(sim.clock_of(1), 456u);
  EXPECT_EQ(sim.max_clock(), 456u);
}

TEST(Engine, ComputeCountsInstructions) {
  Simulation sim(small_config());
  sim.spawn(0, [&](int) { sim.compute(50); });
  sim.run();
  EXPECT_EQ(sim.counters(0).instructions, 50u);
  EXPECT_EQ(sim.clock_of(0), 50u);
}

TEST(Engine, MemAccessOutsideFiberIsFree) {
  Simulation sim(small_config());
  auto* cell = static_cast<std::uint64_t*>(
      sim.arena().alloc(8, MemClass::kOther, LineKind::kOther));
  sim.mem_access(cell, 8, true);  // must not crash or charge anything
  *cell = 5;
  EXPECT_EQ(sim.max_clock(), 0u);
}

// ---- scheduler reference model ----
//
// Every fiber runs a script of scheduling points (charge / compute /
// spin_wait) and logs (core, clock) after each one returns; the engine's
// global log must equal the model's step for step.

using StepLog = std::vector<std::pair<int, std::uint64_t>>;

struct Script {
  int core = 0;
  std::vector<int> kinds;             // 0 charge, 1 compute, 2 spin_wait
  std::vector<std::uint64_t> cycles;  // simulated cost of each step
};

// The scheduling rule, executably: run the unfinished fiber with the
// minimum (clock, spawn index) until its clock exceeds the next-smallest
// unfinished clock. A step that crosses that threshold completes (is logged)
// only when its fiber runs again; a fiber finishes when its script is done.
StepLog model_order(const std::vector<Script>& scripts) {
  const std::size_t n = scripts.size();
  std::vector<std::uint64_t> clock(n, 0);
  std::vector<std::size_t> next(n, 0);
  std::vector<bool> pending(n, false), done(n, false);
  StepLog out;
  for (;;) {
    std::size_t run = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i] && (run == n || clock[i] < clock[run])) run = i;
    }
    if (run == n) return out;
    std::uint64_t threshold = ~0ull;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != run && !done[i]) threshold = std::min(threshold, clock[i]);
    }
    if (pending[run]) out.emplace_back(scripts[run].core, clock[run]);
    pending[run] = false;
    while (next[run] < scripts[run].cycles.size()) {
      clock[run] += scripts[run].cycles[next[run]++];
      if (clock[run] > threshold) {
        pending[run] = true;
        break;
      }
      out.emplace_back(scripts[run].core, clock[run]);
    }
    done[run] = !pending[run];
  }
}

StepLog engine_order(const std::vector<Script>& scripts) {
  Simulation sim(small_config());
  StepLog log;
  for (const Script& sc : scripts) {
    sim.spawn(sc.core, [&sim, &log, &sc](int core) {
      for (std::size_t i = 0; i < sc.kinds.size(); ++i) {
        switch (sc.kinds[i]) {
          case 0: sim.charge(sc.cycles[i]); break;
          case 1: sim.compute(sc.cycles[i]); break;
          default: sim.spin_wait(); break;
        }
        log.emplace_back(core, sim.clock_of(core));
      }
    });
  }
  sim.run();
  return log;
}

// Seeded scripts on `fibers` fibers. Costs come from a small set so equal
// clocks (ties broken by spawn index) are frequent; script lengths vary so
// fibers finish early; `sparse` spreads the core ids so that spawn index and
// core id differ.
std::vector<Script> random_scripts(int fibers, bool sparse, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::uint64_t spin = MachineConfig{}.costs.spin_wait;
  static constexpr std::uint64_t kCosts[] = {0, 1, 2, 3, 30, 64};
  std::vector<Script> scripts(static_cast<std::size_t>(fibers));
  for (int i = 0; i < fibers; ++i) {
    Script& sc = scripts[static_cast<std::size_t>(i)];
    // Spawn order runs from high core ids down, so spawn index != core id.
    sc.core = sparse ? (MachineConfig::kMaxCores - 1 - i * 3) : i;
    const auto steps = rng.next_bounded(i % 4 == 3 ? 5 : 120);
    for (std::uint64_t s = 0; s < steps; ++s) {
      const int kind = static_cast<int>(rng.next_bounded(3));
      sc.kinds.push_back(kind);
      sc.cycles.push_back(kind == 2 ? spin : kCosts[rng.next_bounded(6)]);
    }
  }
  return scripts;
}

TEST(EngineModel, RandomScriptsMatchReferenceModel) {
  for (int fibers : {1, 2, 16, 32}) {
    for (bool sparse : {false, true}) {
      if (sparse && fibers > 10) continue;  // 3-apart core ids must fit
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto scripts = random_scripts(fibers, sparse, seed * 7919);
        const StepLog want = model_order(scripts);
        ASSERT_EQ(engine_order(scripts), want)
            << "fibers=" << fibers << " sparse=" << sparse << " seed=" << seed;
      }
    }
  }
}

TEST(EngineModel, IdenticalScriptsBreakTiesBySpawnIndex) {
  // Every clock collides, so spawn index alone orders the fibers. Spawn
  // index 7 (core 0) is the last at clock 0: it may run until its clock
  // passes 5 and logs first; then spawn index 0 (core 7) resumes.
  std::vector<Script> scripts(8);
  for (int i = 0; i < 8; ++i) {
    Script& sc = scripts[static_cast<std::size_t>(i)];
    sc.core = 7 - i;
    sc.kinds.assign(20, 0);
    sc.cycles.assign(20, 5);
  }
  const StepLog want = model_order(scripts);
  EXPECT_EQ(engine_order(scripts), want);
  ASSERT_GE(want.size(), 3u);
  EXPECT_EQ(want[0], std::make_pair(0, std::uint64_t{5}));
  EXPECT_EQ(want[1], std::make_pair(7, std::uint64_t{5}));
  EXPECT_EQ(want[2], std::make_pair(6, std::uint64_t{5}));
}

TEST(EngineModel, FirstEntryByHandoff) {
  // Fiber 0 starts from the scheduler, crosses fiber 1's clock at once and
  // hands off to it: fiber 1's first entry is a fiber-to-fiber switch.
  Simulation sim(small_config());
  StepLog log;
  sim.spawn(0, [&](int core) {
    sim.charge(1);
    log.emplace_back(core, sim.clock_of(core));
  });
  sim.spawn(1, [&](int core) {
    sim.charge(5);
    log.emplace_back(core, sim.clock_of(core));
  });
  sim.run();
  const StepLog want = {{0, 1}, {1, 5}};
  EXPECT_EQ(log, want);
  // scheduler->0, 0->1 (handoff), 1->0 (handoff), 0 finishes -> scheduler,
  // scheduler->1, 1 finishes -> scheduler.
  EXPECT_EQ(sim.switch_count(), 6u);
}

[[gnu::noinline]] void throw_abort(std::uint8_t code) {
  htm::TxResult r;
  r.reason = htm::AbortReason::kExplicit;
  r.xabort_payload = code;
  throw TxAbortException{r};
}

TEST(EngineModel, ExceptionCaughtAfterHandoffs) {
  // Fibers leapfrog every step; each throws from a nested frame and catches
  // on its own stack after many handoffs, then keeps running (the catch is
  // left before the next scheduling point, per the engine's invariant).
  Simulation sim(small_config());
  std::vector<int> caught(4, 0);
  for (int core = 0; core < 4; ++core) {
    sim.spawn(core, [&sim, &caught](int c) {
      for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 5; ++i) sim.charge(3 + static_cast<unsigned>(c));
        std::uint8_t code = 0;
        try {
          throw_abort(static_cast<std::uint8_t>(c * 16 + round));
        } catch (const TxAbortException& e) {
          code = e.result.xabort_payload;
        }
        if (code == c * 16 + round) ++caught[static_cast<std::size_t>(c)];
      }
    });
  }
  sim.run();
  EXPECT_EQ(caught, std::vector<int>(4, 10));
  EXPECT_GT(sim.switch_count(), 100u);
}

TEST(EngineModel, RoundingModeIsPerFiber) {
  // The x87 control word and MXCSR are per-fiber state: a rounding mode set
  // in one fiber must survive any number of switches and never leak into
  // the other fibers or the scheduler.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Simulation sim(small_config());
  static constexpr int kModes[] = {FE_TONEAREST, FE_TOWARDZERO, FE_UPWARD,
                                   FE_DOWNWARD};
  std::vector<int> bad(4, 0);
  for (int core = 0; core < 4; ++core) {
    sim.spawn(core, [&sim, &bad](int c) {
      const int mode = kModes[c];
      ASSERT_EQ(std::fesetround(mode), 0);
      for (int i = 0; i < 50; ++i) {
        sim.charge(1);
        if (std::fegetround() != mode) ++bad[static_cast<std::size_t>(c)];
#if defined(__x86_64__)
        // fegetround reads the x87 control word; check SSE's copy too.
        const unsigned rc = (_mm_getcsr() >> 13) & 3u;
        const unsigned want = static_cast<unsigned>(mode) >> 10;  // x87 RC
        if (rc != want) ++bad[static_cast<std::size_t>(c)];
#endif
      }
    });
  }
  sim.run();
  EXPECT_EQ(bad, std::vector<int>(4, 0));
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_GT(sim.switch_count(), 100u);
}

TEST(EngineModel, SwitchCountIsDeterministic) {
  auto run_once = [] {
    Simulation sim(small_config());
    auto* cell = static_cast<std::uint64_t*>(
        sim.arena().alloc(8, MemClass::kOther, LineKind::kOther));
    for (int core = 0; core < 8; ++core) {
      sim.spawn(core, [&sim, cell](int) {
        for (int i = 0; i < 200; ++i) sim.mem_access(cell, 8, i % 3 == 0);
      });
    }
    sim.run();
    return sim.switch_count();
  };
  const auto a = run_once();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, run_once());
}

TEST(CostModel, FirstTouchIsDram) {
  MachineConfig cfg;
  LineState line;
  EXPECT_EQ(coherence_access(line, 0, false, cfg), cfg.latency.dram);
}

TEST(CostModel, RepeatAccessIsL1) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  EXPECT_EQ(coherence_access(line, 0, true, cfg), cfg.latency.l1_hit);
  EXPECT_EQ(coherence_access(line, 0, false, cfg), cfg.latency.l1_hit);
}

TEST(CostModel, CrossCoreSameSocketTransfer) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);  // core 0 dirties
  EXPECT_EQ(coherence_access(line, 1, false, cfg), cfg.latency.local_cache);
}

TEST(CostModel, CrossSocketTransferCostsMore) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);  // core 0 (socket 0) dirties
  // Core 10 is on socket 1 in the paper testbed topology.
  EXPECT_EQ(coherence_access(line, 10, false, cfg), cfg.latency.remote_cache);
}

TEST(CostModel, WriteInvalidatesSharers) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  coherence_access(line, 1, false, cfg);  // now shared by 0 and 1
  EXPECT_NE(line.sharers & 0b11u, 0u);
  coherence_access(line, 2, true, cfg);  // write invalidates others
  EXPECT_EQ(line.sharers, 0b100u);
  EXPECT_EQ(line.owner, 2);
  EXPECT_TRUE(line.dirty);
}

TEST(CostModel, ReadDowngradesDirtyLine) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  EXPECT_TRUE(line.dirty);
  coherence_access(line, 1, false, cfg);
  EXPECT_FALSE(line.dirty);
}

}  // namespace
}  // namespace euno::sim
