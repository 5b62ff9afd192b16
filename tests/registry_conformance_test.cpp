// Registry-driven conformance: every tree in the registry — whatever its
// layout/policy composition — is swept through the shared oracle, scan
// boundary and concurrent-stress batteries on BOTH execution contexts, via
// the same type-erased factories the benches dispatch through. Registering
// a structure is what puts it under conformance; there is no second list to
// keep in sync.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "tree_conformance.hpp"
#include "trees/registry.hpp"

namespace euno::tests {
namespace {

using trees::AnyTree;
using trees::TreeBuildOptions;
using trees::TreeEntry;

/// Value-semantics shim: the shared conformance helpers in
/// tree_conformance.hpp drive `tree.op(...)` members, the registry hands
/// back unique_ptr<AnyTree>; this adapts one to the other.
template <class Ctx>
struct RegistryTree {
  std::unique_ptr<AnyTree<Ctx>> t;

  bool get(Ctx& c, Key k, Value* v) { return t->get(c, k, v); }
  void put(Ctx& c, Key k, Value v) { t->put(c, k, v); }
  bool erase(Ctx& c, Key k) { return t->erase(c, k); }
  std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) {
    return t->scan(c, start, n, out);
  }
  void check_invariants() { t->check_invariants(); }
  void destroy(Ctx& c) { t->destroy(c); }
};

RegistryTree<ctx::SimCtx> make_sim(ctx::SimCtx& c, const TreeEntry& e) {
  return RegistryTree<ctx::SimCtx>{e.make_sim(c, TreeBuildOptions{})};
}

RegistryTree<ctx::NativeCtx> make_native(ctx::NativeCtx& c,
                                         const TreeEntry& e) {
  return RegistryTree<ctx::NativeCtx>{e.make_native(c, TreeBuildOptions{})};
}

class RegistryConformance : public ::testing::TestWithParam<TreeEntry> {};

TEST_P(RegistryConformance, OracleSim) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = make_sim(c, GetParam());
  run_oracle_workload(tree, c, 911, 6000, 800);
  tree.check_invariants();
  tree.destroy(c);
}

TEST_P(RegistryConformance, OracleNative) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = make_native(c, GetParam());
  run_oracle_workload(tree, c, 912, 12000, 3000);
  tree.check_invariants();
  tree.destroy(c);
}

TEST_P(RegistryConformance, ScanBoundarySim) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = make_sim(c, GetParam());
  run_scan_boundary_workload(tree, c);
  tree.destroy(c);
}

TEST_P(RegistryConformance, ScanBoundaryNative) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = make_native(c, GetParam());
  run_scan_boundary_workload(tree, c);
  tree.destroy(c);
}

TEST_P(RegistryConformance, ScanChunkedSweepSim) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = make_sim(c, GetParam());

  std::map<Key, Value> oracle;
  Xoshiro256 rng(913);
  for (int i = 0; i < 2500; ++i) {
    const Key k = rng.next_bounded(4000);
    if (rng.next_bounded(4) == 0) {
      tree.erase(c, k);
      oracle.erase(k);
    } else {
      const Value v = rng.next();
      tree.put(c, k, v);
      oracle[k] = v;
    }
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{33}, std::size_t{128}}) {
    std::vector<KV> buf(chunk);
    Key start = 0;
    std::size_t total = 0;
    auto it = oracle.begin();
    for (;;) {
      const std::size_t n = tree.scan(c, start, chunk, buf.data());
      for (std::size_t j = 0; j < n; ++j, ++it) {
        ASSERT_NE(it, oracle.end()) << "chunk=" << chunk;
        ASSERT_EQ(buf[j].first, it->first) << "chunk=" << chunk;
        ASSERT_EQ(buf[j].second, it->second) << "chunk=" << chunk;
      }
      total += n;
      if (n < chunk) break;
      if (buf[n - 1].first == ~0ull) break;
      start = buf[n - 1].first + 1;
    }
    ASSERT_EQ(it, oracle.end()) << "chunk=" << chunk;
    ASSERT_EQ(total, oracle.size()) << "chunk=" << chunk;
  }
  tree.check_invariants();
  tree.destroy(c);
}

TEST_P(RegistryConformance, SimConcurrentStress) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = make_sim(setup, GetParam());

  constexpr int kThreads = 8;
  constexpr int kOps = 300;
  constexpr std::uint64_t kHot = 48;
  constexpr std::uint64_t kStripe = 1u << 20;
  constexpr std::uint64_t kSeed = 914;
  for (int t = 0; t < kThreads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                          rng.next_bounded(256);
          tree.put(c, key, key * 7);
        } else {
          const Key key = rng.next_bounded(kHot);
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree.get(c, key, &v);
          } else {
            tree.put(c, key, (static_cast<Value>(t) << 32) | i);
          }
        }
      }
    });
  }
  simulation.run();

  tree.check_invariants();
  ctx::SimCtx verify(simulation, 0);
  for (int t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<Key, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                        rng.next_bounded(256);
        mine[key] = key * 7;
      } else {
        rng.next_bounded(kHot);
        rng.next_bounded(3);  // keep the replayed stream in sync
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree.get(verify, k, &got)) << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree.destroy(verify);
}

// Scan-during-splice interleaving: one writer drives continuous structural
// change (ascending inserts force a split cascade; erases of its own keys
// force underflow churn) while scanners sweep the same key space under
// heavy random preemption, so every scan straddles node replacements
// (version-bumped splits and underflow merges). A
// scanner must always observe ascending keys, untorn values, and every
// preloaded immortal key inside the window it covered: a scan that walks
// into a retired/stale node surfaces here as a vanished immortal or an
// out-of-order batch.
TEST_P(RegistryConformance, ScanDuringSpliceSim) {
  sim::Simulation simulation(test_sim_config());
  sim::SchedulePolicy sched;
  sched.mode = sim::SchedulePolicy::Mode::kRandom;
  sched.seed = 916;
  sched.preempt_pct = 90;
  simulation.set_schedule_policy(sched);
  ctx::SimCtx setup(simulation, 0);
  auto tree = make_sim(setup, GetParam());

  constexpr std::uint64_t kRange = 4096;
  constexpr std::uint64_t kImmortalStride = 32;  // 128 immortal keys
  constexpr int kScanners = 3;
  constexpr int kScansEach = 12;
  constexpr std::size_t kChunk = 48;
  for (Key k = 0; k < kRange; k += kImmortalStride) {
    tree.put(setup, k, k * 7 + 3);
  }

  // Writer on core 0: ascending inserts (every split shifts immortal keys
  // into fresh leaves) interleaved with erases of its own earlier inserts.
  simulation.spawn(0, [&](int core) {
    ctx::SimCtx c(simulation, core);
    for (Key k = 0; k < kRange; ++k) {
      if (k % kImmortalStride == 0) continue;
      tree.put(c, k, k * 7 + 3);
      if (k >= 3 && (k % 3) == 0 && ((k - 3) % kImmortalStride) != 0) {
        (void)tree.erase(c, k - 3);
      }
    }
  });
  for (int s = 0; s < kScanners; ++s) {
    simulation.spawn(1 + s, [&, s](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(916 + static_cast<std::uint64_t>(s));
      std::vector<KV> buf(kChunk);
      for (int i = 0; i < kScansEach; ++i) {
        const Key start = rng.next_bounded(kRange);
        const std::size_t n = tree.scan(c, start, kChunk, buf.data());
        Key prev = 0;
        bool have_prev = false;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_GE(buf[j].first, start);
          if (have_prev) {
            ASSERT_GT(buf[j].first, prev) << "scan order violation";
          }
          ASSERT_EQ(buf[j].second, buf[j].first * 7 + 3) << "torn value";
          prev = buf[j].first;
          have_prev = true;
        }
        if (!have_prev) continue;
        // Window completeness: every immortal key in [start, prev] must
        // have been returned — splices replace nodes, never hide keys.
        std::size_t at = 0;
        Key ik = (start + kImmortalStride - 1) / kImmortalStride;
        for (ik *= kImmortalStride; ik <= prev; ik += kImmortalStride) {
          while (at < n && buf[at].first < ik) ++at;
          ASSERT_TRUE(at < n && buf[at].first == ik)
              << "immortal key " << ik << " missing from scan window ["
              << start << ", " << prev << "]";
        }
      }
    });
  }
  simulation.run();

  tree.check_invariants();
  ctx::SimCtx verify(simulation, 0);
  for (Key k = 0; k < kRange; k += kImmortalStride) {
    Value v = 0;
    ASSERT_TRUE(tree.get(verify, k, &v)) << "immortal key " << k << " lost";
    ASSERT_EQ(v, k * 7 + 3);
  }
  tree.destroy(verify);
}

TEST_P(RegistryConformance, NativeConcurrentStress) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = make_native(setup, GetParam());

  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  constexpr std::uint64_t kHot = 48;
  constexpr std::uint64_t kStripe = 1u << 20;
  constexpr std::uint64_t kSeed = 915;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                          rng.next_bounded(256);
          tree.put(c, key, key * 7);
        } else {
          const Key key = rng.next_bounded(kHot);
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree.get(c, key, &v);
          } else {
            tree.put(c, key, (static_cast<Value>(t) << 32) | i);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  tree.check_invariants();
  ctx::NativeCtx verify(env, 0);
  for (int t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<Key, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                        rng.next_bounded(256);
        mine[key] = key * 7;
      } else {
        rng.next_bounded(kHot);
        rng.next_bounded(3);
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree.get(verify, k, &got)) << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree.destroy(verify);
}

std::string entry_test_name(const ::testing::TestParamInfo<TreeEntry>& info) {
  std::string out;
  for (char ch : info.param.name) out += (ch == '-') ? '_' : ch;
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredTrees, RegistryConformance,
                         ::testing::ValuesIn(trees::tree_registry().entries()),
                         entry_test_name);

}  // namespace
}  // namespace euno::tests
