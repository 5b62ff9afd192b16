// Reusable conformance suite for the concurrent tree implementations.
//
// Every tree (HTM-B+Tree, Euno-B+Tree, OLC/"Masstree", HTM-Masstree) is
// exercised through the same battery: single-threaded oracle comparison
// against std::map, structural invariants after adversarial patterns,
// concurrent stress on the simulated multicore, and concurrent stress on
// native threads (real RTM when available).
//
// A TreeAdapter describes how to drive one tree type:
//   struct Adapter {
//     using Tree = ...;                                 // tree template inst.
//     static constexpr const char* kName;
//     template <class Ctx> static Tree<Ctx> make(Ctx&); // fresh tree
//   };
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/common.hpp"
#include "util/rng.hpp"

namespace euno::tests {

using trees::KV;
using trees::Key;
using trees::Value;

inline sim::MachineConfig test_sim_config() {
  sim::MachineConfig cfg;
  cfg.arena_bytes = 256ull << 20;
  return cfg;
}

/// Oracle test: random interleaving of put/get/erase/scan mirrored into a
/// std::map, executed with a given ctx. (Single-threaded; works on both
/// engines — under simulation it runs outside fibers, uninstrumented.)
template <class Tree, class Ctx>
void run_oracle_workload(Tree& tree, Ctx& c, std::uint64_t seed, int ops,
                         std::uint64_t key_range) {
  std::map<Key, Value> oracle;
  Xoshiro256 rng(seed);
  std::vector<KV> scan_buf(64);
  for (int i = 0; i < ops; ++i) {
    const Key key = rng.next_bounded(key_range);
    switch (rng.next_bounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // put
        const Value v = rng.next();
        tree.put(c, key, v);
        oracle[key] = v;
        break;
      }
      case 4:
      case 5:
      case 6: {  // get
        Value v = 0;
        const bool found = tree.get(c, key, &v);
        const auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << "key=" << key << " op=" << i;
        if (found) {
          ASSERT_EQ(v, it->second) << "key=" << key;
        }
        break;
      }
      case 7:
      case 8: {  // erase
        const bool removed = tree.erase(c, key);
        ASSERT_EQ(removed, oracle.erase(key) > 0) << "key=" << key;
        break;
      }
      case 9: {  // scan
        const std::size_t n = tree.scan(c, key, scan_buf.size(), scan_buf.data());
        auto it = oracle.lower_bound(key);
        for (std::size_t j = 0; j < n; ++j, ++it) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(scan_buf[j].first, it->first) << "scan pos " << j;
          ASSERT_EQ(scan_buf[j].second, it->second);
        }
        if (n < scan_buf.size()) {
          ASSERT_EQ(it, oracle.end());
        }
        break;
      }
    }
  }
  // Final sweep: every oracle entry must be present with the right value.
  for (const auto& [k, v] : oracle) {
    Value got = 0;
    ASSERT_TRUE(tree.get(c, k, &got)) << "missing key " << k;
    ASSERT_EQ(got, v);
  }
}

/// Range/scan boundary conformance: a fixed shape with a dense block (with
/// modulo holes), an erased band spanning several leaves, and a sparse far
/// block — then scans aimed exactly at the edges: before the first key, on a
/// present key, into the erased gap, between the blocks, on/after the last
/// key, and with a limit that exactly matches the remaining population.
/// Every scan is checked against a std::map oracle (lower_bound semantics,
/// sorted output, and "short result implies end of tree").
template <class Tree, class Ctx>
void run_scan_boundary_workload(Tree& tree, Ctx& c) {
  std::map<Key, Value> oracle;
  for (Key k = 10; k < 300; ++k) {
    if (k % 3 == 0) continue;  // holes inside the dense block
    tree.put(c, k, k ^ 0xabcu);
    oracle[k] = k ^ 0xabcu;
  }
  for (Key k = 1000; k < 1400; k += 7) {
    tree.put(c, k, k * 5 + 1);
    oracle[k] = k * 5 + 1;
  }
  for (Key k = 100; k < 160; ++k) {  // erase a band across leaf boundaries
    tree.erase(c, k);
    oracle.erase(k);
  }

  std::vector<KV> buf(600);
  const auto check_scan = [&](Key start, std::size_t limit) {
    ASSERT_LE(limit, buf.size());
    const std::size_t n = tree.scan(c, start, limit, buf.data());
    ASSERT_LE(n, limit) << "start=" << start;
    auto it = oracle.lower_bound(start);
    for (std::size_t j = 0; j < n; ++j, ++it) {
      ASSERT_NE(it, oracle.end()) << "start=" << start << " pos=" << j;
      ASSERT_EQ(buf[j].first, it->first) << "start=" << start << " pos=" << j;
      ASSERT_EQ(buf[j].second, it->second) << "start=" << start;
      if (j > 0) {
        ASSERT_GT(buf[j].first, buf[j - 1].first) << "unsorted scan";
      }
    }
    if (n < limit) {
      ASSERT_EQ(it, oracle.end()) << "short scan must mean end, start=" << start;
    }
  };

  check_scan(0, 1);            // strictly before the first key
  check_scan(0, buf.size());   // the whole tree in one call
  check_scan(10, 1);           // exactly the first key
  check_scan(99, 8);           // last key before the erased band
  check_scan(100, 8);          // first erased key -> resumes after the gap
  check_scan(159, 8);          // last erased key
  check_scan(160, 8);          // first key after the gap
  check_scan(299, 4);          // dense block's upper edge
  check_scan(300, 4);          // between the blocks
  check_scan(1393, 4);         // the last key itself
  check_scan(1394, 4);         // past the last key -> empty
  check_scan(~0ull, 4);        // maximal start key
  check_scan(1000, oracle.size());  // limit == exact remaining population
  tree.check_invariants();
}

/// Chunked full-table sweep under simulation: scan the whole tree in chunks
/// of several sizes (including 1), resuming each chunk at last_key + 1, and
/// require the concatenation to equal the oracle exactly. Exercises the
/// cross-leaf resume path that single-shot scans never hit.
template <class Adapter>
void run_scan_chunk_sweep_sim(std::uint64_t seed) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = Adapter::make(c);

  std::map<Key, Value> oracle;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.next_bounded(5000);
    if (rng.next_bounded(4) == 0) {
      tree.erase(c, k);
      oracle.erase(k);
    } else {
      const Value v = rng.next();
      tree.put(c, k, v);
      oracle[k] = v;
    }
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                  std::size_t{16}, std::size_t{33},
                                  std::size_t{128}}) {
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

/// Concurrent stress under simulation: `threads` fibers, each owning a
/// disjoint key stripe (for exact verification) plus a shared hot set (for
/// contention). Afterwards every striped key must be present with its final
/// value and invariants must hold.
template <class Adapter>
void run_sim_concurrent_stress(int threads, int ops_per_thread,
                               std::uint64_t hot_keys, std::uint64_t seed) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = Adapter::make(setup);

  constexpr std::uint64_t kStripe = 1u << 20;
  for (int t = 0; t < threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < ops_per_thread; ++i) {
        if (rng.next_bounded(2) == 0) {
          // Private stripe: key encodes (thread, i) so the final value is
          // deterministic per key.
          const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                          rng.next_bounded(256);
          tree.put(c, key, key * 7);
        } else {
          // Shared hot set: contention.
          const Key key = rng.next_bounded(hot_keys);
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
  for (int t = 0; t < threads; ++t) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
    // Replay the stream to learn which striped keys were written.
    std::map<Key, Value> mine;
    for (int i = 0; i < ops_per_thread; ++i) {
      if (rng.next_bounded(2) == 0) {
        const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                        rng.next_bounded(256);
        mine[key] = key * 7;
      } else {
        rng.next_bounded(hot_keys);
        if (rng.next_bounded(3) != 0) {
          // matches the put branch's value computation draw order
        }
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

/// Concurrent stress with real threads on the native engine.
template <class Adapter>
void run_native_concurrent_stress(int threads, int ops_per_thread,
                                  std::uint64_t hot_keys, std::uint64_t seed) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = Adapter::make(setup);

  constexpr std::uint64_t kStripe = 1u << 20;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < ops_per_thread; ++i) {
        if (rng.next_bounded(2) == 0) {
          const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                          rng.next_bounded(256);
          tree.put(c, key, key * 7);
        } else {
          const Key key = rng.next_bounded(hot_keys);
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
  for (int t = 0; t < threads; ++t) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
    std::map<Key, Value> mine;
    for (int i = 0; i < ops_per_thread; ++i) {
      if (rng.next_bounded(2) == 0) {
        const Key key = kStripe * (static_cast<std::uint64_t>(t) + 1) +
                        rng.next_bounded(256);
        mine[key] = key * 7;
      } else {
        rng.next_bounded(hot_keys);
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

/// Registers the full conformance battery for one adapter.
#define EUNO_TREE_CONFORMANCE_SUITE(SuiteName, NativeAdapter, SimAdapter)          \
  TEST(SuiteName, OracleSmallNative) {                                             \
    ctx::NativeEnv env;                                                            \
    ctx::NativeCtx c(env, 0);                                                      \
    auto tree = NativeAdapter::make(c);                                            \
    euno::tests::run_oracle_workload(tree, c, 101, 4000, 200);                     \
    tree.check_invariants();                                                       \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, OracleLargeNative) {                                             \
    ctx::NativeEnv env;                                                            \
    ctx::NativeCtx c(env, 0);                                                      \
    auto tree = NativeAdapter::make(c);                                            \
    euno::tests::run_oracle_workload(tree, c, 202, 20000, 5000);                   \
    tree.check_invariants();                                                       \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, OracleSim) {                                                     \
    sim::Simulation simulation(euno::tests::test_sim_config());                    \
    ctx::SimCtx c(simulation, 0);                                                  \
    auto tree = SimAdapter::make(c);                                               \
    euno::tests::run_oracle_workload(tree, c, 303, 8000, 1000);                    \
    tree.check_invariants();                                                       \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, SequentialInsertGrowsHeight) {                                   \
    ctx::NativeEnv env;                                                            \
    ctx::NativeCtx c(env, 0);                                                      \
    auto tree = NativeAdapter::make(c);                                            \
    for (Key k = 0; k < 5000; ++k) tree.put(c, k, k + 1);                          \
    tree.check_invariants();                                                       \
    for (Key k = 0; k < 5000; ++k) {                                               \
      Value v = 0;                                                                 \
      ASSERT_TRUE(tree.get(c, k, &v));                                             \
      ASSERT_EQ(v, k + 1);                                                         \
    }                                                                              \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, ReverseInsert) {                                                 \
    ctx::NativeEnv env;                                                            \
    ctx::NativeCtx c(env, 0);                                                      \
    auto tree = NativeAdapter::make(c);                                            \
    for (Key k = 5000; k > 0; --k) tree.put(c, k, k);                              \
    tree.check_invariants();                                                       \
    for (Key k = 1; k <= 5000; ++k) {                                              \
      Value v = 0;                                                                 \
      ASSERT_TRUE(tree.get(c, k, &v));                                             \
    }                                                                              \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, ScanBoundaryNative) {                                            \
    ctx::NativeEnv env;                                                            \
    ctx::NativeCtx c(env, 0);                                                      \
    auto tree = NativeAdapter::make(c);                                            \
    euno::tests::run_scan_boundary_workload(tree, c);                              \
    tree.destroy(c);                                                               \
  }                                                                                \
  TEST(SuiteName, ScanChunkedSweepSim) {                                           \
    euno::tests::run_scan_chunk_sweep_sim<SimAdapter>(404);                        \
  }                                                                                \
  TEST(SuiteName, SimConcurrentStress) {                                           \
    euno::tests::run_sim_concurrent_stress<SimAdapter>(8, 400, 64, 42);            \
  }                                                                                \
  TEST(SuiteName, SimConcurrentStressManyCores) {                                  \
    euno::tests::run_sim_concurrent_stress<SimAdapter>(20, 200, 16, 43);           \
  }                                                                                \
  TEST(SuiteName, NativeConcurrentStress) {                                        \
    euno::tests::run_native_concurrent_stress<NativeAdapter>(4, 3000, 64, 44);     \
  }

}  // namespace euno::tests
