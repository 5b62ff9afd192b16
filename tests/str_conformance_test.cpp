// Bytes-domain conformance (`ctest -L strkey`): every tree registered with
// string-key support is swept through a string-native oracle battery on BOTH
// execution contexts, via the registry's AnyStrTree factories — the same
// type-erased surface the driver's bytes path dispatches through.
//
// This file is the string-semantics complement to the u64-codec coverage in
// registry_conformance_test.cpp (which already runs the same trees through
// their order-preserving codec surface): here keys are genuinely variable
// length, payloads ride behind the value indirection, and the torture corpus
// concentrates on what the codec cannot reach — long shared prefixes that
// defeat the in-node 8-byte slice, sign-bit bytes (0x80/0xFF) that would
// expose a signed compare anywhere in the stack, and suffix-only key
// differences beyond the first 8 bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "tree_conformance.hpp"
#include "trees/node/consecutive.hpp"
#include "trees/registry.hpp"
#include "util/memstats.hpp"
#include "workload/strkeys.hpp"

namespace euno::tests {
namespace {

using trees::TreeBuildOptions;
using trees::TreeEntry;
using trees::node::BytesView;

/// The bytes-capable registry entries (the parameter domain of this file).
std::vector<TreeEntry> str_entries() {
  std::vector<TreeEntry> out;
  for (const auto& e : trees::tree_registry().entries()) {
    if (e.caps.key_domain == trees::KeyDomain::kBytes) out.push_back(e);
  }
  return out;
}

/// Shared-prefix / sign-bit torture corpus. Every key shares the same first
/// 8 bytes ("pfx8----"), so the in-node prefix slice never discriminates and
/// every comparison must resolve through the out-of-line suffix tie-break.
/// High bytes (0x80, 0xFF) sit where a signed char compare would misorder.
std::vector<std::string> torture_keys() {
  const std::string p8 = "pfx8----";
  std::vector<std::string> keys;
  keys.push_back(p8);                      // exactly the shared prefix
  keys.push_back(p8 + std::string(1, '\x01'));
  keys.push_back(p8 + "a");
  keys.push_back(p8 + "a" + std::string(1, '\x00'));  // embedded NUL
  keys.push_back(p8 + "a" + std::string(1, '\x7f'));
  keys.push_back(p8 + "a" + std::string(1, '\x80'));  // sign-bit boundary
  keys.push_back(p8 + "a" + std::string(1, '\xff'));
  keys.push_back(p8 + "aa");
  keys.push_back(p8 + "aaaaaaaaaaaaaaaa");            // 3 packed words deep
  keys.push_back(p8 + "aaaaaaaaaaaaaaab");
  keys.push_back(p8 + std::string(1, '\x80'));
  keys.push_back(p8 + std::string(1, '\x80') + "tail");
  keys.push_back(p8 + std::string(1, '\xff'));
  keys.push_back(p8 + std::string(64, 'z'));          // long identical run
  keys.push_back(p8 + std::string(64, 'z') + "!");
  return keys;
}

/// Oracle record: value word + payload text.
using StrOracle = std::map<std::string, std::pair<Value, std::string>>;

/// Drains the whole tree through one big scan and compares against the
/// oracle: same keys, same order, same values, same payloads.
template <class Ctx>
void expect_matches_oracle(trees::AnyStrTree<Ctx>& tree, Ctx& c,
                           const StrOracle& oracle) {
  std::vector<std::tuple<std::string, Value, std::string>> got;
  const std::size_t n = tree.scan(
      c, BytesView{}, oracle.size() + 16,
      [&](BytesView k, Value v, BytesView p) {
        got.emplace_back(k.to_string(), v, p.to_string());
      });
  ASSERT_EQ(n, got.size());
  ASSERT_EQ(got.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, vp] : oracle) {
    ASSERT_EQ(std::get<0>(got[i]), k) << "scan order/coverage at " << i;
    ASSERT_EQ(std::get<1>(got[i]), vp.first) << "value for " << k;
    ASSERT_EQ(std::get<2>(got[i]), vp.second) << "payload for " << k;
    ++i;
  }
}

/// Random put/get/erase/overwrite stream over url-corpus keys + the torture
/// corpus, oracle-checked at the end (keys, order, values, payloads).
template <class Ctx>
void run_str_oracle(trees::AnyStrTree<Ctx>& tree, Ctx& c, std::uint64_t seed,
                    int ops, std::uint64_t ids) {
  const workload::StringKeySpace ks(workload::KeyStyle::kUrl, seed);
  const std::vector<std::string> torture = torture_keys();
  StrOracle oracle;
  Xoshiro256 rng(seed);
  auto key_at = [&](std::uint64_t r) {
    // 1 in 4 draws hits the torture corpus so shared-prefix keys see
    // constant churn alongside the url keys.
    if ((r & 3) == 0) return torture[r % torture.size()];
    return ks.key_of(r % ids);
  };
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next();
    const std::string key = key_at(r);
    const BytesView kv(key);
    switch (rng.next_bounded(5)) {
      case 0: {  // erase
        const bool tree_had = tree.erase(c, kv);
        ASSERT_EQ(tree_had, oracle.erase(key) != 0) << "erase " << key;
        break;
      }
      case 1: {  // get
        Value v = 0;
        const bool found = tree.get(c, kv, &v);
        const auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << "get " << key;
        if (found) {
          ASSERT_EQ(v, it->second.first) << "get value " << key;
        }
        break;
      }
      default: {  // put / overwrite, payload length varies 0..~90
        const Value v = rng.next();
        const std::string payload =
            ks.payload_of(r, v, static_cast<std::uint32_t>(rng.next_bounded(91)));
        tree.put(c, kv, v, BytesView(payload));
        oracle[key] = {v, payload};
        break;
      }
    }
  }
  expect_matches_oracle(tree, c, oracle);
  tree.check_invariants();
  ASSERT_EQ(tree.size_slow(), oracle.size());
}

class StrConformance : public ::testing::TestWithParam<TreeEntry> {};

TEST_P(StrConformance, OracleSim) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = GetParam().make_sim_str(c, TreeBuildOptions{});
  run_str_oracle(*tree, c, 921, 4000, 500);
  tree->destroy(c);
  // Full reclamation: destroy must free every live suffix/value box.
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

TEST_P(StrConformance, OracleNative) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = GetParam().make_native_str(c, TreeBuildOptions{});
  run_str_oracle(*tree, c, 922, 9000, 1200);
  tree->destroy(c);
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

// Chunked scans with a cursor: the string successor of key K is K + '\0'
// (the shortest strictly-greater key), so resuming there must reproduce one
// contiguous, complete, ordered sweep for any chunk size. The corpus is url
// keys plus the torture corpus, so leaves hold long equal-slice runs; chunk
// sizes around the fanout (15, 16, 17) make resumed starts land inside
// those runs, on leaf boundaries, and at absent K + '\0' keys.
template <class Ctx>
void chunked_scan_sweep(trees::AnyStrTree<Ctx>& tree, Ctx& c) {
  const workload::StringKeySpace ks(workload::KeyStyle::kUrl, 923);
  const std::vector<std::string> torture = torture_keys();
  StrOracle oracle;
  Xoshiro256 rng(923);
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t r = rng.next();
    const std::string key =
        (r & 3) == 0 ? torture[r % torture.size()] : ks.key_of(r % 900);
    if (rng.next_bounded(4) == 0) {
      tree.erase(c, BytesView(key));
      oracle.erase(key);
    } else {
      const Value v = rng.next();
      const std::string payload = ks.payload_of(i, v, 24);
      tree.put(c, BytesView(key), v, BytesView(payload));
      oracle[key] = {v, payload};
    }
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{15},
                                  std::size_t{16}, std::size_t{17},
                                  std::size_t{33}}) {
    std::string start;  // empty = slice 0, before every key
    std::size_t total = 0;
    auto it = oracle.begin();
    for (;;) {
      std::vector<std::tuple<std::string, Value, std::string>> batch;
      const std::size_t n =
          tree.scan(c, BytesView(start), chunk,
                    [&](BytesView k, Value v, BytesView p) {
                      batch.emplace_back(k.to_string(), v, p.to_string());
                    });
      ASSERT_EQ(n, batch.size());
      for (std::size_t j = 0; j < n; ++j, ++it) {
        ASSERT_NE(it, oracle.end()) << "chunk=" << chunk;
        ASSERT_EQ(std::get<0>(batch[j]), it->first) << "chunk=" << chunk;
        ASSERT_EQ(std::get<1>(batch[j]), it->second.first) << "chunk=" << chunk;
        ASSERT_EQ(std::get<2>(batch[j]), it->second.second)
            << "chunk=" << chunk;
      }
      total += n;
      if (n < chunk) break;
      start = std::get<0>(batch[n - 1]) + std::string(1, '\0');
    }
    ASSERT_EQ(it, oracle.end()) << "chunk=" << chunk;
    ASSERT_EQ(total, oracle.size()) << "chunk=" << chunk;
  }
  // One past the last key: nothing left to emit.
  ASSERT_FALSE(oracle.empty());
  const std::string past = oracle.rbegin()->first + std::string(1, '\0');
  const std::size_t n = tree.scan(c, BytesView(past), 8,
                                  [](BytesView, Value, BytesView) {});
  ASSERT_EQ(n, 0u);
  tree.check_invariants();
  tree.destroy(c);
}

TEST_P(StrConformance, ChunkedScanSweepSim) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  chunked_scan_sweep(*GetParam().make_sim_str(c, TreeBuildOptions{}), c);
}

TEST_P(StrConformance, ChunkedScanSweepNative) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  chunked_scan_sweep(*GetParam().make_native_str(c, TreeBuildOptions{}), c);
}

// Value indirection reclamation: overwrites retire the previous box through
// the tree's epoch domain. The counters must show the churn (every overwrite
// after the first retires exactly one box) and respect freed <= retired at
// all times; destroy() then returns the box class to its baseline.
TEST_P(StrConformance, ReclamationCountersSim) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = GetParam().make_sim_str(c, TreeBuildOptions{});

  const std::string key = "pfx8----hotkey";
  constexpr int kOverwrites = 600;
  for (int i = 0; i < kOverwrites; ++i) {
    const std::string payload(static_cast<std::size_t>(i % 40), 'p');
    tree->put(c, BytesView(key), static_cast<Value>(i), BytesView(payload));
  }
  const std::uint64_t retired = tree->retired_boxes();
  const std::uint64_t freed = tree->freed_boxes();
  EXPECT_GE(retired, static_cast<std::uint64_t>(kOverwrites - 1));
  EXPECT_LE(freed, retired);

  Value v = 0;
  ASSERT_TRUE(tree->get(c, BytesView(key), &v));
  ASSERT_EQ(v, static_cast<Value>(kOverwrites - 1));
  tree->destroy(c);
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

TEST_P(StrConformance, SimConcurrentStress) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = GetParam().make_sim_str(setup, TreeBuildOptions{});

  constexpr int kThreads = 8;
  constexpr int kOps = 250;
  constexpr std::uint64_t kSeed = 924;
  const std::vector<std::string> torture = torture_keys();
  for (int t = 0; t < kThreads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      const workload::StringKeySpace ks(workload::KeyStyle::kUrl, kSeed);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          // Striped private keys: "t<t>/" prefix keeps them disjoint.
          const std::string key =
              "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(128));
          const std::string payload = ks.payload_of(
              static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(t), 16);
          tree->put(c, BytesView(key),
                    (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                    BytesView(payload));
        } else {
          // Hot shared-prefix keys, contended across all threads.
          const std::string& key = torture[rng.next_bounded(torture.size())];
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree->get(c, BytesView(key), &v);
          } else {
            tree->put(c, BytesView(key),
                      (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                      BytesView{});
          }
        }
      }
    });
  }
  simulation.run();

  tree->check_invariants();
  ctx::SimCtx verify(simulation, 0);
  for (int t = 0; t < kThreads; ++t) {
    const workload::StringKeySpace ks(workload::KeyStyle::kUrl, kSeed);
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<std::string, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const std::string key =
            "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(128));
        ks.payload_of(static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(t), 16);
        mine[key] = (static_cast<Value>(t) << 32) | static_cast<Value>(i);
      } else {
        rng.next_bounded(torture.size());
        rng.next_bounded(3);  // keep the replayed stream in sync
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree->get(verify, BytesView(k), &got))
          << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree->destroy(verify);
}

TEST_P(StrConformance, NativeConcurrentStress) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = GetParam().make_native_str(setup, TreeBuildOptions{});

  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  constexpr std::uint64_t kSeed = 925;
  const std::vector<std::string> torture = torture_keys();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      const workload::StringKeySpace ks(workload::KeyStyle::kUuid, kSeed);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const std::string key =
              "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(256));
          const std::string payload = ks.payload_of(
              static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(t), 32);
          tree->put(c, BytesView(key),
                    (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                    BytesView(payload));
        } else {
          const std::string& key = torture[rng.next_bounded(torture.size())];
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree->get(c, BytesView(key), &v);
          } else {
            tree->put(c, BytesView(key),
                      (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                      BytesView{});
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  tree->check_invariants();
  ctx::NativeCtx verify(env, 0);
  for (int t = 0; t < kThreads; ++t) {
    const workload::StringKeySpace ks(workload::KeyStyle::kUuid, kSeed);
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<std::string, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const std::string key =
            "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(256));
        ks.payload_of(static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(t), 32);
        mine[key] = (static_cast<Value>(t) << 32) | static_cast<Value>(i);
      } else {
        rng.next_bounded(torture.size());
        rng.next_bounded(3);
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree->get(verify, BytesView(k), &got))
          << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree->destroy(verify);
}

// Native scans over url keys, whose long equal-slice runs make scans start
// inside runs and cross leaves, next to writers that overwrite existing keys
// (retiring boxes a scan may have collected) and insert new ones (splitting
// leaves a scan is walking). Every scan must emit strictly ascending keys, none
// below its start and at most its length, and only boxes whose value word and
// payload belong to their key: the value carries the key's id, so a box
// decoded after reclamation shows as a mismatch here and as a hard fault
// under ASan.
TEST_P(StrConformance, NativeConcurrentScans) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = GetParam().make_native_str(setup, TreeBuildOptions{});

  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr std::uint64_t kPreload = 1024;
  constexpr std::uint32_t kPayload = 24;
  constexpr std::uint64_t kSeed = 926;
  const workload::StringKeySpace ks(workload::KeyStyle::kUrl, kSeed);
  const auto put_id = [&](ctx::NativeCtx& c, std::uint64_t id,
                          std::uint64_t salt) {
    const std::string key = ks.key_of(id);
    const Value v = (id << 20) | salt;
    const std::string payload = ks.payload_of(id, v, kPayload);
    tree->put(c, BytesView(key), v, BytesView(payload));
  };
  for (std::uint64_t id = 0; id < kPreload; ++id) put_id(setup, id, 0);

  std::vector<std::string> errors(kThreads);
  std::vector<std::uint64_t> inserted(kThreads, 0);
  std::vector<std::uint64_t> scanned(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      // Start together, so the scans overlap the other threads' writes.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::string& err = errors[t];
      for (int i = 0; i < kOps && err.empty(); ++i) {
        const std::uint64_t kind = rng.next_bounded(10);
        if (kind >= 8) {  // insert a key of this thread's own id stripe
          put_id(c, kPreload + t + kThreads * inserted[t]++, 0);
          continue;
        }
        if (kind >= 5) {  // overwrite a preloaded key
          put_id(c, rng.next_bounded(kPreload), i + 1);
          continue;
        }
        const std::string start =
            ks.key_of(rng.next_bounded(kPreload + kThreads * kOps / 4));
        const std::size_t len = 1 + rng.next_bounded(48);
        std::string prev;
        std::size_t emitted = 0;
        const std::size_t n = tree->scan(
            c, BytesView(start), len, [&](BytesView k, Value v, BytesView p) {
              if (!err.empty()) return;
              const std::string key = k.to_string();
              const std::string& bound = emitted == 0 ? start : prev;
              const int cmp = trees::node::bytes_compare(
                  key.data(), key.size(), bound.data(), bound.size());
              ++emitted;
              // Url keys end in their id as 16 hex digits.
              const std::uint64_t id =
                  key.size() < 16 ? ~0ull
                                  : std::strtoull(key.c_str() + key.size() - 16,
                                                  nullptr, 16);
              if (cmp < 0 || (cmp == 0 && emitted > 1)) {
                err = "order: " + key + " after " + bound;
              } else if (v >> 20 != id) {
                err = "value of " + key + " names id " +
                      std::to_string(v >> 20);
              } else if (p.to_string() != ks.payload_of(id, v, kPayload)) {
                err = "payload of " + key;
              }
              prev = key;
            });
        scanned[t] += n;
        if (err.empty() && (n != emitted || n > len)) {
          err = "scan from " + start + " returned " + std::to_string(n) +
                ", emitted " + std::to_string(emitted) + ", len " +
                std::to_string(len);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
    EXPECT_GT(scanned[t], 0u) << "thread " << t;
  }

  tree->check_invariants();
  std::uint64_t total = kPreload;
  for (const std::uint64_t n : inserted) total += n;
  ASSERT_EQ(tree->size_slow(), total);
  tree->destroy(setup);
}

// Node search over one equal-slice run. Every key of a node shares its
// 8-byte slice, so the native search resolves each probe inside the run:
// child_index bounds it with count_le and leaf_find with find_eq_pairs,
// then both binary-search the boxes. Checked for every node size up to the
// fanout and every probe key against a host-side bytes_compare bound. The
// all-zero slice (empty key, NUL bytes) exercises the count_le bound that
// has no smaller slice below it.
void check_single_run_nodes(std::vector<std::string> keys) {
  using Traits = trees::node::BytesKeyTraits;
  using Node = trees::node::VersionedNode<trees::kDefaultFanout, Traits>;
  const auto less = [](const std::string& a, const std::string& b) {
    return trees::node::bytes_compare(a.data(), a.size(), b.data(),
                                      b.size()) < 0;
  };
  std::sort(keys.begin(), keys.end(), less);
  ASSERT_LE(keys.size(), static_cast<std::size_t>(Node::kFanout));
  const std::uint64_t slice = trees::node::bytes_prefix(BytesView(keys[0]));
  for (const auto& k : keys) {
    ASSERT_EQ(trees::node::bytes_prefix(BytesView(k)), slice) << k;
  }
  std::vector<std::string> probes = {"", std::string(1, '\0'), "pfx8---",
                                     "pfx8---.", "pfx8----", "\xff"};
  for (const auto& k : keys) {
    probes.push_back(k);
    probes.push_back(k + std::string(1, '\0'));
    probes.push_back(k + "\xff");
    if (!k.empty()) probes.push_back(k.substr(0, k.size() - 1));
  }

  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  Node* leaf = Node::alloc(c, true);
  Node* inner = Node::alloc(c, false);
  std::vector<trees::node::BytesBox*> boxes;
  for (const auto& k : keys) {
    boxes.push_back(trees::node::make_box(c, BytesView(k), 0, {}));
  }
  for (std::size_t cnt = 1; cnt <= keys.size(); ++cnt) {
    for (std::size_t i = 0; i < cnt; ++i) {
      leaf->recs[i].key = slice;
      leaf->recs[i].value = reinterpret_cast<std::uint64_t>(boxes[i]);
      inner->idx.keys[i] = slice;
      inner->idx.seps[i] = boxes[i];
    }
    leaf->count = static_cast<std::uint32_t>(cnt);
    inner->count = static_cast<std::uint32_t>(cnt);
    const auto end = keys.begin() + static_cast<std::ptrdiff_t>(cnt);
    for (const auto& p : probes) {
      const Traits::Arg arg = Traits::make_arg(BytesView(p));
      const auto lb = std::lower_bound(keys.begin(), end, p, less);
      const int want_leaf =
          lb != end && *lb == p ? static_cast<int>(lb - keys.begin()) : -1;
      const int want_child =
          static_cast<int>(std::upper_bound(keys.begin(), end, p, less) -
                           keys.begin());
      ASSERT_EQ(trees::node::leaf_find<Traits>(c, leaf, arg), want_leaf)
          << "cnt=" << cnt << " probe=" << p;
      ASSERT_EQ(trees::node::child_index<Traits>(c, inner, arg), want_child)
          << "cnt=" << cnt << " probe=" << p;
    }
  }
  for (auto* b : boxes) trees::node::free_box(c, b);
  c.free(leaf, sizeof(Node), MemClass::kLeafNode);
  c.free(inner, sizeof(Node), MemClass::kInternalNode);
}

TEST(StrNodeSearch, SingleRunNodeNative) {
  std::vector<std::string> pfx = torture_keys();
  pfx.push_back("pfx8----b");
  check_single_run_nodes(pfx);
  const std::string z8(8, '\0');
  check_single_run_nodes({"", std::string(1, '\0'), std::string(2, '\0'), z8,
                          z8 + std::string(1, '\0'), z8 + "a", z8 + "\x80",
                          z8 + std::string(8, 'q') + "r"});
}

/// SimCtx that notes which records of one leaf its instrumented reads touch
/// (the reads a simulated region charges for and tracks).
class RecordReadLog : public ctx::SimCtx {
 public:
  RecordReadLog(sim::Simulation& s, const trees::node::Record* recs, int n)
      : SimCtx(s, 0), lo_(recs), hi_(recs + n) {}

  template <class T>
  T read(const T& src) {
    const auto* p = reinterpret_cast<const char*>(&src);
    const auto* lo = reinterpret_cast<const char*>(lo_);
    if (p >= lo && p < reinterpret_cast<const char*>(hi_)) {
      touched.insert(static_cast<int>((p - lo) / sizeof(trees::node::Record)));
    }
    return SimCtx::read(src);
  }

  std::set<int> touched;

 private:
  const trees::node::Record* lo_;
  const trees::node::Record* hi_;
};

// A scan that starts mid-leaf binary-searches its start and takes records
// from there. Under an instrumented context it may read only those records:
// record 0, the search's probes and the records it takes. Reading any other
// record's box pointer (say, to feed a prefetch hint, which SimCtx drops)
// would charge simulated cost and grow the region's read set for nothing.
// Checked for every start and several take limits over a full leaf of url
// keys (several slices, long equal-slice runs).
TEST(StrScanFill, MidLeafStartReadsOnlyProbedAndTakenRecords) {
  using Traits = trees::node::BytesKeyTraits;
  using Node = trees::node::VersionedNode<trees::kDefaultFanout, Traits>;
  constexpr int n = Node::kFanout;
  const workload::StringKeySpace ks(workload::KeyStyle::kUrl, 927);
  std::vector<std::string> keys;
  for (std::uint64_t id = 0; id < n; ++id) keys.push_back(ks.key_of(id));
  const auto less = [](const std::string& a, const std::string& b) {
    return trees::node::bytes_compare(a.data(), a.size(), b.data(),
                                      b.size()) < 0;
  };
  std::sort(keys.begin(), keys.end(), less);

  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx sc(simulation, 0);
  Node* leaf = Node::alloc(sc, true);
  for (int i = 0; i < n; ++i) {
    leaf->recs[i].key = trees::node::bytes_prefix(BytesView(keys[i]));
    leaf->recs[i].value = reinterpret_cast<std::uint64_t>(
        trees::node::make_box(sc, BytesView(keys[i]), 0, {}));
  }
  leaf->count = n;

  for (int start = 1; start < n; ++start) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{3},
                                    std::size_t{n}}) {
      // The records the start search probes: record 0, then the binary
      // search over [1, n).
      std::set<int> allowed = {0};
      for (int lo = 1, hi = n; lo < hi;) {
        const int mid = (lo + hi) / 2;
        allowed.insert(mid);
        if (less(keys[mid], keys[start])) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const int end = std::min(n, start + static_cast<int>(limit));
      for (int i = start; i < end; ++i) allowed.insert(i);

      RecordReadLog c(simulation, &leaf->recs[0], n);
      const Traits::Cursor cursor =
          Traits::make_cursor(Traits::make_arg(BytesView(keys[start])));
      Traits::ScanTmp tmp[n];
      std::size_t tn = 0;
      Traits::scan_fill(c, leaf, n, cursor, tmp, tn, limit);
      ASSERT_EQ(tn, static_cast<std::size_t>(end - start));
      for (std::size_t i = 0; i < tn; ++i) {
        ASSERT_EQ(tmp[i].box->key().to_string(), keys[start + i]);
      }
      for (const int i : c.touched) {
        EXPECT_TRUE(allowed.count(i) != 0)
            << "start=" << start << " limit=" << limit
            << ": read record " << i << ", neither probed nor taken";
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    trees::node::free_box(
        sc, reinterpret_cast<trees::node::BytesBox*>(leaf->recs[i].value));
  }
  sc.free(leaf, sizeof(Node), MemClass::kLeafNode);
}

std::string entry_test_name(const ::testing::TestParamInfo<TreeEntry>& info) {
  std::string out;
  for (char ch : info.param.name) out += (ch == '-') ? '_' : ch;
  return out;
}

INSTANTIATE_TEST_SUITE_P(BytesDomainTrees, StrConformance,
                         ::testing::ValuesIn(str_entries()), entry_test_name);

}  // namespace
}  // namespace euno::tests
