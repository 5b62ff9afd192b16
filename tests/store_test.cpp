// Sharded-store robustness battery (`ctest -L store`): epoch-domain
// independence, admission/shedding, deadline statuses, per-shard isolation
// under overload, manifest counter round-trip, and a native multi-threaded
// soak that exercises one epoch-reclamation domain per shard (the ASAN CI
// job's target — a cross-shard reclamation bug is a real use-after-free).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "driver/experiment.hpp"
#include "obs/manifest.hpp"
#include "store/admission.hpp"
#include "store/sharded_store.hpp"
#include "trees/registry.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"

namespace euno::store {
namespace {

sim::MachineConfig test_machine() {
  sim::MachineConfig cfg;
  cfg.arena_bytes = 256ull << 20;
  return cfg;
}

const trees::TreeEntry& entry(const char* name) {
  const trees::TreeEntry* e = trees::tree_registry().by_name(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

template <class Ctx>
typename ShardedStore<Ctx>::TreeFactory factory_for(const trees::TreeEntry& e);

template <>
ShardedStore<ctx::SimCtx>::TreeFactory factory_for<ctx::SimCtx>(
    const trees::TreeEntry& e) {
  return [&e](ctx::SimCtx& c) { return e.make_sim(c, trees::TreeBuildOptions{}); };
}

template <>
ShardedStore<ctx::NativeCtx>::TreeFactory factory_for<ctx::NativeCtx>(
    const trees::TreeEntry& e) {
  return
      [&e](ctx::NativeCtx& c) { return e.make_native(c, trees::TreeBuildOptions{}); };
}

workload::Op put_op(trees::Key k, trees::Value v) {
  workload::Op op{};
  op.type = workload::OpType::kPut;
  op.key = k;
  op.value = v;
  return op;
}

workload::Op get_op(trees::Key k) {
  workload::Op op{};
  op.type = workload::OpType::kGet;
  op.key = k;
  return op;
}

// ---------------------------------------------------------------------------
// Epoch domains (satellite: EpochManager is instantiable — one domain per
// shard — and domains are fully independent).

TEST(EpochDomains, RetireAndFreeIndependentOfOtherDomainPins) {
  EpochManager a(4), b(4);

  // Domain A has a long-lived reader pinned; that must not stop B from
  // advancing and freeing — the whole point of per-shard domains.
  a.enter(0);

  int freed_b = 0;
  {
    auto guard = b.pin(0);
    b.retire(0, &freed_b, [](void* p) { ++*static_cast<int*>(p); });
  }
  // Unpinned now: advance twice (retire epoch < min active), then flush via
  // a second retirement cycle on the same slot — freeing is per-slot, so the
  // cadence-triggered sweep must run on the tid that holds the limbo entry.
  b.try_advance();
  b.try_advance();
  {
    auto guard = b.pin(0);
    static int dummy;
    for (int i = 0; i < 70; ++i) {  // cross the advance-interval cadence
      b.retire(0, &dummy, [](void*) {});
    }
  }
  EXPECT_EQ(freed_b, 1) << "domain B could not reclaim while A held a pin";
  EXPECT_GT(b.global_epoch(), a.global_epoch())
      << "B's epoch should advance past A's pinned epoch";

  // Conversely, A's own retiree stays in limbo while its reader is pinned...
  int freed_a = 0;
  a.retire(0, &freed_a, [](void* p) { ++*static_cast<int*>(p); });
  a.try_advance();
  EXPECT_EQ(freed_a, 0);
  // ...and drains once the pin drops.
  a.exit(0);
  a.drain_all();
  EXPECT_EQ(freed_a, 1);
  EXPECT_EQ(a.freed_count(), 1u);
}

// ---------------------------------------------------------------------------
// Admission primitives.

TEST(TokenBucket, RefillsFromElapsedClock) {
  TokenBucket tb;
  tb.configure(/*tokens_per_unit=*/0.01, /*burst=*/2, /*now=*/0);
  ASSERT_TRUE(tb.enabled());
  EXPECT_TRUE(tb.try_take(0));   // burst
  EXPECT_TRUE(tb.try_take(0));   // burst
  EXPECT_FALSE(tb.try_take(0));  // empty, no time elapsed
  EXPECT_FALSE(tb.try_take(50));   // 0.5 tokens accrued
  EXPECT_TRUE(tb.try_take(110));   // >1 token accrued
  EXPECT_FALSE(tb.try_take(111));  // spent again

  TokenBucket off;
  off.configure(0, 1, 0);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(off.try_take(0));
}

TEST(OverloadMonitor, StagedDescentAndRecovery) {
  StoreOptions o;
  o.shards = 1;
  o.monitor_window = 4;
  o.shed_on_pct = 50;
  o.degrade_windows = 2;
  OverloadMonitor m;
  m.configure(o);
  ASSERT_EQ(m.state(), ShardState::kHealthy);

  auto feed_window = [&](int sheds) {
    bool advanced = false;
    for (int i = 0; i < 4; ++i) advanced |= m.note(i < sheds);
    return advanced;
  };

  EXPECT_FALSE(feed_window(1));  // 25% < 50%: stays healthy
  EXPECT_EQ(m.state(), ShardState::kHealthy);
  EXPECT_TRUE(feed_window(2));  // 50%: healthy -> shedding, stage-advancing
  EXPECT_EQ(m.state(), ShardState::kShedding);
  EXPECT_FALSE(feed_window(0));  // idle window: recovers
  EXPECT_EQ(m.state(), ShardState::kHealthy);

  // Sustained saturation: shedding, then terminal on the 2nd saturated
  // window in a row.
  EXPECT_TRUE(feed_window(4));
  EXPECT_EQ(m.state(), ShardState::kShedding);
  EXPECT_TRUE(feed_window(4));
  EXPECT_EQ(m.state(), ShardState::kShardLockOnly);
  // Terminal: an idle window no longer recovers.
  EXPECT_FALSE(feed_window(0));
  EXPECT_EQ(m.state(), ShardState::kShardLockOnly);
}

// ---------------------------------------------------------------------------
// ShardedStore on the simulator.

TEST(ShardedStoreSim, RoutesEveryKeyToItsShardAndBack) {
  sim::Simulation simulation(test_machine());
  ctx::SimCtx c(simulation, 0);
  StoreOptions o;
  o.shards = 4;
  ShardedStore<ctx::SimCtx> store(c, o, StoreRuntime{},
                                  factory_for<ctx::SimCtx>(entry("euno")));

  constexpr int kKeys = 512;
  std::vector<int> per_shard(4, 0);
  for (trees::Key k = 0; k < kKeys; ++k) {
    const int s = store.shard_of(k);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    per_shard[static_cast<std::size_t>(s)]++;
    const auto r = store.execute(c, put_op(k, k * 3 + 1), c.now(), nullptr);
    ASSERT_EQ(r.status, StoreStatus::kOk);
  }
  // mix64 routing must actually spread keys (not degenerate to one shard).
  for (int s = 0; s < 4; ++s) EXPECT_GT(per_shard[static_cast<std::size_t>(s)], 0);

  for (trees::Key k = 0; k < kKeys; ++k) {
    const auto r = store.execute(c, get_op(k), c.now(), nullptr);
    ASSERT_EQ(r.status, StoreStatus::kOk) << k;
    ASSERT_EQ(r.value, k * 3 + 1) << k;
  }
  EXPECT_EQ(store.execute(c, get_op(1u << 20), c.now(), nullptr).status,
            StoreStatus::kNotFound);
  EXPECT_EQ(store.size_slow(), static_cast<std::size_t>(kKeys));
  store.check_invariants();

  const auto t = store.accumulate();
  EXPECT_EQ(t.admitted, 2ull * kKeys + 1);
  EXPECT_EQ(t.shed, 0u);
  EXPECT_EQ(t.deadline_exceeded, 0u);
  store.destroy(c);
}

TEST(ShardedStoreSim, TokenBucketShedsInsteadOfQueueing) {
  sim::Simulation simulation(test_machine());
  ctx::SimCtx c(simulation, 0);
  StoreOptions o;
  o.shards = 1;  // single shard: every op faces the same bucket
  o.shedding = true;
  o.shard_rate_mops = 1e-9;  // effectively no refill at sim-time scale
  o.burst = 3;
  ShardedStore<ctx::SimCtx> store(c, o, StoreRuntime{},
                                  factory_for<ctx::SimCtx>(entry("euno")));

  int ok = 0, shed = 0;
  for (trees::Key k = 0; k < 10; ++k) {
    const auto r = store.execute(c, put_op(k, 1), c.now(), nullptr);
    (r.status == StoreStatus::kShedded ? shed : ok)++;
    if (r.status == StoreStatus::kShedded) {
      EXPECT_EQ(r.status, StoreStatus::kShedded);
    }
  }
  EXPECT_EQ(ok, 3);    // the free burst
  EXPECT_EQ(shed, 7);  // everything past it is rejected, never queued
  const auto t = store.accumulate();
  EXPECT_EQ(t.admitted, 3u);
  EXPECT_EQ(t.shed, 7u);
  // Shedding rejects at the gate: the trees saw only the admitted ops.
  EXPECT_EQ(store.size_slow(), 3u);

  // With shedding off the same config admits everything (knobs default off).
  StoreOptions open = o;
  open.shedding = false;
  ShardedStore<ctx::SimCtx> store2(c, open, StoreRuntime{},
                                   factory_for<ctx::SimCtx>(entry("euno")));
  for (trees::Key k = 0; k < 10; ++k) {
    ASSERT_EQ(store2.execute(c, put_op(k, 1), c.now(), nullptr).status,
              StoreStatus::kOk);
  }
  EXPECT_EQ(store2.accumulate().shed, 0u);
  store.destroy(c);
  store2.destroy(c);
}

TEST(ShardedStoreSim, DeadlinePrecheckRejectsDoomedOps) {
  sim::Simulation simulation(test_machine());
  StoreOptions o;
  o.shards = 2;
  o.deadline_us = 50;  // 50k cycles at StoreRuntime's 1 GHz: roomy for one op
  // Host-side clocks only advance inside fibers; run the scenario there.
  simulation.spawn(0, [&](int core) {
    ctx::SimCtx c(simulation, core);
    ShardedStore<ctx::SimCtx> store(c, o, StoreRuntime{},
                                    factory_for<ctx::SimCtx>(entry("euno")));
    const std::uint64_t scheduled = c.now();
    ASSERT_EQ(store.execute(c, put_op(7, 7), scheduled, nullptr).status,
              StoreStatus::kOk);
    // Burn well past the 50k-cycle budget, then present an op still
    // stamped with the old arrival time: rejected before touching a tree.
    simulation.charge(100000);
    const auto r = store.execute(c, put_op(9, 9), scheduled, nullptr);
    EXPECT_EQ(r.status, StoreStatus::kDeadlineExceeded);
    const auto t = store.accumulate();
    EXPECT_EQ(t.deadline_exceeded, 1u);
    EXPECT_EQ(t.admitted, 1u);
    // A fresh arrival is unaffected.
    EXPECT_EQ(store.execute(c, put_op(9, 9), c.now(), nullptr).status,
              StoreStatus::kOk);
    store.destroy(c);
  });
  simulation.run();
}

TEST(ShardedStoreSim, AdmittedOpRunsToCompletionPastItsDeadline) {
  // Every HTM attempt aborts (spurious injection at 100%), so each op burns
  // its retry budget charging abort penalties well past its ~1000-cycle
  // deadline. Deadlines are enforced only at admission: an admitted op
  // still runs to completion on the fallback lock.
  sim::MachineConfig cfg = test_machine();
  cfg.fault.spurious_abort_bp = 10000;
  sim::Simulation simulation(cfg);
  StoreOptions o;
  o.shards = 1;
  o.deadline_us = 1;
  simulation.spawn(0, [&](int core) {
    ctx::SimCtx c(simulation, core);
    ShardedStore<ctx::SimCtx> store(c, o, StoreRuntime{},
                                    factory_for<ctx::SimCtx>(entry("htm-bptree")));
    for (trees::Key k = 0; k < 20; ++k) {
      EXPECT_EQ(store.execute(c, put_op(k, k + 1), c.now(), nullptr).status,
                StoreStatus::kOk)
          << k;
    }
    for (trees::Key k = 0; k < 20; ++k) {
      const auto r = store.execute(c, get_op(k), c.now(), nullptr);
      EXPECT_EQ(r.status, StoreStatus::kOk) << k;
      EXPECT_EQ(r.value, k + 1) << k;
    }
    EXPECT_EQ(store.accumulate().deadline_exceeded, 0u);
    store.check_invariants();
    store.destroy(c);
  });
  simulation.run();
}

TEST(ShardedStoreSim, OverloadedShardDegradesAloneOthersStayHealthy) {
  sim::Simulation simulation(test_machine());
  ctx::SimCtx c(simulation, 0);
  StoreOptions o;
  o.shards = 4;
  o.shedding = true;
  o.shard_rate_mops = 1e-9;  // no refill: every post-burst op sheds
  o.burst = 1;
  o.monitor_window = 8;  // hair-trigger monitor
  o.shed_on_pct = 50;
  o.degrade_windows = 2;
  ShardedStore<ctx::SimCtx> store(c, o, StoreRuntime{},
                                  factory_for<ctx::SimCtx>(entry("euno")));

  // Find keys for one victim shard and hammer only those.
  const int victim = store.shard_of(0);
  std::vector<trees::Key> victim_keys;
  for (trees::Key k = 0; victim_keys.size() < 64; ++k) {
    if (store.shard_of(k) == victim) victim_keys.push_back(k);
  }
  for (const trees::Key k : victim_keys) {
    (void)store.execute(c, put_op(k, 1), c.now(), nullptr);
  }

  EXPECT_EQ(store.shard_state(victim), ShardState::kShardLockOnly)
      << "sustained saturation must walk the victim to the terminal stage";
  int healthy = 0;
  for (int s = 0; s < o.shards; ++s) {
    if (s != victim) {
      EXPECT_EQ(store.shard_state(s), ShardState::kHealthy) << s;
      healthy++;
    }
  }
  EXPECT_EQ(healthy, 3);
  EXPECT_GE(store.accumulate().degradations, 2u);  // shedding + terminal

  // Isolation: the other shards still admit (each has its own untouched
  // burst token) — a degraded shard cannot drag its neighbours down.
  int other_admitted = 0;
  for (trees::Key k = 0; k < 256 && other_admitted == 0; ++k) {
    if (store.shard_of(k) == victim) continue;
    if (store.execute(c, put_op(k, 2), c.now(), nullptr).status ==
        StoreStatus::kOk) {
      other_admitted++;
    }
  }
  EXPECT_GT(other_admitted, 0);
  // The victim still serves under its serial lock (try-lock admits when
  // uncontended and the bucket allows... rate is zero here, so it sheds —
  // but it must *answer*, not wedge).
  const auto r = store.execute(c, put_op(victim_keys[0], 3), c.now(), nullptr);
  EXPECT_EQ(r.status, StoreStatus::kShedded);
  store.destroy(c);
}

// ---------------------------------------------------------------------------
// Driver integration: counters surface in ExperimentResult and round-trip
// through the manifest; disabled store leaves manifests untouched.

driver::ExperimentSpec store_spec() {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 4;
  spec.ops_per_thread = 150;
  spec.workload.key_range = 1 << 12;
  spec.workload.scramble = false;
  spec.preload = 1 << 11;
  spec.machine.arena_bytes = 128ull << 20;
  spec.store.shards = 4;
  return spec;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(StoreExperiment, CountersRoundTripThroughManifest) {
  auto spec = store_spec();
  spec.store.shedding = true;
  spec.store.shard_rate_mops = 1e-9;  // shed nearly everything
  spec.store.burst = 4;
  spec.store.deadline_us = 1000;
  const auto r = driver::run_sim_experiment(spec);
  EXPECT_GT(r.admitted_ops, 0u);
  EXPECT_GT(r.shed_ops, 0u);
  EXPECT_EQ(r.admitted_ops + r.shed_ops + r.deadline_exceeded,
            4u * 150u);  // every issued op is accounted exactly once

  const std::string path = ::testing::TempDir() + "/euno_store_manifest.json";
  ASSERT_TRUE(obs::write_manifest(path, "store_test", &spec, &r, 1));
  const std::string doc = read_file(path);
  for (const char* key : {"\"store\"", "\"shards\":4", "\"shedding\":true",
                          "\"admitted_ops\"", "\"shed_ops\"",
                          "\"deadline_exceeded\"", "\"shard_degradations\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"shed_ops\":%llu",
                static_cast<unsigned long long>(r.shed_ops));
  EXPECT_NE(doc.find(buf), std::string::npos)
      << "shed_ops value did not round-trip";
  std::remove(path.c_str());

  // Determinism: the same spec reproduces every store counter exactly.
  const auto r2 = driver::run_sim_experiment(spec);
  EXPECT_EQ(r2.admitted_ops, r.admitted_ops);
  EXPECT_EQ(r2.shed_ops, r.shed_ops);
  EXPECT_EQ(r2.deadline_exceeded, r.deadline_exceeded);
  EXPECT_EQ(r2.sim_cycles, r.sim_cycles);
}

TEST(StoreExperiment, DisabledStoreKeepsManifestFreeOfStoreKeys) {
  auto spec = store_spec();
  spec.store = store::StoreOptions{};  // off: the golden-manifest contract
  const auto r = driver::run_sim_experiment(spec);
  EXPECT_EQ(r.admitted_ops, 0u);
  EXPECT_EQ(r.shed_ops, 0u);
  const std::string path = ::testing::TempDir() + "/euno_nostore_manifest.json";
  ASSERT_TRUE(obs::write_manifest(path, "store_test", &spec, &r, 1));
  const std::string doc = read_file(path);
  for (const char* key : {"\"store\"", "\"admitted_ops\"", "\"shed_ops\"",
                          "\"deadline_exceeded\"", "\"shard_degradations\""}) {
    EXPECT_EQ(doc.find(key), std::string::npos) << "stray key " << key;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Native engine: real threads against per-shard trees — and with them one
// epoch-reclamation domain per shard. The erase-heavy mix keeps every
// domain's retire/free pipeline busy; under ASAN a reclamation bug that
// crosses shard domains is a hard use-after-free.

TEST(ShardedStoreNative, MultiThreadedSoakAcrossEpochDomains) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  StoreOptions o;
  o.shards = 4;
  o.deadline_us = 200;  // generous: arms the native deadline path
  ShardedStore<ctx::NativeCtx> store(setup, o, StoreRuntime{},
                                     factory_for<ctx::NativeCtx>(entry("euno")));
  for (trees::Key k = 0; k < 2048; k += 2) store.preload_put(setup, k, k);

  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(t));
      std::vector<trees::KV> buf(16);
      for (int i = 0; i < kOps; ++i) {
        workload::Op op{};
        op.key = rng.next_bounded(2048);
        switch (rng.next_bounded(4)) {
          case 0:
            op.type = workload::OpType::kGet;
            break;
          case 1:
            op.type = workload::OpType::kDelete;
            break;
          case 2:
            op.type = workload::OpType::kScan;
            op.scan_len = 16;
            break;
          default:
            op.type = workload::OpType::kPut;
            op.value = rng.next();
            break;
        }
        const auto r = store.execute(c, op, c.now(), buf.data());
        if (r.status == StoreStatus::kOk || r.status == StoreStatus::kNotFound) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_GT(completed.load(), 0u);
  store.check_invariants();
  const auto t = store.accumulate();
  EXPECT_EQ(t.shed, 0u);  // no gate configured: nothing may be rejected
  store.destroy(setup);
}

}  // namespace
}  // namespace euno::store
