// Native-engine soak: every tree, 8 real threads on real RTM (when
// available), with inline value-purity and scan-order verification. Heavier
// than the conformance stress; values are a pure function of the key so any
// torn or stale read is caught at the op that observes it.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>
#include <map>
#include "ctx/native_ctx.hpp"
#include "trees/trees.hpp"
using namespace euno;
template <class Make>
void soak(const char* name, Make make, int threads, int ops) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = make(setup);
  std::vector<std::thread> ws;
  for (int t = 0; t < threads; ++t) {
    ws.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(t + 1);
      std::vector<trees::KV> buf(32);
      for (int i = 0; i < ops; ++i) {
        const trees::Key k = rng.next_bounded(4096);
        switch (rng.next_bounded(10)) {
          case 0: case 1: case 2: case 3: case 4:
            tree.put(c, k, k * 31 + 5); break;
          case 5: case 6: case 7: {
            trees::Value v;
            if (tree.get(c, k, &v) && v != k * 31 + 5) {
              GTEST_FAIL() << name << " value corruption key=" << k << " v=" << v;
            }
            break;
          }
          case 8: (void)tree.erase(c, k); break;
          case 9: {
            size_t n = tree.scan(c, k, buf.size(), buf.data());
            for (size_t j = 1; j < n; ++j) {
              if (buf[j].first <= buf[j-1].first) {
                GTEST_FAIL() << name << " scan order violation";
              }
            }
            break;
          }
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  tree.check_invariants();
  ctx::NativeCtx v(env, 0);
  tree.destroy(v);
  printf("%s soak ok (%d threads x %d ops)\n", name, threads, ops);
}
TEST(NativeSoak, AllTrees) {
  soak("euno", [](ctx::NativeCtx& c){ return trees::EunoBPTree<ctx::NativeCtx>(c, core::EunoConfig::full()); }, 8, 150000);
  soak("baseline", [](ctx::NativeCtx& c){ return trees::HtmBPTree<ctx::NativeCtx>(c); }, 8, 150000);
  soak("olc", [](ctx::NativeCtx& c){ return trees::OlcBPTree<ctx::NativeCtx>(c); }, 8, 150000);
  soak("htm-masstree", [](ctx::NativeCtx& c){
    typename trees::OlcBPTree<ctx::NativeCtx>::Options o; o.htm_elide = true;
    return trees::OlcBPTree<ctx::NativeCtx>(c, o); }, 8, 150000);
}

// Same soak under the hardened retry policy: backoff, anti-lemming waiting
// and the starvation hatch must not perturb correctness on real threads.
TEST(NativeSoak, HardenedPolicyAllTrees) {
  const htm::RetryPolicy hp = htm::RetryPolicy::hardened();
  soak("euno-hardened", [hp](ctx::NativeCtx& c){
    core::EunoConfig cfg = core::EunoConfig::full(); cfg.policy = hp;
    return trees::EunoBPTree<ctx::NativeCtx>(c, cfg); }, 8, 100000);
  soak("baseline-hardened", [hp](ctx::NativeCtx& c){
    typename trees::HtmBPTree<ctx::NativeCtx>::Options o; o.policy = hp;
    return trees::HtmBPTree<ctx::NativeCtx>(c, o); }, 8, 100000);
  soak("htm-masstree-hardened", [hp](ctx::NativeCtx& c){
    typename trees::OlcBPTree<ctx::NativeCtx>::Options o;
    o.htm_elide = true; o.policy = hp;
    return trees::OlcBPTree<ctx::NativeCtx>(c, o); }, 8, 100000);
}

// Abort-storm soak at the context level: threads hammer one transactional
// counter while user-aborting half their HTM attempts, bounded by wall
// clock. Every txn() call must commit its increment exactly once (aborted
// attempts roll back in hardware; fallback runs are serial), whether or not
// the machine has RTM. Exercises the hardened wait/backoff/starvation paths
// under a real abort storm when RTM is present.
TEST(NativeSoak, AbortStormCountsExactly) {
  constexpr int kThreads = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  ctx::NativeEnv env;
  alignas(128) static ctx::FallbackLock lock;
  lock.word.store(0);
  lock.degraded.store(0);
  lock.health_attempts.store(0);
  lock.health_commits.store(0);
  static std::uint64_t counter;
  counter = 0;

  htm::RetryPolicy policy = htm::RetryPolicy::hardened();
  policy.lock_wait_spin_cap = 1u << 12;

  std::vector<std::uint64_t> committed(kThreads, 0);
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(0x570AA + t);
      std::uint64_t ops = 0;
      while (ops < 200000) {
        if ((ops & 1023) == 0 &&
            std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        const bool storm = rng.next_bounded(2) == 0;
        c.txn(ctx::TxSite::kMono, lock, policy, [&] {
          // Only HTM attempts may abort; the fallback path runs the body to
          // completion under the lock.
          if (storm && !c.in_fallback()) c.tx_abort_user();
          const std::uint64_t v = c.read(counter);
          c.write(counter, v + 1);
        });
        ++ops;
      }
      committed[static_cast<std::size_t>(t)] = ops;
    });
  }
  for (auto& w : ws) w.join();

  std::uint64_t total = 0;
  for (auto v : committed) total += v;
  EXPECT_GT(total, 0u);
  EXPECT_EQ(counter, total) << "lost or duplicated transactional increments";
}
