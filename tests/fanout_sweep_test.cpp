// Fanout sweep: the trees templated at non-default fanouts exercise
// different split/merge boundaries, segment geometries and CCM vector sizes.
// Each instantiation runs an oracle workload and a simulated concurrency
// pass with invariant checks.
#include <gtest/gtest.h>

#include <map>

#include "tree_conformance.hpp"
#include "trees/trees.hpp"

namespace euno::tests {
namespace {

template <class Tree>
void oracle_pass(Tree& tree, ctx::NativeCtx& c, std::uint64_t seed) {
  std::map<Key, Value> oracle;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 8000; ++i) {
    const Key key = rng.next_bounded(900);
    switch (rng.next_bounded(4)) {
      case 0:
      case 1: {
        const Value v = rng.next();
        tree.put(c, key, v);
        oracle[key] = v;
        break;
      }
      case 2: {
        Value v = 0;
        const bool f = tree.get(c, key, &v);
        ASSERT_EQ(f, oracle.count(key) == 1);
        if (f) {
          ASSERT_EQ(v, oracle[key]);
        }
        break;
      }
      case 3:
        ASSERT_EQ(tree.erase(c, key), oracle.erase(key) > 0);
        break;
    }
  }
  tree.check_invariants();
  ASSERT_EQ(tree.size_slow(), oracle.size());
}

template <class Tree, class Make>
void sim_pass(Make make) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = make(setup);
  for (int t = 0; t < 6; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(800 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 250; ++i) {
        const Key k = rng.next_bounded(128);
        if (rng.next_bounded(2) == 0) {
          tree.put(c, k, k * 13 + 1);
        } else {
          Value v;
          if (tree.get(c, k, &v)) {
            ASSERT_EQ(v, k * 13 + 1);
          }
        }
      }
    });
  }
  simulation.run();
  tree.check_invariants();
  tree.destroy(setup);
}

template <int F>
void baseline_fanout() {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  trees::HtmBPTree<ctx::NativeCtx, F> tree(c);
  oracle_pass(tree, c, 100 + F);
  tree.destroy(c);
  sim_pass<trees::HtmBPTree<ctx::SimCtx, F>>(
      [](ctx::SimCtx& c2) { return trees::HtmBPTree<ctx::SimCtx, F>(c2); });
}

TEST(FanoutSweep, Baseline4) { baseline_fanout<4>(); }
TEST(FanoutSweep, Baseline8) { baseline_fanout<8>(); }
TEST(FanoutSweep, Baseline32) { baseline_fanout<32>(); }
TEST(FanoutSweep, Baseline64) { baseline_fanout<64>(); }

template <int F>
void olc_fanout() {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  trees::OlcBPTree<ctx::NativeCtx, F> tree(c);
  oracle_pass(tree, c, 200 + F);
  tree.destroy(c);
  sim_pass<trees::OlcBPTree<ctx::SimCtx, F>>(
      [](ctx::SimCtx& c2) { return trees::OlcBPTree<ctx::SimCtx, F>(c2); });
}

TEST(FanoutSweep, Olc4) { olc_fanout<4>(); }
TEST(FanoutSweep, Olc8) { olc_fanout<8>(); }
TEST(FanoutSweep, Olc32) { olc_fanout<32>(); }

template <int F, int S>
void euno_fanout() {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  trees::EunoBPTree<ctx::NativeCtx, F, S> tree(c, core::EunoConfig::full());
  oracle_pass(tree, c, 300 + F * 10 + S);
  tree.destroy(c);
  sim_pass<trees::EunoBPTree<ctx::SimCtx, F, S>>([](ctx::SimCtx& c2) {
    return trees::EunoBPTree<ctx::SimCtx, F, S>(c2, core::EunoConfig::full());
  });
}

TEST(FanoutSweep, Euno8x2) { euno_fanout<8, 2>(); }
TEST(FanoutSweep, Euno8x4) { euno_fanout<8, 4>(); }
// F=24 is Euno's compile-time maximum: the CCM (2F slot bytes) plus the
// control words must share one cache line.
TEST(FanoutSweep, Euno24x4) { euno_fanout<24, 4>(); }
TEST(FanoutSweep, Euno24x8) { euno_fanout<24, 8>(); }
TEST(FanoutSweep, Euno24x2) { euno_fanout<24, 2>(); }
TEST(FanoutSweep, Euno4x1) { euno_fanout<4, 1>(); }

}  // namespace
}  // namespace euno::tests
