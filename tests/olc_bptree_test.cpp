// Tests for the OLC ("Masstree"-style) B+Tree and its HTM-elided variant.
#include <gtest/gtest.h>

#include "tree_conformance.hpp"
#include "trees/trees.hpp"

namespace euno::tests {
namespace {

using trees::OlcBPTree;

struct NativeAdapter {
  static OlcBPTree<ctx::NativeCtx> make(ctx::NativeCtx& c) {
    return OlcBPTree<ctx::NativeCtx>(c);
  }
};
struct SimAdapter {
  static OlcBPTree<ctx::SimCtx> make(ctx::SimCtx& c) {
    return OlcBPTree<ctx::SimCtx>(c);
  }
};

EUNO_TREE_CONFORMANCE_SUITE(OlcBPTree, NativeAdapter, SimAdapter)

struct HtmNativeAdapter {
  static OlcBPTree<ctx::NativeCtx> make(ctx::NativeCtx& c) {
    typename OlcBPTree<ctx::NativeCtx>::Options opt;
    opt.htm_elide = true;
    return OlcBPTree<ctx::NativeCtx>(c, opt);
  }
};
struct HtmSimAdapter {
  static OlcBPTree<ctx::SimCtx> make(ctx::SimCtx& c) {
    typename OlcBPTree<ctx::SimCtx>::Options opt;
    opt.htm_elide = true;
    return OlcBPTree<ctx::SimCtx>(c, opt);
  }
};

EUNO_TREE_CONFORMANCE_SUITE(HtmMasstree, HtmNativeAdapter, HtmSimAdapter)

TEST(OlcBPTree, VersionsQuiesceUnlocked) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  for (Key k = 0; k < 4000; ++k) tree.put(c, k * 7 % 4000, k);
  tree.check_invariants();  // asserts no version word still has the lock bit
  tree.destroy(c);
}

TEST(OlcBPTree, ScanAcrossSplitsStaysSorted) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  for (Key k = 0; k < 1000; ++k) tree.put(c, k * 2, k);
  std::vector<KV> buf(300);
  const std::size_t n = tree.scan(c, 100, buf.size(), buf.data());
  ASSERT_EQ(n, 300u);
  EXPECT_EQ(buf[0].first, 100u);
  for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(buf[i].first, buf[i - 1].first + 2);
  tree.destroy(c);
}

TEST(HtmMasstree, VersionBumpsCauseAbortsUnderSimContention) {
  // HTM-Masstree's pathology (§5.2): writers bump node versions inside the
  // region, so even readers of *different* keys in the same leaf conflict.
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = HtmSimAdapter::make(setup);
  for (Key k = 0; k < 1000; ++k) tree.put(setup, k, k);

  std::vector<std::uint64_t> aborts(12);
  for (int t = 0; t < 12; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(400 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        // Different keys, same few leaves.
        const Key key = rng.next_bounded(64);
        if (t % 2 == 0) {
          tree.put(c, key, i);
        } else {
          Value v;
          (void)tree.get(c, key, &v);
        }
      }
      aborts[t] = c.stats().at(ctx::TxSite::kMono).total_aborts();
    });
  }
  simulation.run();
  std::uint64_t total = 0;
  for (auto a : aborts) total += a;
  EXPECT_GT(total, 50u) << "version-word writes must generate HTM conflicts";
  tree.check_invariants();
  tree.destroy(setup);
}

}  // namespace
}  // namespace euno::tests
