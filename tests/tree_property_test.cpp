// Parameterized property tests: every tree kind, several shapes and seeds,
// driven through randomized oracle workloads and concurrent stress with
// invariant checking. TEST_P sweeps are the coverage backbone — each
// instantiation exercises a distinct (structure, workload) combination.
#include <gtest/gtest.h>

#include <map>

#include "core/euno_tree.hpp"
#include "repro_main.hpp"
#include "tree_conformance.hpp"
#include "trees/htmbtree/htm_bptree.hpp"
#include "trees/olc/olc_bptree.hpp"

namespace euno::tests {
namespace {

enum class Kind { kBaseline, kOlc, kHtmMasstree, kEunoS1, kEunoS2, kEunoS4, kEunoS8 };

struct PropertyParam {
  Kind kind;
  std::uint64_t seed;
  int ops;
  std::uint64_t key_range;
  bool adaptive;  // Euno kinds only

  std::string name() const {
    std::string k;
    switch (kind) {
      case Kind::kBaseline: k = "Baseline"; break;
      case Kind::kOlc: k = "Olc"; break;
      case Kind::kHtmMasstree: k = "HtmMasstree"; break;
      case Kind::kEunoS1: k = "EunoS1"; break;
      case Kind::kEunoS2: k = "EunoS2"; break;
      case Kind::kEunoS4: k = "EunoS4"; break;
      case Kind::kEunoS8: k = "EunoS8"; break;
    }
    return k + "_seed" + std::to_string(seed) + "_r" + std::to_string(key_range) +
           (adaptive ? "_adapt" : "");
  }
};

/// Type-erased driver so one parameterized suite covers every tree type.
template <class Ctx>
struct AnyTree {
  std::function<bool(Ctx&, Key, Value*)> get;
  std::function<void(Ctx&, Key, Value)> put;
  std::function<bool(Ctx&, Key)> erase;
  std::function<std::size_t(Ctx&, Key, std::size_t, KV*)> scan;
  std::function<void()> check;
  std::function<void(Ctx&)> destroy;
};

template <class Ctx, class Tree>
AnyTree<Ctx> wrap(std::shared_ptr<Tree> t) {
  AnyTree<Ctx> a;
  a.get = [t](Ctx& c, Key k, Value* v) { return t->get(c, k, v); };
  a.put = [t](Ctx& c, Key k, Value v) { t->put(c, k, v); };
  a.erase = [t](Ctx& c, Key k) { return t->erase(c, k); };
  a.scan = [t](Ctx& c, Key k, std::size_t n, KV* out) {
    return t->scan(c, k, n, out);
  };
  a.check = [t] { t->check_invariants(); };
  a.destroy = [t](Ctx& c) { t->destroy(c); };
  return a;
}

template <class Ctx>
AnyTree<Ctx> make_any(Ctx& c, const PropertyParam& p) {
  using trees::HtmBPTree;
  using trees::OlcBPTree;
  core::EunoConfig cfg =
      p.adaptive ? core::EunoConfig::full() : core::EunoConfig::with_markbits();
  switch (p.kind) {
    case Kind::kBaseline:
      return wrap<Ctx>(std::make_shared<HtmBPTree<Ctx>>(c));
    case Kind::kOlc:
      return wrap<Ctx>(std::make_shared<OlcBPTree<Ctx>>(c));
    case Kind::kHtmMasstree: {
      typename OlcBPTree<Ctx>::Options opt;
      opt.htm_elide = true;
      return wrap<Ctx>(std::make_shared<OlcBPTree<Ctx>>(c, opt));
    }
    case Kind::kEunoS1:
      return wrap<Ctx>(std::make_shared<core::EunoBPTree<Ctx, 16, 1>>(c, cfg));
    case Kind::kEunoS2:
      return wrap<Ctx>(std::make_shared<core::EunoBPTree<Ctx, 16, 2>>(c, cfg));
    case Kind::kEunoS4:
      return wrap<Ctx>(std::make_shared<core::EunoBPTree<Ctx, 16, 4>>(c, cfg));
    case Kind::kEunoS8:
      return wrap<Ctx>(std::make_shared<core::EunoBPTree<Ctx, 16, 8>>(c, cfg));
  }
  return {};
}

class TreeProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(TreeProperty, OracleAgreesWithStdMap) {
  const auto& p = GetParam();
  repro_extra() = "# param: " + p.name() + " seed=" + std::to_string(p.seed);
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = make_any(c, p);

  std::map<Key, Value> oracle;
  Xoshiro256 rng(p.seed);
  std::vector<KV> buf(32);
  for (int i = 0; i < p.ops; ++i) {
    const Key key = rng.next_bounded(p.key_range);
    switch (rng.next_bounded(8)) {
      case 0:
      case 1:
      case 2: {
        const Value v = rng.next();
        tree.put(c, key, v);
        oracle[key] = v;
        break;
      }
      case 3:
      case 4: {
        Value v = 0;
        const bool f = tree.get(c, key, &v);
        const auto it = oracle.find(key);
        ASSERT_EQ(f, it != oracle.end()) << "op " << i;
        if (f) {
          ASSERT_EQ(v, it->second);
        }
        break;
      }
      case 5:
      case 6:
        ASSERT_EQ(tree.erase(c, key), oracle.erase(key) > 0) << "op " << i;
        break;
      case 7: {
        const std::size_t n = tree.scan(c, key, buf.size(), buf.data());
        auto it = oracle.lower_bound(key);
        for (std::size_t j = 0; j < n; ++j, ++it) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(buf[j].first, it->first);
          ASSERT_EQ(buf[j].second, it->second);
        }
        break;
      }
    }
  }
  tree.check();
  tree.destroy(c);
}

TEST_P(TreeProperty, SimConcurrencyPreservesInvariants) {
  const auto& p = GetParam();
  repro_extra() = "# param: " + p.name() + " seed=" + std::to_string(p.seed);
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = make_any(setup, p);

  const std::uint64_t hot = std::min<std::uint64_t>(p.key_range, 96);
  for (int t = 0; t < 6; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(p.seed * 31 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 250; ++i) {
        const Key key = rng.next_bounded(hot);
        const auto roll = rng.next_bounded(10);
        if (roll < 5) {
          tree.put(c, key, key * 1000 + 7);
        } else if (roll < 8) {
          Value v;
          if (tree.get(c, key, &v)) {
            // Values are a pure function of the key: torn or stale reads
            // would be visible immediately.
            ASSERT_EQ(v, key * 1000 + 7);
          }
        } else if (roll < 9) {
          (void)tree.erase(c, key);
        } else {
          KV buf[16];
          const std::size_t n = tree.scan(c, key, 16, buf);
          for (std::size_t j = 1; j < n; ++j) {
            ASSERT_GT(buf[j].first, buf[j - 1].first) << "scan must be sorted";
          }
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(buf[j].second, buf[j].first * 1000 + 7);
          }
        }
      }
    });
  }
  simulation.run();
  tree.check();
  tree.destroy(setup);
}

std::vector<PropertyParam> property_params() {
  std::vector<PropertyParam> ps;
  const Kind kinds[] = {Kind::kBaseline, Kind::kOlc,    Kind::kHtmMasstree,
                        Kind::kEunoS1,   Kind::kEunoS2, Kind::kEunoS4,
                        Kind::kEunoS8};
  for (Kind k : kinds) {
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      ps.push_back(PropertyParam{k, seed, 6000, 700, false});
    }
    ps.push_back(PropertyParam{k, 14, 4000, 50, false});   // dense duplicates
    ps.push_back(PropertyParam{k, 15, 3000, 100000, false});  // sparse
  }
  // Adaptive-enabled Euno variants.
  ps.push_back(PropertyParam{Kind::kEunoS4, 16, 6000, 700, true});
  ps.push_back(PropertyParam{Kind::kEunoS2, 17, 6000, 700, true});
  return ps;
}

INSTANTIATE_TEST_SUITE_P(AllTrees, TreeProperty,
                         ::testing::ValuesIn(property_params()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           return info.param.name();
                         });

}  // namespace
}  // namespace euno::tests

EUNO_TEST_MAIN_WITH_REPRO()
