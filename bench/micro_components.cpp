// Component microbenchmarks (google-benchmark): the building blocks' native
// costs — workload generators, hashing, CCM-style atomics, tree point ops on
// the native engine (real RTM where available), and the simulator's
// instrumented-access overhead (host cost of simulating one access).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/node/simd_search.hpp"
#include "trees/trees.hpp"
#include "workload/distributions.hpp"

namespace euno {
namespace {

void BM_ZipfianSample(benchmark::State& state) {
  workload::ZipfianDist dist(1 << 20, 0.9);
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_ZipfianSample);

void BM_SelfSimilarSample(benchmark::State& state) {
  workload::SelfSimilarDist dist(1 << 20, 0.2);
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_SelfSimilarSample);

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) benchmark::DoNotOptimize(x = mix64(x));
}
BENCHMARK(BM_Mix64);

void BM_CcmAcquireRelease(benchmark::State& state) {
  // The uncontended cost of the conflict-control module's slot protocol.
  alignas(64) std::atomic<std::uint8_t> slot{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot.fetch_or(1, std::memory_order_acq_rel));
    slot.fetch_and(static_cast<std::uint8_t>(~1), std::memory_order_acq_rel);
  }
}
BENCHMARK(BM_CcmAcquireRelease);

template <class Tree>
void run_native_tree_get(benchmark::State& state) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  Tree tree(c);
  for (trees::Key k = 0; k < 100000; ++k) tree.put(c, k, k);
  Xoshiro256 rng(7);
  trees::Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.get(c, rng.next_bounded(100000), &v));
  }
  tree.destroy(c);
}

void BM_NativeGet_HtmBPTree(benchmark::State& state) {
  run_native_tree_get<trees::HtmBPTree<ctx::NativeCtx>>(state);
}
BENCHMARK(BM_NativeGet_HtmBPTree);

void BM_NativeGet_Olc(benchmark::State& state) {
  run_native_tree_get<trees::OlcBPTree<ctx::NativeCtx>>(state);
}
BENCHMARK(BM_NativeGet_Olc);

void BM_NativeGet_Euno(benchmark::State& state) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  trees::EunoBPTree<ctx::NativeCtx> tree(c, core::EunoConfig::full());
  for (trees::Key k = 0; k < 100000; ++k) tree.put(c, k, k);
  Xoshiro256 rng(7);
  trees::Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.get(c, rng.next_bounded(100000), &v));
  }
  tree.destroy(c);
}
BENCHMARK(BM_NativeGet_Euno);

void BM_NativePut_Euno(benchmark::State& state) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  trees::EunoBPTree<ctx::NativeCtx> tree(c, core::EunoConfig::full());
  Xoshiro256 rng(9);
  for (auto _ : state) {
    tree.put(c, rng.next_bounded(1 << 20), 1);
  }
  tree.destroy(c);
}
BENCHMARK(BM_NativePut_Euno);

// ---- in-node key search: scalar reference vs the dispatched kernels ----
//
// Args: node size n (separator count / record count). Probe keys are
// precomputed outside the timed loop; roughly half hit, half miss, cycled
// so the branch predictor can't lock onto one outcome. Compare
// BM_SearchCountLe_* against BM_SearchCountLe_Scalar at the same n for the
// SIMD speedup (ISSUE acceptance: >= 1.5x at fanout >= 16).

constexpr int kProbeCount = 1024;

std::vector<std::uint64_t> search_keys(int n) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  std::uint64_t k = 100;
  for (int i = 0; i < n; ++i) {
    k += 17;
    keys[static_cast<std::size_t>(i)] = k;
  }
  return keys;
}

std::vector<std::uint64_t> search_probes(const std::vector<std::uint64_t>& keys) {
  Xoshiro256 rng(41);
  std::vector<std::uint64_t> probes(kProbeCount);
  for (int i = 0; i < kProbeCount; ++i) {
    const std::uint64_t base =
        keys[rng.next_bounded(static_cast<std::uint64_t>(keys.size()))];
    probes[static_cast<std::size_t>(i)] = (i & 1) ? base : base + 1;  // hit/miss
  }
  return probes;
}

void run_count_le(benchmark::State& state,
                  const trees::node::simd::SearchKernels& k) {
  const int n = static_cast<int>(state.range(0));
  const auto keys = search_keys(n);
  const auto probes = search_probes(keys);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.count_le(keys.data(), n, probes[i++ & (kProbeCount - 1)]));
  }
  state.SetLabel(k.name);
}

void run_find_eq_pairs(benchmark::State& state,
                       const trees::node::simd::SearchKernels& k) {
  const int n = static_cast<int>(state.range(0));
  const auto keys = search_keys(n);
  const auto probes = search_probes(keys);
  std::vector<std::uint64_t> kv(2 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    kv[2 * static_cast<std::size_t>(i)] = keys[static_cast<std::size_t>(i)];
    kv[2 * static_cast<std::size_t>(i) + 1] = static_cast<std::uint64_t>(i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.find_eq_pairs(kv.data(), n, probes[i++ & (kProbeCount - 1)]));
  }
  state.SetLabel(k.name);
}

void BM_SearchCountLe_Scalar(benchmark::State& state) {
  run_count_le(state, trees::node::simd::scalar_kernels());
}
BENCHMARK(BM_SearchCountLe_Scalar)->Arg(16)->Arg(32)->Arg(64);

void BM_SearchCountLe_Simd(benchmark::State& state) {
  run_count_le(state, trees::node::simd::active_kernels());
}
BENCHMARK(BM_SearchCountLe_Simd)->Arg(16)->Arg(32)->Arg(64);

void BM_SearchFindEq_Scalar(benchmark::State& state) {
  run_find_eq_pairs(state, trees::node::simd::scalar_kernels());
}
BENCHMARK(BM_SearchFindEq_Scalar)->Arg(16)->Arg(32)->Arg(64);

void BM_SearchFindEq_Simd(benchmark::State& state) {
  run_find_eq_pairs(state, trees::node::simd::active_kernels());
}
BENCHMARK(BM_SearchFindEq_Simd)->Arg(16)->Arg(32)->Arg(64);

void BM_SimInstrumentedAccess(benchmark::State& state) {
  // Host-side cost of one simulated memory access (the simulator's
  // throughput limit).
  sim::MachineConfig cfg;
  cfg.arena_bytes = 1 << 24;
  sim::Simulation simulation(cfg);
  auto* cell = static_cast<std::uint64_t*>(
      simulation.arena().alloc(8, MemClass::kOther, sim::LineKind::kOther));
  // Drive accesses from inside a fiber, measuring batches per iteration.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation fresh(cfg);
    auto* c2 = static_cast<std::uint64_t*>(
        fresh.arena().alloc(8, MemClass::kOther, sim::LineKind::kOther));
    state.ResumeTiming();
    fresh.spawn(0, [&](int) {
      for (int i = 0; i < 10000; ++i) {
        fresh.mem_access(c2, 8, i & 1);
      }
    });
    fresh.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  benchmark::DoNotOptimize(cell);
}
BENCHMARK(BM_SimInstrumentedAccess)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace euno

BENCHMARK_MAIN();
