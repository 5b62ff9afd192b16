// Hybrid transactional/analytical scenario on the native engine: writer
// threads ingest time-ordered events (hot tail inserts — the worst case for
// a conventional layout) while an analytics thread repeatedly range-scans a
// sliding window. Exercises Euno-B+Tree's segmented inserts, reserved-keys
// compaction and merge-sorted scans concurrently.
//
//   ./build/examples/range_scan_analytics [writers] [events_per_writer]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "trees/trees.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const int writers = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::uint64_t events =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200000;

  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  trees::EunoBPTree<ctx::NativeCtx> tree(setup, core::EunoConfig::full());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0}, scanned_rows{0};

  // Analytics: scan the most recent window over and over.
  std::thread analyst([&] {
    ctx::NativeCtx c(env, writers + 1);
    std::vector<trees::KV> window(256);
    Xoshiro256 rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const trees::Key start = rng.next_bounded(events * writers + 1);
      scanned_rows += tree.scan(c, start, window.size(), window.data());
      scans++;
    }
  });

  // Writers: event id = timestamp * writers + writer (interleaved tails).
  std::vector<std::thread> ws;
  for (int w = 0; w < writers; ++w) {
    ws.emplace_back([&, w] {
      ctx::NativeCtx c(env, w + 1);
      for (std::uint64_t t = 0; t < events; ++t) {
        tree.put(c, t * writers + static_cast<std::uint64_t>(w),
                 (static_cast<trees::Value>(w) << 48) | t);
      }
    });
  }
  for (auto& t : ws) t.join();
  stop.store(true, std::memory_order_release);
  analyst.join();

  std::printf("ingested %llu events from %d writers\n",
              static_cast<unsigned long long>(events) * writers, writers);
  std::printf("analytics: %llu scans, %llu rows read concurrently\n",
              static_cast<unsigned long long>(scans.load()),
              static_cast<unsigned long long>(scanned_rows.load()));

  ctx::NativeCtx verify(env, 0);
  tree.check_invariants();
  std::printf("final record count: %zu (expected %llu)\n", tree.size_slow(),
              static_cast<unsigned long long>(events) * writers);

  // Age out the oldest half and compact.
  for (std::uint64_t k = 0; k < events * writers / 2; ++k) tree.erase(verify, k);
  const std::size_t merges = tree.rebalance(verify);
  std::printf("aged out half, rebalance merged %zu leaves, %zu records remain\n",
              merges, tree.size_slow());
  tree.check_invariants();
  tree.destroy(verify);
  std::printf("ok\n");
  return 0;
}
