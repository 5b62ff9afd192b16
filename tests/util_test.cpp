// Unit tests for src/util: RNG, cache-line helpers, spinlocks, memory
// accounting, epoch-based reclamation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "util/cacheline.hpp"
#include "util/epoch.hpp"
#include "util/hash.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/topology.hpp"
#include "util/tsc.hpp"

namespace euno {
namespace {

TEST(Cacheline, RoundUp) {
  EXPECT_EQ(cacheline_round_up(0), 0u);
  EXPECT_EQ(cacheline_round_up(1), 64u);
  EXPECT_EQ(cacheline_round_up(64), 64u);
  EXPECT_EQ(cacheline_round_up(65), 128u);
}

TEST(Cacheline, LineIndex) {
  EXPECT_EQ(cacheline_of(0), 0u);
  EXPECT_EQ(cacheline_of(63), 0u);
  EXPECT_EQ(cacheline_of(64), 1u);
}

TEST(Cacheline, AlignedWrapperIsolatesLines) {
  CacheAligned<int> arr[2];
  auto a = reinterpret_cast<std::uintptr_t>(&arr[0].value);
  auto b = reinterpret_cast<std::uintptr_t>(&arr[1].value);
  EXPECT_NE(a >> 6, b >> 6);
}

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Xoshiro256 a2(123), c2(124);
  bool all_same = true;
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c2.next()) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_bounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    mean += d;
  }
  mean /= 10000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Hash, Mix64SpreadsAdjacentInputs) {
  // Adjacent keys must land on different low bits most of the time (CCM slot
  // assignment depends on this).
  int same_low5 = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if ((mix64(k) & 31) == (mix64(k + 1) & 31)) ++same_low5;
  }
  EXPECT_LT(same_low5, 100);  // ~31 expected for a good hash
}

TEST(Hash, MixIsInjectiveOnSmallRange) {
  std::set<std::uint64_t> out;
  for (std::uint64_t k = 0; k < 4096; ++k) out.insert(mix64(k));
  EXPECT_EQ(out.size(), 4096u);
}

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lock.lock();
        counter++;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.is_locked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.is_locked());
}

TEST(MemStats, TracksLiveAndPeak) {
  auto& ms = MemStats::instance();
  ms.reset();
  ms.note_alloc(MemClass::kLeafNode, 128);
  ms.note_alloc(MemClass::kLeafNode, 256);
  auto s = ms.snapshot(MemClass::kLeafNode);
  EXPECT_EQ(s.live_bytes, 384u);
  EXPECT_EQ(s.peak_bytes, 384u);
  ms.note_free(MemClass::kLeafNode, 256);
  s = ms.snapshot(MemClass::kLeafNode);
  EXPECT_EQ(s.live_bytes, 128u);
  EXPECT_EQ(s.peak_bytes, 384u);
  EXPECT_EQ(s.alloc_count, 2u);
  EXPECT_EQ(s.free_count, 1u);
  ms.reset();
}

TEST(MemStats, TreeTotalsExcludeSimInfra) {
  auto& ms = MemStats::instance();
  ms.reset();
  ms.note_alloc(MemClass::kLeafNode, 100);
  ms.note_alloc(MemClass::kSimInfra, 1000);
  EXPECT_EQ(ms.tree_live_bytes(), 100u);
  ms.reset();
}

TEST(Epoch, FreesOnlyAfterAllThreadsMoveOn) {
  EpochManager mgr(2);
  int freed = 0;
  auto deleter = [&](void*) { freed++; };

  mgr.enter(0);
  mgr.enter(1);
  // Retire enough from thread 0 to trigger advance attempts; thread 1 is
  // pinned at the same epoch, so nothing can be freed yet.
  for (int i = 0; i < 200; ++i) mgr.retire(0, nullptr, deleter);
  EXPECT_EQ(freed, 0);
  mgr.exit(1);
  mgr.exit(0);

  // Re-enter in later epochs and retire more to trigger advancing.
  for (int round = 0; round < 4; ++round) {
    mgr.enter(0);
    for (int i = 0; i < 100; ++i) mgr.retire(0, nullptr, deleter);
    mgr.exit(0);
  }
  mgr.drain_all();
  EXPECT_EQ(freed, 200 + 400);
}

TEST(Epoch, DrainFreesEverything) {
  EpochManager mgr(1);
  int freed = 0;
  mgr.enter(0);
  mgr.retire(0, nullptr, [&](void*) { freed++; });
  mgr.exit(0);
  mgr.drain_all();
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(mgr.retired_count(), 1u);
  EXPECT_EQ(mgr.freed_count(), 1u);
}

TEST(Epoch, ConcurrentRetireStress) {
  EpochManager mgr(4);
  std::atomic<int> freed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        auto g = mgr.pin(t);
        mgr.retire(t, nullptr, [&](void*) { freed++; });
      }
    });
  }
  for (auto& th : threads) th.join();
  mgr.drain_all();
  EXPECT_EQ(freed.load(), 8000);
}

// A reader pinned in an old epoch must block every free, no matter how many
// retirements and advance attempts pile up behind it; once the reader exits,
// the backlog drains and every pointer is freed exactly once.
TEST(Epoch, PinnedReaderBlocksFreesUntilExit) {
  EpochManager mgr(2);
  std::set<void*> freed;
  auto deleter = [&freed](void* p) {
    EXPECT_TRUE(freed.insert(p).second) << "double free of " << p;
  };

  static char storage[400];
  mgr.enter(0);  // the reader, pinned at the initial epoch

  mgr.enter(1);
  // Well past the advance cadence: try_advance() fires several times, but
  // the reader's pin caps min_active_epoch at its entry epoch.
  for (int i = 0; i < 200; ++i) mgr.retire(1, &storage[i], deleter);
  EXPECT_EQ(mgr.retired_count(), 200u);
  EXPECT_EQ(mgr.freed_count(), 0u) << "freed under a pinned reader";
  mgr.exit(1);

  mgr.exit(0);  // reader leaves; the backlog becomes reclaimable

  // The next retirement burst crosses the cadence, advances the epoch past
  // the backlog, and frees it.
  mgr.enter(1);
  for (int i = 0; i < 200; ++i) mgr.retire(1, &storage[200 + i], deleter);
  mgr.exit(1);
  EXPECT_GT(mgr.freed_count(), 0u);
  EXPECT_LE(mgr.freed_count(), mgr.retired_count());

  mgr.drain_all();
  EXPECT_EQ(mgr.freed_count(), mgr.retired_count());
}

TEST(Epoch, RetireDoesNotFreeInTheRetiringEpoch) {
  EpochManager mgr(1);
  int dummy = 0;
  std::uint64_t freed = 0;
  mgr.enter(0);
  mgr.retire(0, &dummy, [&freed](void*) { ++freed; });
  // Still pinned in the retirement epoch: even an explicit advance attempt
  // must not free (min_active == retire epoch, and the rule is strict <).
  mgr.try_advance();
  EXPECT_EQ(freed, 0u);
  mgr.exit(0);
  mgr.drain_all();
  EXPECT_EQ(freed, 1u);
}

TEST(Topology, PaperTestbedLayout) {
  const Topology t = Topology::paper_testbed();
  EXPECT_EQ(t.total_cores(), 20);
  EXPECT_EQ(t.socket_of(0), 0);
  EXPECT_EQ(t.socket_of(9), 0);
  EXPECT_EQ(t.socket_of(10), 1);
  EXPECT_EQ(t.socket_of(19), 1);
  EXPECT_TRUE(t.same_socket(3, 7));
  EXPECT_FALSE(t.same_socket(3, 13));
}

TEST(Tsc, MonotonicNsNeverGoesBackwards) {
  std::uint64_t prev = util::monotonic_ns();
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t now = util::monotonic_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

TEST(Tsc, ClockActuallyAdvances) {
  const std::uint64_t t0 = util::monotonic_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t t1 = util::monotonic_ns();
  const std::uint64_t elapsed = t1 - t0;
  // Sleep granularity is sloppy upward; the floor is what calibration must
  // get right (a mis-calibrated tick rate would read far under 5 ms).
  EXPECT_GE(elapsed, 4'000'000u);
  EXPECT_LT(elapsed, 60'000'000'000u);
}

TEST(Tsc, CalibrationStateIsCoherent) {
  const bool calibrated = util::tsc_calibrated();
  if (calibrated) {
    EXPECT_GT(util::tsc_ghz(), 0.1);
    EXPECT_LT(util::tsc_ghz(), 10.0);
  } else {
    // steady_clock fallback (no invariant TSC, or EUNO_NO_TSC=1)
    EXPECT_EQ(util::tsc_ghz(), 0.0);
  }
  EXPECT_EQ(util::tsc_calibrated(), calibrated) << "probe must be stable";
}

}  // namespace
}  // namespace euno
