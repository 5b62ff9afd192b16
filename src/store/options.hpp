// Configuration of the sharded KV service layer (DESIGN.md §15).
//
// StoreOptions is carried by driver::ExperimentSpec. The whole layer is OFF
// by default (shards == 0): every pre-existing bench/test path never
// constructs a store, and the run manifest emits the `store` spec section
// and its result counters only for store-enabled runs, so all golden
// manifests stay byte-identical.
#pragma once

#include <cstdint>

namespace euno::store {

/// Terminal status of one store operation.
enum class StoreStatus : std::uint8_t {
  kOk = 0,            // op applied (get hit, put, erase hit)
  kNotFound,          // get/erase key absent (op still completed)
  kShedded,           // rejected by the admission gate; never touched a tree
  kDeadlineExceeded,  // rejected at admission: its deadline had passed
  kCount,
};

const char* store_status_name(StoreStatus s);

/// Per-shard overload stage (DESIGN.md §15). Staged degradation mirrors the
/// PR-4 HTM-health monitor and the PR-8 three-path descent, lifted from the
/// tree level to the service level: each stage trades throughput headroom
/// for bounded admitted-op latency.
enum class ShardState : std::uint8_t {
  kHealthy = 0,   // gates pass; sheds are rare
  kShedding,      // persistent shedding observed (a window crossed the
                  // shed_on_pct threshold); recoverable
  kShardLockOnly, // terminal: ops serialize on the shard lock, inflight <= 1
};

const char* shard_state_name(ShardState s);

struct StoreOptions {
  /// Number of hash partitions; each shard owns an independent tree instance
  /// (its own FallbackLock / health monitor / epoch domain) plus its own
  /// admission gate and overload monitor. 0 = store layer off.
  int shards = 0;

  /// Open-loop aggregate arrival rate in Mops/s (converted to the engine
  /// clock via ExperimentSpec::ghz on the simulator, to wall ns natively).
  /// 0 = closed loop (clients issue back-to-back, the pre-store behaviour).
  double offered_load_mops = 0;

  /// Per-op deadline budget in microseconds, measured from the op's
  /// *scheduled arrival* (so queueing delay consumes budget — the open-loop
  /// property). Checked once, when the op is admitted: an op already past
  /// its deadline is rejected with kDeadlineExceeded without touching the
  /// tree, and an admitted op runs to completion. 0 = no deadlines.
  std::uint64_t deadline_us = 0;

  /// Admission control + load shedding + staged overload monitor. When off,
  /// every op is admitted (the no-shedding baseline the latency-under-load
  /// bench contrasts against).
  bool shedding = false;

  /// Per-shard cap on concurrently executing ops; reaching it sheds instead
  /// of queueing. 0 = unlimited (inflight-based shedding off).
  std::uint32_t inflight_limit = 0;

  /// Token-bucket admit rate per shard in Mops/s, enforced whenever
  /// configured (the bucket is both the saturation detector and the gate).
  /// 0 = bucket disabled; inflight_limit is then the only shedding trigger.
  double shard_rate_mops = 0;

  /// Token-bucket capacity (burst allowance), in ops.
  std::uint32_t burst = 32;

  /// Overload-monitor window length, in admission decisions per shard.
  std::uint32_t monitor_window = 256;

  /// Shed percentage within a window at (or above) which a healthy shard
  /// enters kShedding. A shedding shard whose window drops back to zero
  /// sheds returns to kHealthy.
  std::uint32_t shed_on_pct = 50;

  /// Consecutive saturated windows (shed% >= shed_on_pct) after which a
  /// shedding shard degrades to kShardLockOnly. Terminal for the run, like
  /// the PR-4 health monitor's lock-only flip. 0 = never degrade.
  std::uint32_t degrade_windows = 4;

  bool enabled() const { return shards > 0; }
  bool open_loop() const { return offered_load_mops > 0; }
};

}  // namespace euno::store
