// ShardedStore: the deadline-aware sharded KV service layer (DESIGN.md §15).
//
// Keys hash-partition across N shards; each shard owns a full independent
// tree instance built through the registry — its own FallbackLock, HTM-health
// monitor and epoch-reclamation domain — plus its own admission gate and
// overload monitor. The isolation is the point: a degraded shard serializes
// or sheds *its* keys while every other shard keeps its fast path, the
// service-level analogue of the per-leaf / per-tree staged degradation the
// tree layer already practices (DESIGN.md §10, PR-8's three-path descent).
//
// Op flow (execute):
//   1. admission           — inflight cap, token bucket, and in the terminal
//      stage a try-lock on the shard's serial lock; any refusal sheds the op
//      (kShedded) instead of enqueueing it — the load-shedding contract. The
//      bucket runs first so it meters the *offered* stream (under sustained
//      overload every backlogged arrival is stale; deadline-first would
//      convert all shedding into deadline rejections);
//   2. deadline pre-check  — an admitted op already past its deadline is
//      reported kDeadlineExceeded without touching the tree (it consumed
//      its budget queueing; service on it would be wasted). This is the
//      only place a deadline is enforced;
//   3. execution           — the tree op runs to completion: an op that
//      passed the pre-check is never abandoned mid-flight.
//
// All store bookkeeping is host-side (zero simulated cost, deterministic
// under the fiber engine); the only ctx calls made while any store lock is
// held are the tree ops of the terminal serial stage, which is exactly that
// stage's contract (inflight <= 1 by mutual exclusion, waiters shed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ctx/common.hpp"
#include "store/admission.hpp"
#include "store/options.hpp"
#include "trees/registry.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/hash.hpp"
#include "util/spinlock.hpp"
#include "workload/ycsb.hpp"

namespace euno::store {

/// Clock facts the store needs to convert the human-unit knobs (Mops/s, µs)
/// into the execution context's clock: simulated cycles (clock_hz = ghz*1e9)
/// or wall nanoseconds (clock_hz = 1e9).
struct StoreRuntime {
  double clock_hz = 1e9;
};

/// Outcome of one store operation.
struct OpResult {
  StoreStatus status = StoreStatus::kOk;
  trees::Value value = 0;        // get result when status == kOk
  std::size_t scanned = 0;       // scan result count
};

/// Per-run store counters, summed over shards by accumulate().
struct StoreTotals {
  std::uint64_t admitted = 0;            // ops that passed the gate
  std::uint64_t shed = 0;                // ops rejected by the gate
  std::uint64_t deadline_exceeded = 0;   // ops rejected by the pre-check
  std::uint64_t degradations = 0;        // stage-advancing shard transitions
};

template <class Ctx>
class ShardedStore {
 public:
  using TreeFactory =
      std::function<std::unique_ptr<trees::AnyTree<Ctx>>(Ctx&)>;
  using StrTreeFactory =
      std::function<std::unique_ptr<trees::AnyStrTree<Ctx>>(Ctx&)>;

  /// Builds one tree per shard via `factory` (a registry make_* closure).
  /// `setup` is only used during construction/teardown, as with the driver's
  /// single-tree path.
  ShardedStore(Ctx& setup, const StoreOptions& opt, const StoreRuntime& rt,
               const TreeFactory& factory)
      : opt_(opt), deadline_units_(to_units(opt.deadline_us, rt)) {
    init_shards(setup, rt, [&](Shard& sh) { sh.tree = factory(setup); });
  }

  /// Bytes-domain store: every shard owns an AnyStrTree instead. The
  /// admission/deadline/overload machinery is identical — only the final
  /// tree dispatch differs (execute_str vs execute).
  ShardedStore(Ctx& setup, const StoreOptions& opt, const StoreRuntime& rt,
               const StrTreeFactory& factory)
      : opt_(opt), deadline_units_(to_units(opt.deadline_us, rt)) {
    init_shards(setup, rt, [&](Shard& sh) { sh.str_tree = factory(setup); });
  }

  int shards() const { return static_cast<int>(shards_.size()); }
  const StoreOptions& options() const { return opt_; }
  std::uint64_t deadline_units() const { return deadline_units_; }

  /// Which shard owns `key`. mix64 decorrelates the shard choice from both
  /// the key's rank and (under workload scrambling, itself mix64-based but
  /// applied pre-image) its tree position, so skewed workloads still spread
  /// hot keys across shards.
  int shard_of(trees::Key key) const {
    return static_cast<int>(mix64(key ^ 0x5Aull) %
                            static_cast<std::uint64_t>(shards_.size()));
  }

  /// Bytes-domain partition: hash the full key text. Shared-prefix corpora
  /// (URLs) still spread — the hash covers the discriminating tail.
  int shard_of_str(trees::node::BytesView key) const {
    return static_cast<int>(hash_bytes(key.data, key.len) %
                            static_cast<std::uint64_t>(shards_.size()));
  }

  ShardState shard_state(int s) const {
    return shards_[static_cast<std::size_t>(s)]->monitor.state();
  }

  /// Direct put to the owning shard's tree, bypassing admission and
  /// deadlines: the preload phase, like the single-tree driver's, is not
  /// part of the measured service.
  void preload_put(Ctx& c, trees::Key k, trees::Value v) {
    shards_[static_cast<std::size_t>(shard_of(k))]->tree->put(c, k, v);
  }

  /// Bytes-domain preload (same bypass contract as preload_put).
  void preload_put_str(Ctx& c, trees::node::BytesView key, trees::Value v,
                       trees::node::BytesView payload) {
    shards_[static_cast<std::size_t>(shard_of_str(key))]->str_tree->put(
        c, key, v, payload);
  }

  /// Run one workload op against the store. `scheduled` is the op's
  /// scheduled arrival in ctx clock units (its deadline is scheduled +
  /// deadline budget — queueing lateness consumes budget, the open-loop
  /// property). `scan_buf` must hold at least op.scan_len entries.
  OpResult execute(Ctx& c, const workload::Op& op, std::uint64_t scheduled,
                   trees::KV* scan_buf) {
    Shard& sh = *shards_[static_cast<std::size_t>(shard_of(op.key))];
    return run_admitted(c, sh, scheduled, [&](OpResult& res) {
      switch (op.type) {
        case workload::OpType::kGet:
          if (!sh.tree->get(c, op.key, &res.value)) {
            res.status = StoreStatus::kNotFound;
          }
          break;
        case workload::OpType::kPut:
          sh.tree->put(c, op.key, op.value);
          break;
        case workload::OpType::kScan:
          res.scanned = sh.tree->scan(c, op.key, op.scan_len, scan_buf);
          break;
        case workload::OpType::kDelete:
          if (!sh.tree->erase(c, op.key)) res.status = StoreStatus::kNotFound;
          break;
      }
    });
  }

  /// Bytes-domain execute: same admission/deadline flow against the shard's
  /// AnyStrTree. The caller materializes key/payload text (the store stays
  /// corpus-agnostic); `emit` receives scan records while their views are
  /// valid.
  OpResult execute_str(Ctx& c, workload::OpType type,
                       trees::node::BytesView key, trees::Value value,
                       trees::node::BytesView payload, std::uint32_t scan_len,
                       std::uint64_t scheduled,
                       const trees::node::StrEmitFn& emit) {
    Shard& sh = *shards_[static_cast<std::size_t>(shard_of_str(key))];
    return run_admitted(c, sh, scheduled, [&](OpResult& res) {
      switch (type) {
        case workload::OpType::kGet:
          if (!sh.str_tree->get(c, key, &res.value)) {
            res.status = StoreStatus::kNotFound;
          }
          break;
        case workload::OpType::kPut:
          sh.str_tree->put(c, key, value, payload);
          break;
        case workload::OpType::kScan:
          res.scanned = sh.str_tree->scan(c, key, scan_len, emit);
          break;
        case workload::OpType::kDelete:
          if (!sh.str_tree->erase(c, key)) res.status = StoreStatus::kNotFound;
          break;
      }
    });
  }

  /// Sum the per-shard counters.
  StoreTotals accumulate() const {
    StoreTotals t;
    for (const auto& sh : shards_) {
      t.admitted += sh->counters.admitted.load(std::memory_order_relaxed);
      t.shed += sh->counters.shed.load(std::memory_order_relaxed);
      t.deadline_exceeded +=
          sh->counters.deadline_precheck.load(std::memory_order_relaxed);
      t.degradations +=
          sh->counters.degradations.load(std::memory_order_relaxed);
    }
    return t;
  }

  /// Structural checks + total size across shards (test/diagnostic surface).
  void check_invariants() {
    for (auto& sh : shards_) {
      if (sh->tree) sh->tree->check_invariants();
      if (sh->str_tree) sh->str_tree->check_invariants();
    }
  }
  std::size_t size_slow() {
    std::size_t n = 0;
    for (auto& sh : shards_) {
      if (sh->tree) n += sh->tree->size_slow();
      if (sh->str_tree) n += sh->str_tree->size_slow();
    }
    return n;
  }

  void destroy(Ctx& c) {
    for (auto& sh : shards_) {
      if (sh->tree) {
        sh->tree->destroy(c);
        sh->tree.reset();
      }
      if (sh->str_tree) {
        sh->str_tree->destroy(c);
        sh->str_tree.reset();
      }
    }
  }

 private:
  static std::uint64_t to_units(std::uint64_t us, const StoreRuntime& rt) {
    return static_cast<std::uint64_t>(static_cast<double>(us) * rt.clock_hz /
                                      1e6);
  }

  template <class FillTree>
  void init_shards(Ctx& setup, const StoreRuntime& rt, FillTree fill) {
    EUNO_ASSERT(opt_.shards > 0);
    const double rate_per_unit =
        opt_.shard_rate_mops > 0 ? opt_.shard_rate_mops * 1e6 / rt.clock_hz
                                 : 0;
    shards_.reserve(static_cast<std::size_t>(opt_.shards));
    for (int i = 0; i < opt_.shards; ++i) {
      auto sh = std::make_unique<Shard>();
      fill(*sh);
      sh->bucket.configure(rate_per_unit, opt_.burst, setup.now());
      sh->monitor.configure(opt_);
      shards_.push_back(std::move(sh));
    }
  }

  struct ShardCounters {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_precheck{0};
    std::atomic<std::uint64_t> degradations{0};
  };

  /// One shard: tree + gate state, line-aligned so neighbouring shards'
  /// admission traffic doesn't false-share. Exactly one of tree/str_tree is
  /// non-null, fixed at construction by which factory built the store.
  struct alignas(kCacheLineSize) Shard {
    std::unique_ptr<trees::AnyTree<Ctx>> tree;
    std::unique_ptr<trees::AnyStrTree<Ctx>> str_tree;
    Spinlock gate;          // guards bucket + monitor (plain arithmetic only)
    TokenBucket bucket;
    OverloadMonitor monitor;
    std::atomic<std::uint32_t> inflight{0};
    Spinlock serial;        // terminal-stage execution lock (try-lock only)
    ShardCounters counters;
  };

  /// Admission (1) + deadline pre-check (2) + run-to-completion execution (3)
  /// around a domain-specific tree dispatch. Factoring this out is what keeps
  /// the u64 and bytes paths behaviorally identical at the service layer —
  /// one shedding/overload policy, two key domains.
  template <class RunTreeOp>
  OpResult run_admitted(Ctx& c, Shard& sh, std::uint64_t scheduled,
                        RunTreeOp run_tree_op) {
    OpResult res;
    const std::uint64_t deadline =
        deadline_units_ != 0 ? scheduled + deadline_units_ : 0;

    // 1. Admission. The gate lock covers only plain host-side arithmetic.
    // Runs before the deadline pre-check so the token bucket meters the
    // *offered* stream: under sustained overload clients backlog and every
    // arrival goes stale, and a deadline-first order would quietly convert
    // all shedding into deadline rejections — the bucket would only ever
    // see post-throttle demand and never go dry.
    bool serial = false;  // execute under the shard's serial lock
    if (opt_.shedding) {
      bool admit = true;
      sh.gate.lock();
      const ShardState state = sh.monitor.state();
      if (opt_.inflight_limit != 0 &&
          sh.inflight.load(std::memory_order_relaxed) >= opt_.inflight_limit) {
        admit = false;
      }
      if (admit && !sh.bucket.try_take(c.now())) admit = false;
      if (admit && state == ShardState::kShardLockOnly) {
        // Terminal stage: concurrency 1 by try-lock — a busy serial lock
        // sheds instead of queueing.
        serial = sh.serial.try_lock();
        if (!serial) admit = false;
      }
      if (sh.monitor.note(!admit)) {
        sh.counters.degradations++;
        c.note_event(ctx::TraceCode::kShardDegraded,
                     static_cast<std::uint8_t>(sh.monitor.state()));
      }
      sh.gate.unlock();
      if (!admit) {
        sh.counters.shed++;
        c.note_event(ctx::TraceCode::kOpShed,
                     static_cast<std::uint8_t>(state));
        res.status = StoreStatus::kShedded;
        return res;
      }
    }
    // 2. Deadline pre-check: don't spend service on an already-doomed op.
    // (The token spent on it is gone — correct: the bucket meters offered
    // work the shard was willing to start.)
    if (deadline != 0 && c.now() >= deadline) {
      sh.counters.deadline_precheck++;
      if (serial) sh.serial.unlock();
      res.status = StoreStatus::kDeadlineExceeded;
      return res;
    }
    sh.counters.admitted++;
    sh.inflight.fetch_add(1, std::memory_order_relaxed);

    // 3. Execution: an admitted op runs to completion.
    run_tree_op(res);
    sh.inflight.fetch_sub(1, std::memory_order_relaxed);
    if (serial) sh.serial.unlock();
    return res;
  }

  StoreOptions opt_;
  std::uint64_t deadline_units_;  // deadline budget in ctx clock units; 0=off
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace euno::store
