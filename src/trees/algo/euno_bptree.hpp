// Algorithm layer: the Euno-B+Tree (§4) — the paper's primary contribution,
// written against the Eunomia synchronization policy (sync/euno_htm.hpp) and
// the partitioned leaf layout (trees/node/partitioned.hpp):
//
//  1. Split HTM regions (§4.1, Algorithm 2): every operation runs an *upper*
//     transaction (index traversal, low conflict) and a *lower* transaction
//     (leaf access, high conflict), stitched together by a per-leaf sequence
//     number. The lower region validates the seqno recorded by the upper
//     region; only a concurrent split forces a retry from the root —
//     ordinary conflicts retry just the lower region.
//  2. Scattered leaf layout (§4.2.2): the policy's randomized write
//     scheduler spreads inserts across the leaf's S segments; overflow
//     compacts into reserved keys; splits sort-and-redistribute (Figure 7).
//  3. Conflict-control module (§4.1, Figure 5): LOCK bits serialize
//     same-key operations before the lower region, MARK bits let misses
//     skip the leaf entirely.
//  4. Adaptive concurrency control: the policy bypasses the CCM while a
//     leaf's lower-region abort rate stays low.
//
// Deletions tombstone records, clear mark bits only when no other live key
// hashes to the slot, and defer rebalancing: merge passes run when the
// delete count crosses a threshold (or on demand), retiring emptied leaves
// through epoch-based reclamation (standing in for DBX's GC, §4.2.4).
//
// This file is a verbatim transplant of the pre-layering
// core::EunoBPTree — every ctx call, in order, is unchanged (the golden
// manifests enforce byte-identical results); only the code's *location*
// moved: layout primitives to the node layer, CCM/adaptive/scheduler/seqno
// machinery to the sync layer, tree structure and record routing here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/euno_config.hpp"
#include "ctx/common.hpp"
#include "sim/line.hpp"
#include "sync/euno_htm.hpp"
#include "trees/common.hpp"
#include "trees/node/partitioned.hpp"
#include "util/assert.hpp"
#include "util/epoch.hpp"
#include "util/memstats.hpp"

namespace euno::trees::algo {

template <class Ctx, int F = kDefaultFanout, int S = 4>
class EunoBPTree {
  static_assert(F >= 4 && S >= 1 && F % S == 0, "segments must tile the fanout");
  static_assert(2 * F + 16 <= 64,
                "CCM + control state must fit one cache line; mask is u64");

  using Leaf = node::PartitionedLeaf<F, S>;
  using INode = node::EunoINode<F>;
  using Reserved = node::Reserved<F>;
  using Record = node::Record;
  using Policy = sync::EunoHtmPolicy<Ctx>;

 public:
  static constexpr int kSlotsPerSeg = F / S;
  static constexpr int kCcmSlots = 2 * F;  // §4.1: vector length 2x fanout
  static constexpr int kLeafCapacity = 2 * F;  // segments + reserved

  explicit EunoBPTree(Ctx& c, core::EunoConfig cfg = {}) : policy_(cfg) {
    shared_ = static_cast<Shared*>(
        c.alloc(sizeof(Shared), MemClass::kTreeMisc, sim::LineKind::kTreeMeta));
    new (shared_) Shared();
    shared_->root = Leaf::alloc(c);
    shared_->root_level = 0;
    c.tag_memory(&shared_->lock, sizeof(ctx::FallbackLock),
                 sim::LineKind::kFallbackLock);
  }

  EunoBPTree(const EunoBPTree&) = delete;
  EunoBPTree& operator=(const EunoBPTree&) = delete;

  /// Frees every node. Must be called quiesced.
  void destroy(Ctx& c) {
    if (shared_ == nullptr) return;
    epochs_.drain_all();
    destroy_rec(c, shared_->root, shared_->root_level);
    c.free(shared_, sizeof(Shared), MemClass::kTreeMisc);
    shared_ = nullptr;
  }

  // ------------------------------------------------------------------
  // Point operations (Algorithm 2)
  // ------------------------------------------------------------------

  /// Point lookup (Algorithm 2): upper-region traversal, CCM admission,
  /// seqno-validated lower region. Returns true and fills `*out` when the
  /// key is present. Linearizable with concurrent puts/erases.
  bool get(Ctx& c, Key key, Value* out) {
    auto guard = epochs_.pin(epoch_tid(c));
    c.set_op_target(key);
    bool found = false;
    Value val = 0;
    for (;;) {
      auto [leaf, seq] = upper_locate(c, key);
      const bool bypass = policy_.use_bypass(c, leaf);
      int slot = -1;
      bool marked = true;
      if (cfg().ccm_lockbits && !bypass) {
        auto [s_, old] = policy_.ccm_acquire(c, leaf, key, /*set_mark=*/false);
        slot = s_;
        marked = (old & node::kCcmMark) != 0;
      } else if (cfg().ccm_markbits && !bypass) {
        marked = policy_.ccm_marked(c, leaf, key);
      }

      if (cfg().ccm_markbits && !bypass && !marked) {
        // The mark says "absent" — but only trust it if the leaf has not
        // been split since the upper region located it (the key may have
        // moved to a sibling).
        const bool still_valid = Policy::reread_seq_valid(c, leaf, seq);
        if (slot >= 0) policy_.ccm_unlock(c, leaf, slot);
        if (still_valid) {
          found = false;
          break;
        }
        continue;  // retry from root
      }

      LowerOutcome oc = LowerOutcome::kDone;
      const auto txo = policy_.lower(c, shared_->lock, [&] {
        oc = LowerOutcome::kDone;
        found = false;
        if (!Policy::reread_seq_valid(c, leaf, seq)) {
          oc = LowerOutcome::kRetryRoot;
          return;
        }
        Record* r = node::find_record(c, leaf, key);
        if (r != nullptr) {
          found = true;
          val = c.read(r->value);
        }
      });
      policy_.adapt_note(c, leaf, txo);
      if (slot >= 0) policy_.ccm_unlock(c, leaf, slot);
      if (oc == LowerOutcome::kDone) break;
    }
    c.clear_op_target();
    if (found && out != nullptr) *out = val;
    return found;
  }

  /// Insert `key` or update its value in place (the paper's `put`).
  /// Inserts go through the randomized write scheduler into a leaf segment;
  /// overflow compacts into reserved keys; full leaves split under the
  /// advisory lock (Algorithm 3).
  void put(Ctx& c, Key key, Value value) {
    {
      auto guard = epochs_.pin(epoch_tid(c));
      put_pinned(c, key, value);
    }
  }

  /// Remove `key`; returns true if it was present. Records are removed from
  /// their segment (or tombstoned in reserved keys); the mark bit is cleared
  /// only when no other live key shares its CCM slot. Rebalancing is
  /// deferred until `rebalance_threshold` deletions accumulate (§4.2.4).
  bool erase(Ctx& c, Key key) {
    bool removed = false;
    bool run_rebalance = false;
    {
      auto guard = epochs_.pin(epoch_tid(c));
      removed = erase_pinned(c, key);
      if (removed) {
        const auto n = c.fetch_add(shared_->delete_count, std::uint64_t{1}) + 1;
        if (n >= cfg().rebalance_threshold) {
          c.atomic_store(shared_->delete_count, std::uint64_t{0});
          run_rebalance = true;
        }
      }
    }
    if (run_rebalance) rebalance(c);
    return removed;
  }

  /// Range scan (§4.2.4): per-leaf, the advisory lock is taken and the live
  /// records are merged sorted into a transient reserved-keys buffer inside
  /// the lower region, then copied out. The scan is atomic per leaf (each
  /// leaf is read in one HTM region) but not across leaves, as in the paper.
  std::size_t scan(Ctx& c, Key start, std::size_t max_items, KV* out) {
    auto guard = epochs_.pin(epoch_tid(c));
    c.set_op_target(start);
    std::size_t got = 0;
    Leaf* leaf = nullptr;
    Leaf* next = nullptr;

    // First leaf: seqno-validated.
    for (;;) {
      auto [l, seq] = upper_locate(c, start);
      leaf = l;
      policy_.leaf_lock(c, leaf);
      bool ok = false;
      policy_.lower(c, shared_->lock, [&] {
        got = 0;
        ok = false;
        if (c.read(leaf->seqno) != seq) return;
        ok = true;
        next = c.read(leaf->next);
        scan_leaf(c, leaf, start, max_items, out, &got);
      });
      policy_.leaf_unlock(c, leaf);
      if (ok) break;
    }

    // Chain: splits only move suffixes rightward and merges leave dead
    // leaves readable, so following `next` cannot skip keys.
    while (got < max_items && next != nullptr) {
      leaf = next;
      policy_.leaf_lock(c, leaf);
      // Transaction bodies re-execute on abort: rewind the output cursor at
      // the top so a retried attempt cannot emit duplicates.
      const std::size_t base = got;
      policy_.lower(c, shared_->lock, [&] {
        got = base;
        next = c.read(leaf->next);
        scan_leaf(c, leaf, start, max_items, out, &got);
      });
      policy_.leaf_unlock(c, leaf);
    }
    c.clear_op_target();
    return got;
  }

  // ------------------------------------------------------------------
  // Deferred rebalance (§4.2.4)
  // ------------------------------------------------------------------

  /// One merge pass over the leaf chain: adjacent sibling leaves under the
  /// same parent whose combined live count fits comfortably are merged; the
  /// emptied leaf is unlinked and retired through epoch reclamation.
  /// Returns the number of merges performed.
  std::size_t rebalance(Ctx& c) {
    auto guard = epochs_.pin(epoch_tid(c));
    std::size_t merges = 0;
    auto [leaf, seq] = upper_locate(c, 0);
    (void)seq;
    Leaf* a = leaf;
    while (a != nullptr) {
      Leaf* b = c.read(a->next);
      if (b == nullptr) break;
      if (!merge_candidate(c, a, b)) {
        a = b;
        continue;
      }
      policy_.leaf_lock(c, a);
      policy_.leaf_lock(c, b);
      bool merged = false;
      policy_.lower(c, shared_->lock, [&] { merged = try_merge(c, a, b); });
      policy_.leaf_unlock(c, b);
      policy_.leaf_unlock(c, a);
      if (merged) {
        ++merges;
        c.note_event(ctx::TraceCode::kLeafMerge);
        retire_leaf(c, b);
        // `a` has a new next; stay on `a`.
      } else {
        a = b;
      }
    }
    return merges;
  }

  // ------------------------------------------------------------------
  // Uninstrumented verification helpers (quiesced use only)
  // ------------------------------------------------------------------

  std::size_t size_slow() const {
    std::size_t n = 0;
    walk_leaves([&](const Leaf* leaf) { n += node::live_count_raw(leaf); });
    return n;
  }

  int height() const { return static_cast<int>(shared_->root_level) + 1; }

  void check_invariants() const {
    check_node(shared_->root, shared_->root_level, nullptr, 0, ~0ull, true);
    // Leaf chain visits exactly the live leaves, in ascending key order.
    std::vector<const Leaf*> in_order;
    node::collect_leaves<Leaf>(shared_->root, shared_->root_level, &in_order);
    const Leaf* chain = in_order.empty() ? nullptr : in_order.front();
    for (const Leaf* expected : in_order) {
      EUNO_ASSERT_MSG(chain == expected, "leaf chain must match tree order");
      chain = chain->next;
    }
    Key prev = 0;
    bool first = true;
    for (const Leaf* leaf : in_order) {
      auto recs = node::gather_raw(leaf);
      for (const auto& r : recs) {
        EUNO_ASSERT_MSG(first || r.key > prev, "live keys must ascend globally");
        prev = r.key;
        first = false;
      }
      if (cfg().ccm_markbits) {
        for (const auto& r : recs) {
          EUNO_ASSERT_MSG(
              leaf->ccm[Leaf::slot_of(r.key)].load(std::memory_order_relaxed) &
                  node::kCcmMark,
              "live key must have its mark bit set");
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Bulk loading (extension)
  // ------------------------------------------------------------------

  /// Builds a packed tree from `n` strictly-ascending records, bottom-up:
  /// each leaf holds up to F records in its (sorted) reserved-keys buffer
  /// with empty segments — exactly the post-split state of Figure 7d — and
  /// interior levels are assembled above them. Must be called on an empty,
  /// quiesced tree; far cheaper than n individual puts.
  void bulk_load(Ctx& c, const KV* sorted, std::size_t n) {
    EUNO_ASSERT_MSG(
        shared_->root_level == 0 &&
            node::live_count_raw(static_cast<Leaf*>(shared_->root)) == 0,
        "bulk_load requires an empty tree");
    for (std::size_t i = 1; i < n; ++i) {
      EUNO_ASSERT_MSG(sorted[i - 1].first < sorted[i].first,
                      "bulk_load input must be strictly ascending");
    }
    if (n == 0) return;

    // Build the leaf level.
    std::vector<std::pair<Key, void*>> level;  // (subtree min key, node)
    Leaf* prev = nullptr;
    for (std::size_t off = 0; off < n; off += F) {
      const std::size_t take = std::min<std::size_t>(F, n - off);
      Leaf* leaf = off == 0 ? static_cast<Leaf*>(shared_->root) : Leaf::alloc(c);
      Reserved* res = Reserved::alloc(c);
      leaf->reserved = res;
      for (std::size_t i = 0; i < take; ++i) {
        res->recs[i] = Record{sorted[off + i].first, sorted[off + i].second};
      }
      res->count = static_cast<std::uint32_t>(take);
      res->valid = take == 64 ? ~0ull : ((1ull << take) - 1);
      if (cfg().ccm_markbits) {
        for (std::size_t i = 0; i < take; ++i) {
          leaf->ccm[Leaf::slot_of(sorted[off + i].first)].store(
              node::kCcmMark, std::memory_order_relaxed);
        }
      }
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
      level.emplace_back(sorted[off].first, leaf);
    }

    // Assemble interior levels: chunks of up to F+1 children.
    std::uint32_t lvl = 0;
    bool children_are_leaves = true;
    while (level.size() > 1) {
      ++lvl;
      std::vector<std::pair<Key, void*>> up;
      std::size_t off = 0;
      while (off < level.size()) {
        std::size_t take = std::min<std::size_t>(F + 1, level.size() - off);
        // Never leave a 1-child remainder (interior nodes need >= 1 key).
        if (level.size() - off - take == 1) --take;
        INode* node_ = INode::alloc(c);
        node_->level = lvl;
        node_->count = static_cast<std::uint32_t>(take - 1);
        for (std::size_t i = 0; i < take; ++i) {
          node_->children[i] = level[off + i].second;
          if (i > 0) node_->keys[i - 1] = level[off + i].first;
          if (children_are_leaves) {
            static_cast<Leaf*>(level[off + i].second)->parent = node_;
          } else {
            static_cast<INode*>(level[off + i].second)->parent = node_;
          }
        }
        up.emplace_back(level[off].first, node_);
        off += take;
      }
      level.swap(up);
      children_are_leaves = false;
    }
    shared_->root = level[0].second;
    shared_->root_level = lvl;
  }

  // ------------------------------------------------------------------
  // Introspection (extension)
  // ------------------------------------------------------------------

  /// Structural statistics, gathered uninstrumented (quiesced use).
  struct TreeStats {
    std::size_t leaves = 0;
    std::size_t inodes = 0;
    std::size_t live_records = 0;
    std::size_t records_in_segments = 0;
    std::size_t records_in_reserved = 0;
    std::size_t reserved_buffers = 0;
    std::size_t reserved_tombstones = 0;
    std::size_t leaves_in_bypass_mode = 0;
    std::size_t marks_set = 0;
    /// Mark-bit false-positive estimate: fraction of set mark slots with no
    /// live key hashing to them (conservative stale marks + collisions).
    double mark_false_positive_rate = 0;
    int height = 0;
  };

  TreeStats collect_stats() const {
    TreeStats st;
    st.height = height();
    std::size_t stale_marks = 0;
    walk_leaves([&](const Leaf* leaf) {
      st.leaves++;
      std::uint64_t used_slots = 0;
      for (int i = 0; i < S; ++i) {
        st.records_in_segments += leaf->segs[i].count;
        for (std::uint32_t j = 0; j < leaf->segs[i].count; ++j) {
          used_slots |= 1ull << Leaf::slot_of(leaf->segs[i].recs[j].key);
        }
      }
      if (leaf->reserved != nullptr) {
        st.reserved_buffers++;
        const auto live =
            static_cast<std::size_t>(std::popcount(leaf->reserved->valid));
        st.records_in_reserved += live;
        st.reserved_tombstones += leaf->reserved->count - live;
        for (std::uint32_t j = 0; j < leaf->reserved->count; ++j) {
          if ((leaf->reserved->valid >> j) & 1) {
            used_slots |= 1ull << Leaf::slot_of(leaf->reserved->recs[j].key);
          }
        }
      }
      if (leaf->mode.load(std::memory_order_relaxed) != 0) {
        st.leaves_in_bypass_mode++;
      }
      for (int sl = 0; sl < kCcmSlots; ++sl) {
        if (leaf->ccm[sl].load(std::memory_order_relaxed) & node::kCcmMark) {
          st.marks_set++;
          if (!((used_slots >> sl) & 1)) ++stale_marks;
        }
      }
    });
    st.live_records = st.records_in_segments + st.records_in_reserved;
    node::walk_inodes<INode>(shared_->root, shared_->root_level,
                             [&](const INode*) { st.inodes++; });
    st.mark_false_positive_rate =
        st.marks_set > 0
            ? static_cast<double>(stale_marks) / static_cast<double>(st.marks_set)
            : 0.0;
    return st;
  }

  const core::EunoConfig& config() const { return policy_.config(); }
  EpochManager& epochs() { return epochs_; }

 private:
  struct Shared {
    ctx::FallbackLock lock;
    void* root;
    std::uint32_t root_level;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> delete_count;
  };

  enum class LowerOutcome { kDone, kRetryRoot, kNeedSplitLock };

  const core::EunoConfig& cfg() const { return policy_.config(); }

  void retire_leaf(Ctx& c, Leaf* leaf) {
    Reserved* res = leaf->reserved;  // quiesced-by-seqno: safe raw read
    if (res != nullptr) {
      epochs_.retire(epoch_tid(c), res,
                     c.make_deleter(sizeof(Reserved), MemClass::kReservedKeys));
    }
    epochs_.retire(epoch_tid(c), leaf,
                   c.make_deleter(sizeof(Leaf), MemClass::kLeafNode));
  }

  int epoch_tid(Ctx& c) const { return c.tid() % EpochManager::kMaxThreads; }

  // ---- upper region ----

  std::pair<Leaf*, std::uint64_t> upper_locate(Ctx& c, Key key) {
    Leaf* leaf = nullptr;
    std::uint64_t seq = 0;
    policy_.upper(c, shared_->lock, [&] {
      void* n = c.read(shared_->root);
      std::uint32_t lvl = c.read(shared_->root_level);
      while (lvl > 0) {
        auto* in = static_cast<INode*>(n);
        n = c.read(in->children[node::inode_child_index(c, in, key)]);
        --lvl;
        // Issue the child's lines while the loop overhead retires: a whole
        // INode for interior levels, the leaf's metadata + control lines
        // (the probe touches segments we can't predict) at the bottom.
        c.prefetch(n, lvl > 0 ? sizeof(INode) : 2 * kCacheLineSize);
      }
      leaf = static_cast<Leaf*>(n);
      seq = c.read(leaf->seqno);
    });
    return {leaf, seq};
  }

  // ---- put / erase bodies ----

  void put_pinned(Ctx& c, Key key, Value value) {
    c.set_op_target(key);
    bool force_lock = false;
    for (;;) {
      auto [leaf, seq] = upper_locate(c, key);
      const bool bypass = policy_.use_bypass(c, leaf);
      int slot = -1;
      bool probably_insert = true;
      if (cfg().ccm_lockbits && !bypass) {
        // One RMW acquires the lock bit and plants the (conservative) mark.
        auto [s_, old] = policy_.ccm_acquire(c, leaf, key, cfg().ccm_markbits);
        slot = s_;
        if (cfg().ccm_markbits) probably_insert = (old & node::kCcmMark) == 0;
      } else if (cfg().ccm_markbits) {
        // Marks must stay conservative even in bypass mode: set before insert.
        probably_insert = !policy_.ccm_marked(c, leaf, key);
        policy_.ccm_set_mark(c, leaf, key);
      }

      // The near-full pre-lock (Alg. 2 line 39) only matters for inserts
      // that may split; updates skip the estimate entirely. A full leaf
      // discovered without the lock is handled by the kNeedSplitLock retry.
      bool have_split_lock = false;
      if (force_lock || (probably_insert && node::leaf_near_full(c, leaf))) {
        policy_.leaf_lock(c, leaf);
        have_split_lock = true;
      }

      LowerOutcome oc = LowerOutcome::kDone;
      const auto txo = policy_.lower(c, shared_->lock, [&] {
        oc = LowerOutcome::kDone;
        if (c.read(leaf->seqno) != seq) {
          oc = LowerOutcome::kRetryRoot;
          return;
        }
        Record* r = node::find_record(c, leaf, key);
        if (r != nullptr) {
          c.write(r->value, value);
          return;
        }
        Leaf* target = leaf;
        r = insert_record(c, leaf, key, have_split_lock, &oc, &target);
        if (r != nullptr) {
          c.write(r->value, value);
          // A split rebuilds mark bits from pre-insert records (and may move
          // the key's home to the new sibling): re-assert the mark on the
          // final target, transactionally, so it commits with the insert.
          if (cfg().ccm_markbits) policy_.ccm_set_mark(c, target, key);
        }
      });
      policy_.adapt_note(c, leaf, txo);
      if (have_split_lock) policy_.leaf_unlock(c, leaf);
      if (slot >= 0) policy_.ccm_unlock(c, leaf, slot);
      if (oc == LowerOutcome::kDone) break;
      // A full leaf discovered without the lock: restart from the root and
      // unconditionally pre-acquire (the near-full estimate is only a hint).
      if (oc == LowerOutcome::kNeedSplitLock) force_lock = true;
    }
    c.clear_op_target();
  }

  bool erase_pinned(Ctx& c, Key key) {
    c.set_op_target(key);
    bool removed = false;
    for (;;) {
      auto [leaf, seq] = upper_locate(c, key);
      const bool bypass = policy_.use_bypass(c, leaf);
      int slot = -1;
      bool marked = true;
      if (cfg().ccm_lockbits && !bypass) {
        auto [s_, old] = policy_.ccm_acquire(c, leaf, key, /*set_mark=*/false);
        slot = s_;
        marked = (old & node::kCcmMark) != 0;
      } else if (cfg().ccm_markbits && !bypass) {
        marked = policy_.ccm_marked(c, leaf, key);
      }

      if (cfg().ccm_markbits && !bypass && !marked) {
        const bool still_valid = c.read(leaf->seqno) == seq;
        if (slot >= 0) policy_.ccm_unlock(c, leaf, slot);
        if (still_valid) {
          removed = false;
          break;
        }
        continue;
      }

      LowerOutcome oc = LowerOutcome::kDone;
      bool slot_still_used = true;
      Reserved* emptied = nullptr;
      const auto txo = policy_.lower(c, shared_->lock, [&] {
        oc = LowerOutcome::kDone;
        removed = false;
        slot_still_used = true;
        emptied = nullptr;
        if (c.read(leaf->seqno) != seq) {
          oc = LowerOutcome::kRetryRoot;
          return;
        }
        removed = node::remove_record(c, leaf, key, &emptied);
        if (removed && cfg().ccm_markbits) {
          slot_still_used = any_live_key_in_slot(c, leaf, Leaf::slot_of(key));
        }
      });
      policy_.adapt_note(c, leaf, txo);
      if (emptied != nullptr) {
        epochs_.retire(epoch_tid(c), emptied,
                       c.make_deleter(sizeof(Reserved), MemClass::kReservedKeys));
      }
      // Clearing a mark requires the slot lock (otherwise a concurrent
      // same-slot insert could have its fresh mark erased → false negative).
      if (removed && cfg().ccm_markbits && slot >= 0 && !slot_still_used) {
        policy_.ccm_clear_mark(c, leaf, slot);
      }
      if (slot >= 0) policy_.ccm_unlock(c, leaf, slot);
      if (oc == LowerOutcome::kDone) break;
    }
    c.clear_op_target();
    return removed;
  }

  // ---- lower-region record routing (inside transactions) ----

  /// Algorithm 3: randomized write scheduler, compaction into reserved keys
  /// on overflow, split (under the advisory lock) when really full.
  Record* insert_record(Ctx& c, Leaf* leaf, Key key, bool have_split_lock,
                        LowerOutcome* oc, Leaf** target_out) {
    *target_out = leaf;
    int idx = policy_.template sched_pick<S>(c);
    for (int tries = 0;
         node::seg_full(c, leaf, idx) && tries < cfg().sched_retries; ++tries) {
      idx = policy_.template sched_pick<S>(c);
    }
    if (!node::seg_full(c, leaf, idx)) return node::seg_insert(c, leaf, idx, key);

    const std::uint32_t total = node::live_count_tx(c, leaf);
    if (total < static_cast<std::uint32_t>(F)) {
      // Uneven distribution or reserved-absorbable overflow: move all
      // records to reserved keys and clean the segments (Figure 6b/6c).
      node::compact_to_reserved(c, leaf);
      return node::seg_insert(c, leaf, policy_.template sched_pick<S>(c), key);
    }

    // Node is really full: split required (Figure 6, lines 75-86).
    if (!have_split_lock) {
      *oc = LowerOutcome::kNeedSplitLock;
      return nullptr;
    }
    Leaf* target = split_leaf(c, leaf, key);
    *target_out = target;
    return node::seg_insert(c, target, policy_.template sched_pick<S>(c), key);
  }

  bool any_live_key_in_slot(Ctx& c, Leaf* leaf, int slot) {
    bool used = false;
    node::for_each_live(c, leaf, [&](Key k, Value) {
      if (Leaf::slot_of(k) == slot) used = true;
    });
    return used;
  }

  /// §4.2.3 sorting-split-reorganizing. Requires the advisory split lock.
  /// Returns the node that should receive `key`.
  Leaf* split_leaf(Ctx& c, Leaf* leaf, Key key) {
    auto all = node::gather_sorted(c, leaf);
    const std::size_t half = all.size() / 2;
    EUNO_ASSERT(half >= 1 && all.size() - half <= static_cast<std::size_t>(F));

    Leaf* right = Leaf::alloc(c);
    Reserved* rres = Reserved::alloc(c);
    c.write(right->reserved, rres);
    node::write_reserved(c, rres, all.data() + half, all.size() - half);

    Reserved* lres = c.read(leaf->reserved);
    if (lres == nullptr) {
      lres = Reserved::alloc(c);
      c.write(leaf->reserved, lres);
    }
    node::write_reserved(c, lres, all.data(), half);
    for (int s = 0; s < S; ++s) c.write(leaf->segs[s].count, 0u);

    c.write(right->next, c.read(leaf->next));
    c.write(leaf->next, right);
    c.write(right->parent, c.read(leaf->parent));
    c.write(leaf->seqno, c.read(leaf->seqno) + 1);  // Alg. 3 line 80

    if (cfg().ccm_markbits) {
      // Only the fresh right leaf gets exact marks (its CCM line is private
      // until the split commits, so this costs no conflicts). The left leaf
      // keeps its existing marks: a conservative superset — moved-out keys
      // degrade to false positives, which is safe and cheap, whereas
      // rewriting the left CCM line inside the split transaction would let
      // every concurrent non-transactional CCM operation abort the split.
      policy_.rebuild_marks(c, right, all.data() + half, all.size() - half);
    }

    const Key sep = all[half].key;
    insert_into_parent(c, leaf, sep, right);
    c.note_event(ctx::TraceCode::kLeafSplit);
    return key >= sep ? right : leaf;
  }

  void insert_into_parent(Ctx& c, Leaf* left, Key sep, Leaf* right) {
    INode* parent = c.read(left->parent);
    if (parent == nullptr) {
      INode* root = make_new_root(c, left, sep, right, 1);
      c.write(left->parent, root);
      c.write(right->parent, root);
      return;
    }
    insert_into_inode(c, parent, sep, right, /*child_is_leaf=*/true);
  }

  INode* make_new_root(Ctx& c, void* left, Key sep, void* right,
                       std::uint32_t level) {
    INode* root = INode::alloc(c);
    c.write(root->count, 1u);
    c.write(root->level, level);
    c.write(root->keys[0], sep);
    c.write(root->children[0], left);
    c.write(root->children[1], right);
    c.write(shared_->root, static_cast<void*>(root));
    c.write(shared_->root_level, level);
    return root;
  }

  void insert_into_inode(Ctx& c, INode* node_, Key sep, void* right_child,
                         bool child_is_leaf) {
    if (c.read(node_->count) == static_cast<std::uint32_t>(F)) {
      node_ = split_inode(c, node_, sep);
    }
    const int n = static_cast<int>(c.read(node_->count));
    int pos = n;
    while (pos > 0 && c.read(node_->keys[pos - 1]) > sep) --pos;
    for (int i = n; i > pos; --i) {
      c.write(node_->keys[i], c.read(node_->keys[i - 1]));
      c.write(node_->children[i + 1], c.read(node_->children[i]));
    }
    c.write(node_->keys[pos], sep);
    c.write(node_->children[pos + 1], right_child);
    c.write(node_->count, static_cast<std::uint32_t>(n + 1));
    set_parent(c, right_child, child_is_leaf, node_);
  }

  void set_parent(Ctx& c, void* child, bool child_is_leaf, INode* parent) {
    if (child_is_leaf) {
      c.write(static_cast<Leaf*>(child)->parent, parent);
    } else {
      c.write(static_cast<INode*>(child)->parent, parent);
    }
  }

  INode* split_inode(Ctx& c, INode* node_, Key sep) {
    INode* right = INode::alloc(c);
    constexpr int kHalf = F / 2;
    const std::uint32_t level = c.read(node_->level);
    const Key mid = c.read(node_->keys[kHalf]);
    c.write(right->level, level);
    for (int i = kHalf + 1; i < F; ++i) {
      c.write(right->keys[i - kHalf - 1], c.read(node_->keys[i]));
    }
    const bool children_are_leaves = level == 1;
    for (int i = kHalf + 1; i <= F; ++i) {
      void* child = c.read(node_->children[i]);
      c.write(right->children[i - kHalf - 1], child);
      set_parent(c, child, children_are_leaves, right);
    }
    c.write(right->count, static_cast<std::uint32_t>(F - kHalf - 1));
    c.write(node_->count, static_cast<std::uint32_t>(kHalf));

    INode* parent = c.read(node_->parent);
    if (parent == nullptr) {
      INode* root = make_new_root(c, node_, mid, right, level + 1);
      c.write(node_->parent, root);
      c.write(right->parent, root);
    } else {
      insert_into_inode(c, parent, mid, right, /*child_is_leaf=*/false);
    }
    return sep >= mid ? right : node_;
  }

  // ---- scan helper ----

  /// §4.2.4: under the advisory lock, move and sort the leaf's records into
  /// the reserved-keys buffer and clear the segments, so consecutive scans
  /// reuse the sorted layout (the fast path). A leaf holding more live
  /// records than the buffer fits merges into a transient buffer instead,
  /// freed at commit.
  void scan_leaf(Ctx& c, Leaf* leaf, Key start, std::size_t max_items, KV* out,
                 std::size_t* got) {
    // Fast path: a previously-compacted leaf (all records already sorted in
    // reserved keys, segments empty) is read out directly.
    if (node::scan_fast_path(c, leaf, start, max_items, out, got)) return;
    auto all = node::gather_sorted(c, leaf);
    if (all.empty()) return;

    if (all.size() <= static_cast<std::size_t>(F)) {
      // Paper behaviour: stash the sorted records in reserved keys, clear
      // the segments, emit from the compacted buffer.
      Reserved* res = c.read(leaf->reserved);
      if (res == nullptr) {
        res = Reserved::alloc(c);
        c.write(leaf->reserved, res);
      }
      node::write_reserved(c, res, all.data(), all.size());
      for (int s = 0; s < S; ++s) c.write(leaf->segs[s].count, 0u);
      for (std::size_t i = 0; i < all.size() && *got < max_items; ++i) {
        if (all[i].key < start) continue;
        out[(*got)++] = KV{all[i].key, all[i].value};
      }
      return;
    }

    // The live count exceeds the reserved capacity: a transient buffer,
    // allocated for the scan, freed at commit.
    auto* transient = static_cast<Reserved*>(c.alloc(
        sizeof(Reserved) * 2, MemClass::kReservedKeys, sim::LineKind::kRecord));
    auto* trecs = reinterpret_cast<Record*>(transient);
    for (std::size_t i = 0; i < all.size(); ++i) {
      c.write(trecs[i].key, all[i].key);
      c.write(trecs[i].value, all[i].value);
    }
    for (std::size_t i = 0; i < all.size() && *got < max_items; ++i) {
      const Key k = c.read(trecs[i].key);
      if (k < start) continue;
      out[(*got)++] = KV{k, c.read(trecs[i].value)};
    }
    c.free(transient, sizeof(Reserved) * 2, MemClass::kReservedKeys);
  }

  // ---- rebalance helpers ----

  bool merge_candidate(Ctx& c, Leaf* a, Leaf* b) {
    if (c.read(a->dead) || c.read(b->dead)) return false;
    INode* pa = c.read(a->parent);
    INode* pb = c.read(b->parent);
    if (pa == nullptr || pa != pb) return false;
    if (c.read(pa->count) < 2) return false;
    std::uint32_t total = 0;
    for (int s = 0; s < S; ++s) {
      total += c.read(a->segs[s].count) + c.read(b->segs[s].count);
    }
    Reserved* ra = c.read(a->reserved);
    Reserved* rb = c.read(b->reserved);
    if (ra) total += static_cast<std::uint32_t>(std::popcount(c.read(ra->valid)));
    if (rb) total += static_cast<std::uint32_t>(std::popcount(c.read(rb->valid)));
    return total <= static_cast<std::uint32_t>(F);
  }

  /// Transactional merge of b into a. Returns false if validation failed
  /// (layout changed since the racy candidate check).
  bool try_merge(Ctx& c, Leaf* a, Leaf* b) {
    if (c.read(a->dead) || c.read(b->dead)) return false;
    if (c.read(a->next) != b) return false;
    INode* parent = c.read(a->parent);
    if (parent == nullptr || parent != c.read(b->parent)) return false;
    const int pcount = static_cast<int>(c.read(parent->count));
    if (pcount < 2) return false;
    if (node::live_count_tx(c, a) + node::live_count_tx(c, b) >
        static_cast<std::uint32_t>(F)) {
      return false;
    }

    // Locate b among the parent's children (it has a left sibling in the
    // same parent, so its index is >= 1).
    int bi = -1;
    for (int i = 1; i <= pcount; ++i) {
      if (c.read(parent->children[i]) == static_cast<void*>(b)) {
        bi = i;
        break;
      }
    }
    if (bi < 0 || c.read(parent->children[bi - 1]) != static_cast<void*>(a)) {
      return false;
    }

    auto all_a = node::gather_sorted(c, a);
    auto all_b = node::gather_sorted(c, b);
    all_a.insert(all_a.end(), all_b.begin(), all_b.end());

    Reserved* res = c.read(a->reserved);
    if (res == nullptr) {
      res = Reserved::alloc(c);
      c.write(a->reserved, res);
    }
    node::write_reserved(c, res, all_a.data(), all_a.size());
    for (int s = 0; s < S; ++s) c.write(a->segs[s].count, 0u);

    c.write(a->next, c.read(b->next));
    c.write(a->seqno, c.read(a->seqno) + 1);
    c.write(b->seqno, c.read(b->seqno) + 1);
    c.write(b->dead, 1u);

    for (int i = bi; i < pcount; ++i) {
      c.write(parent->keys[i - 1], c.read(parent->keys[i]));
      c.write(parent->children[i], c.read(parent->children[i + 1]));
    }
    c.write(parent->count, static_cast<std::uint32_t>(pcount - 1));

    if (cfg().ccm_markbits) policy_.rebuild_marks(c, a, all_a.data(), all_a.size());
    return true;
  }

  // ---- uninstrumented verification ----

  template <class Fn>
  void walk_leaves(Fn&& fn) const {
    node::walk_leaves_rec<Leaf>(shared_->root, shared_->root_level, fn);
  }

  void check_node(void* node_, std::uint32_t level, const INode* parent, Key lo,
                  Key hi, bool lo_open) const {
    if (level == 0) {
      auto* leaf = static_cast<const Leaf*>(node_);
      EUNO_ASSERT(leaf->parent == parent);
      EUNO_ASSERT(!leaf->dead);
      for (int s = 0; s < S; ++s) {
        const auto& seg = leaf->segs[s];
        EUNO_ASSERT(seg.count <= static_cast<std::uint32_t>(kSlotsPerSeg));
        for (std::uint32_t i = 0; i + 1 < seg.count; ++i) {
          EUNO_ASSERT_MSG(seg.recs[i].key < seg.recs[i + 1].key,
                          "segment keys must ascend");
        }
      }
      if (leaf->reserved != nullptr) {
        const auto* res = leaf->reserved;
        EUNO_ASSERT(res->count <= static_cast<std::uint32_t>(F));
        for (std::uint32_t i = 0; i + 1 < res->count; ++i) {
          EUNO_ASSERT_MSG(res->recs[i].key < res->recs[i + 1].key,
                          "reserved keys must ascend");
        }
      }
      auto recs = node::gather_raw(leaf);
      for (std::size_t i = 0; i < recs.size(); ++i) {
        EUNO_ASSERT_MSG(i == 0 || recs[i].key > recs[i - 1].key,
                        "duplicate live key in leaf");
        EUNO_ASSERT_MSG(lo_open || recs[i].key >= lo, "key below bound");
        EUNO_ASSERT_MSG(recs[i].key < hi, "key above bound");
      }
      return;
    }
    auto* in = static_cast<const INode*>(node_);
    EUNO_ASSERT(in->parent == parent);
    EUNO_ASSERT(in->level == level);
    EUNO_ASSERT(in->count >= 1 && in->count <= static_cast<std::uint32_t>(F));
    for (std::uint32_t i = 0; i + 1 < in->count; ++i) {
      EUNO_ASSERT_MSG(in->keys[i] < in->keys[i + 1], "inode keys must ascend");
    }
    for (std::uint32_t i = 0; i < in->count; ++i) {
      EUNO_ASSERT_MSG(lo_open || in->keys[i] >= lo, "separator below bound");
      EUNO_ASSERT_MSG(in->keys[i] < hi, "separator above bound");
    }
    for (std::uint32_t i = 0; i <= in->count; ++i) {
      const Key child_lo = (i == 0) ? lo : in->keys[i - 1];
      const Key child_hi = (i == in->count) ? hi : in->keys[i];
      check_node(in->children[i], level - 1, in, child_lo, child_hi,
                 lo_open && i == 0);
    }
  }

  void destroy_rec(Ctx& c, void* node_, std::uint32_t level) {
    if (level == 0) {
      auto* leaf = static_cast<Leaf*>(node_);
      if (leaf->reserved != nullptr) {
        c.free(leaf->reserved, sizeof(Reserved), MemClass::kReservedKeys);
      }
      c.free(leaf, sizeof(Leaf), MemClass::kLeafNode);
      return;
    }
    auto* in = static_cast<INode*>(node_);
    for (std::uint32_t i = 0; i <= in->count; ++i) {
      destroy_rec(c, in->children[i], level - 1);
    }
    c.free(in, sizeof(INode), MemClass::kInternalNode);
  }

  // ---- members ----

  Policy policy_;
  Shared* shared_ = nullptr;
  EpochManager epochs_{EpochManager::kMaxThreads};
};

}  // namespace euno::trees::algo
