// Node/layout layer, partitioned variant: the Eunomia leaf (§4.1 Figure 4,
// §4.2.2) and its interior node, shared by every tree built on the scattered
// layout (Euno-B+Tree and its ablation rungs):
//
//   - records live in S segments, each sorted internally, each on its own
//     cache line(s) with its own count — concurrent inserts to one leaf
//     touch different lines;
//   - overflow compacts into the sorted *reserved keys* buffer, whose
//     `valid` bitmask tombstones deletions;
//   - leaf line 0 holds only transactional metadata (seqno = the split
//     version of §4.1); line 1 packs ALL non-transactional control state
//     (CCM bit vector, advisory split lock, adaptive window counters) so a
//     CAS on any of it cannot abort in-flight transactions reading line 0;
//   - S = 1 degenerates to the conventional consecutive layout (the
//     "+Split HTM only" ablation).
//
// The free functions below are the record-movement and search primitives of
// that layout — segment probe, reserved binary search, scheduler-targeted
// insert, tombstoning removal, compaction, gather-sorted. Every access goes
// through the ctx, so they cost exactly what the pre-layering EunoBPTree
// charged (held to byte-identical results by `ctest -L golden`).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/line.hpp"
#include "trees/common.hpp"
#include "trees/node/consecutive.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/hash.hpp"
#include "util/memstats.hpp"

namespace euno::trees::node {

// CCM bits (§4.1 Figure 5): LOCK serializes same-key operations before they
// enter the lower region; MARK is a Bloom-style existence filter.
inline constexpr std::uint8_t kCcmLock = 1;
inline constexpr std::uint8_t kCcmMark = 2;

/// One leaf segment: own metadata, own cache line(s) (§4.1 Figure 4).
template <int N>
struct alignas(kCacheLineSize) Segment {
  std::uint32_t count;
  Record recs[N];  // sorted within the segment
};

/// Sorted overflow/compaction buffer ("reserved keys"). Allocated on
/// demand; `valid` tombstones deleted entries.
template <int F>
struct Reserved {
  std::uint32_t count;  // entries in recs (including tombstoned)
  std::uint32_t pad;
  std::uint64_t valid;  // bit i => recs[i] is live
  Record recs[F];

  template <class Ctx>
  static Reserved* alloc(Ctx& c) {
    auto* r = static_cast<Reserved*>(c.alloc(
        sizeof(Reserved), MemClass::kReservedKeys, sim::LineKind::kRecord));
    new (r) Reserved();
    c.note_node(r, sizeof(Reserved), 0);
    return r;
  }
};

template <int F>
struct EunoINode;

/// Traits is the key-domain hook (trees/key_traits.hpp), defaulted to the
/// u64 domain every existing instantiation uses. Only U64KeyTraits is
/// implemented today — honestly: the partitioned layout's CCM hashes the
/// u64 key directly into a slot, segments store inline Records (no box
/// pointers), and the reserved-buffer compaction moves records without any
/// notion of out-of-line ownership. Extending to BytesKeyTraits means (a)
/// slot_of over the full key bytes, not the 8-byte prefix slice — two keys
/// sharing a slice must not alias a CCM LOCK slot, (b) segment/reserved
/// record movement that transfers box ownership, and (c) a destroy path
/// that retires boxes from both storage tiers. The static_assert keeps the
/// door visibly open without pretending it's done.
template <int F, int S, class Traits = U64KeyTraits>
struct PartitionedLeaf {
  static_assert(F >= 4 && S >= 1 && F % S == 0, "segments must tile the fanout");
  static_assert(2 * F + 16 <= 64,
                "CCM + control state must fit one cache line; mask is u64");
  static_assert(Traits::kDomain == KeyDomain::kU64,
                "PartitionedLeaf supports the u64 key domain only (see above);"
                " bytes-domain trees use the consecutive layout");

  using KeyTraitsT = Traits;

  static constexpr int kFanout = F;
  static constexpr int kSegments = S;
  static constexpr int kSlotsPerSeg = F / S;
  static constexpr int kCcmSlots = 2 * F;  // §4.1: vector length 2x fanout
  static constexpr int kLeafCapacity = 2 * F;  // segments + reserved

  using SegmentT = Segment<kSlotsPerSeg>;
  using ReservedT = Reserved<F>;
  using INodeT = EunoINode<F>;

  // Line 0: leaf metadata (seqno is the split version of §4.1). This line
  // sits in every lower region's read set, so nothing that is written
  // outside transactions may live here.
  std::uint64_t seqno;
  EunoINode<F>* parent;
  PartitionedLeaf* next;
  ReservedT* reserved;
  std::uint32_t dead;
  // Line 1: all non-transactional control state — the CCM bit vector, the
  // advisory split lock, and the adaptive-contention window counters —
  // shares one cache line. Keeping it off line 0 is essential: a CAS on
  // the split lock or a CCM slot is a plain write, and if it shared a line
  // with seqno it would abort every in-flight transaction on the leaf (we
  // measured exactly that pathology before separating them). Packing all
  // of it into ONE line matters too: every operation that consults the
  // CCM, the mode, or the lock then touches a single extra line.
  alignas(kCacheLineSize) std::atomic<std::uint8_t> ccm[kCcmSlots];
  std::atomic<std::uint32_t> split_lock;
  std::atomic<std::uint32_t> win_ops;
  std::atomic<std::uint32_t> win_aborts;
  std::atomic<std::uint32_t> mode;  // 1 = bypass CCM (low contention)
  // Scattered record storage.
  SegmentT segs[S];

  static int slot_of(Key key) {
    return static_cast<int>(mix64(key) & (kCcmSlots - 1));
  }

  template <class Ctx>
  static PartitionedLeaf* alloc(Ctx& c) {
    auto* l = static_cast<PartitionedLeaf*>(c.alloc(
        sizeof(PartitionedLeaf), MemClass::kLeafNode, sim::LineKind::kRecord));
    new (l) PartitionedLeaf();
    l->mode.store(1, std::memory_order_relaxed);  // start optimistic (bypass)
    c.tag_memory(l, kCacheLineSize, sim::LineKind::kLeafMeta);
    c.tag_memory(&l->ccm[0], kCacheLineSize, sim::LineKind::kCCM);
    c.note_node(l, sizeof(PartitionedLeaf), 0);
    return l;
  }
};

template <int F>
struct EunoINode {
  std::uint32_t count;
  std::uint32_t level;  // children live at level-1; level 1 children are leaves
  EunoINode* parent;
  alignas(kCacheLineSize) Key keys[F];
  alignas(kCacheLineSize) void* children[F + 1];

  template <class Ctx>
  static EunoINode* alloc(Ctx& c) {
    auto* n = static_cast<EunoINode*>(c.alloc(
        sizeof(EunoINode), MemClass::kInternalNode, sim::LineKind::kTreeMeta));
    new (n) EunoINode();
    c.note_node(n, sizeof(EunoINode), 1);
    return n;
  }
};

// ---- interior search ----

/// Linear separator scan (fanout-sized interior nodes on dedicated lines).
/// Raw-memory contexts take the vectorized count_le — on the sorted
/// separator array it returns the same index the linear scan would.
template <class Ctx, class INode>
int inode_child_index(Ctx& c, INode* node, Key key) {
  const int n = static_cast<int>(c.read(node->count));
  if constexpr (ctx_raw_memory_v<Ctx>) {
    return simd::count_le(&node->keys[0], n, key);
  }
  int i = 0;
  while (i < n && key >= c.read(node->keys[i])) ++i;
  return i;
}

// ---- lower-region record primitives (inside transactions) ----

/// Searches the reserved buffer (binary search over the sorted
/// live+tombstoned entries) then the segments (first/last fence compare,
/// then linear — §4.1). Returns a pointer for in-place update, or nullptr.
template <class Ctx, class Leaf>
Record* find_record(Ctx& c, Leaf* leaf, Key key) {
  if constexpr (ctx_raw_memory_v<Ctx>) {
    // Vectorized probe: equality-only, so the sorted-order fence compares
    // and the binary search add nothing — find_eq_pairs sweeps the short
    // arrays directly. Keys are unique within the reserved buffer (it is
    // rebuilt from the live set on compaction), so the first hit is the
    // only hit; a tombstoned hit falls through to the segments exactly
    // like the instrumented path.
    static_assert(sizeof(Record) == 2 * sizeof(std::uint64_t) &&
                      offsetof(Record, key) == 0,
                  "find_eq_pairs assumes interleaved {key, value} u64 pairs");
    auto* res = c.read(leaf->reserved);
    if (res != nullptr) {
      const int n = static_cast<int>(c.read(res->count));
      const int idx = simd::find_eq_pairs(
          reinterpret_cast<const std::uint64_t*>(&res->recs[0]), n, key);
      if (idx >= 0 && ((c.read(res->valid) >> idx) & 1)) {
        return &res->recs[idx];
      }
    }
    for (int s = 0; s < Leaf::kSegments; ++s) {
      auto& seg = leaf->segs[s];
      const int n = static_cast<int>(c.read(seg.count));
      if (n == 0) continue;
      const int idx = simd::find_eq_pairs(
          reinterpret_cast<const std::uint64_t*>(&seg.recs[0]), n, key);
      if (idx >= 0) return &seg.recs[idx];
    }
    return nullptr;
  }
  // Reserved keys first: in steady state (after a compaction or split)
  // most records live there and the sorted buffer costs a short binary
  // search; segments are probed only on a reserved miss. A live key exists
  // in exactly one place, so the order is free.
  auto* res = c.read(leaf->reserved);
  if (res != nullptr) {
    const int n = static_cast<int>(c.read(res->count));
    int lo = 0, hi = n - 1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      const Key k = c.read(res->recs[mid].key);
      if (k == key) {
        const std::uint64_t valid = c.read(res->valid);
        if ((valid >> mid) & 1) return &res->recs[mid];
        break;  // tombstoned here; a live copy may sit in a segment
      }
      if (k < key) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }
  for (int s = 0; s < Leaf::kSegments; ++s) {
    auto& seg = leaf->segs[s];
    const int n = static_cast<int>(c.read(seg.count));
    if (n == 0) continue;
    if (key < c.read(seg.recs[0].key) || key > c.read(seg.recs[n - 1].key)) {
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const Key k = c.read(seg.recs[i].key);
      if (k == key) return &seg.recs[i];
      if (k > key) break;
    }
  }
  return nullptr;
}

template <class Ctx, class Leaf>
bool seg_full(Ctx& c, Leaf* leaf, int idx) {
  return c.read(leaf->segs[idx].count) ==
         static_cast<std::uint32_t>(Leaf::kSlotsPerSeg);
}

/// Sorted insert into one segment (at most kSlotsPerSeg-1 shifts, all on
/// the segment's own cache line(s)). Writes a placeholder value — the
/// caller stores the real one through the returned record pointer.
template <class Ctx, class Leaf>
Record* seg_insert(Ctx& c, Leaf* leaf, int idx, Key key) {
  auto& seg = leaf->segs[idx];
  const int n = static_cast<int>(c.read(seg.count));
  EUNO_ASSERT_MSG(n < Leaf::kSlotsPerSeg,
                  "scheduler must deliver a non-full segment");
  int pos = n;
  while (pos > 0 && c.read(seg.recs[pos - 1].key) > key) --pos;
  for (int i = n; i > pos; --i) {
    c.write(seg.recs[i].key, c.read(seg.recs[i - 1].key));
    c.write(seg.recs[i].value, c.read(seg.recs[i - 1].value));
  }
  c.write(seg.recs[pos].key, key);
  c.write(seg.recs[pos].value, Value{0});
  c.write(seg.count, static_cast<std::uint32_t>(n + 1));
  return &seg.recs[pos];
}

/// Remove from a segment (shift) or tombstone in reserved keys. When the
/// tombstone empties the buffer it is detached and handed back through
/// `*emptied` for epoch-deferred reclamation (racy readers may still probe
/// it).
template <class Ctx, class Leaf>
bool remove_record(Ctx& c, Leaf* leaf, Key key,
                   typename Leaf::ReservedT** emptied) {
  *emptied = nullptr;
  for (int s = 0; s < Leaf::kSegments; ++s) {
    auto& seg = leaf->segs[s];
    const int n = static_cast<int>(c.read(seg.count));
    for (int i = 0; i < n; ++i) {
      const Key k = c.read(seg.recs[i].key);
      if (k > key) break;
      if (k != key) continue;
      for (int j = i; j + 1 < n; ++j) {
        c.write(seg.recs[j].key, c.read(seg.recs[j + 1].key));
        c.write(seg.recs[j].value, c.read(seg.recs[j + 1].value));
      }
      c.write(seg.count, static_cast<std::uint32_t>(n - 1));
      return true;
    }
  }
  auto* res = c.read(leaf->reserved);
  if (res == nullptr) return false;
  const int n = static_cast<int>(c.read(res->count));
  for (int i = 0; i < n; ++i) {
    if (c.read(res->recs[i].key) != key) continue;
    const std::uint64_t valid = c.read(res->valid);
    if (!((valid >> i) & 1)) return false;
    c.write(res->valid, std::uint64_t{valid & ~(1ull << i)});
    if ((valid & ~(1ull << i)) == 0) {
      // Buffer emptied: detach it. Reclamation goes through the epoch
      // manager (after the txn commits) because leaf_near_full and the
      // merge candidate check read the buffer without a transaction.
      c.write(leaf->reserved, static_cast<typename Leaf::ReservedT*>(nullptr));
      *emptied = res;
    }
    return true;
  }
  return false;
}

template <class Ctx, class Leaf>
std::uint32_t live_count_tx(Ctx& c, Leaf* leaf) {
  std::uint32_t total = 0;
  for (int s = 0; s < Leaf::kSegments; ++s) total += c.read(leaf->segs[s].count);
  auto* res = c.read(leaf->reserved);
  if (res != nullptr) {
    total += static_cast<std::uint32_t>(std::popcount(c.read(res->valid)));
  }
  return total;
}

template <class Ctx, class Leaf, class Fn>
void for_each_live(Ctx& c, Leaf* leaf, Fn&& fn) {
  for (int s = 0; s < Leaf::kSegments; ++s) {
    auto& seg = leaf->segs[s];
    const int n = static_cast<int>(c.read(seg.count));
    for (int i = 0; i < n; ++i) {
      fn(c.read(seg.recs[i].key), c.read(seg.recs[i].value));
    }
  }
  auto* res = c.read(leaf->reserved);
  if (res != nullptr) {
    const int n = static_cast<int>(c.read(res->count));
    const std::uint64_t valid = c.read(res->valid);
    for (int i = 0; i < n; ++i) {
      if ((valid >> i) & 1) {
        fn(c.read(res->recs[i].key), c.read(res->recs[i].value));
      }
    }
  }
}

/// Gather all live records sorted (host-side scratch; cost charged).
template <class Ctx, class Leaf>
std::vector<Record> gather_sorted(Ctx& c, Leaf* leaf) {
  std::vector<Record> all;
  all.reserve(Leaf::kLeafCapacity);
  for_each_live(c, leaf, [&](Key k, Value v) { all.push_back(Record{k, v}); });
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  c.compute(all.size() * 4 + 8);  // merge-sort work
  return all;
}

template <class Ctx, class Res>
void write_reserved(Ctx& c, Res* res, const Record* recs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    c.write(res->recs[i].key, recs[i].key);
    c.write(res->recs[i].value, recs[i].value);
  }
  c.write(res->count, static_cast<std::uint32_t>(n));
  c.write(res->valid, std::uint64_t{n == 64 ? ~0ull : ((1ull << n) - 1)});
}

/// Figure 6b: move every record into reserved keys, clear the segments.
/// Caller guarantees the live count fits the buffer.
template <class Ctx, class Leaf>
void compact_to_reserved(Ctx& c, Leaf* leaf) {
  auto all = gather_sorted(c, leaf);
  EUNO_ASSERT(all.size() <= static_cast<std::size_t>(Leaf::kFanout));
  auto* res = c.read(leaf->reserved);
  if (res == nullptr) {
    res = Leaf::ReservedT::alloc(c);
    c.write(leaf->reserved, res);
  }
  write_reserved(c, res, all.data(), all.size());
  for (int s = 0; s < Leaf::kSegments; ++s) c.write(leaf->segs[s].count, 0u);
}

/// Reads a leaf whose records already sit fully sorted in reserved keys.
/// Returns false if any segment holds records (slow path required).
template <class Ctx, class Leaf>
bool scan_fast_path(Ctx& c, Leaf* leaf, Key start, std::size_t max_items,
                    KV* out, std::size_t* got) {
  for (int s = 0; s < Leaf::kSegments; ++s) {
    if (c.read(leaf->segs[s].count) != 0) return false;
  }
  auto* res = c.read(leaf->reserved);
  if (res == nullptr) return true;  // empty leaf: nothing to emit
  const int n = static_cast<int>(c.read(res->count));
  const std::uint64_t valid = c.read(res->valid);
  for (int i = 0; i < n && *got < max_items; ++i) {
    if (!((valid >> i) & 1)) continue;
    const Key k = c.read(res->recs[i].key);
    if (k < start) continue;
    out[(*got)++] = KV{k, c.read(res->recs[i].value)};
  }
  return true;
}

/// Racy fill estimate used to pre-acquire the split lock (Alg. 2 line 39).
/// "Near full" means an insert is likely to *split*: the segments are
/// nearly exhausted and compaction cannot absorb them (total >= F). A leaf
/// whose records merely sit in reserved keys has plenty of segment room
/// and must not be treated as near-full, or every put would serialize on
/// the advisory lock forever.
template <class Ctx, class Leaf>
bool leaf_near_full(Ctx& c, Leaf* leaf) {
  constexpr int F = Leaf::kFanout;
  std::uint32_t in_segs = 0;
  for (int s = 0; s < Leaf::kSegments; ++s) in_segs += c.read(leaf->segs[s].count);
  const std::uint32_t seg_free = static_cast<std::uint32_t>(F) - in_segs;
  if (seg_free > static_cast<std::uint32_t>(Leaf::kSegments)) return false;
  std::uint32_t total = in_segs;
  auto* res = c.read(leaf->reserved);
  if (res != nullptr) {
    total += static_cast<std::uint32_t>(std::popcount(c.read(res->valid)));
  }
  return total >= static_cast<std::uint32_t>(F);
}

// ---- uninstrumented (quiesced) helpers ----

template <class Leaf>
std::size_t live_count_raw(const Leaf* leaf) {
  std::size_t total = 0;
  for (int s = 0; s < Leaf::kSegments; ++s) total += leaf->segs[s].count;
  if (leaf->reserved != nullptr) {
    total += static_cast<std::size_t>(std::popcount(leaf->reserved->valid));
  }
  return total;
}

template <class Leaf>
std::vector<Record> gather_raw(const Leaf* leaf) {
  std::vector<Record> all;
  for (int s = 0; s < Leaf::kSegments; ++s) {
    for (std::uint32_t i = 0; i < leaf->segs[s].count; ++i) {
      all.push_back(leaf->segs[s].recs[i]);
    }
  }
  if (leaf->reserved != nullptr) {
    for (std::uint32_t i = 0; i < leaf->reserved->count; ++i) {
      if ((leaf->reserved->valid >> i) & 1) {
        all.push_back(leaf->reserved->recs[i]);
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  return all;
}

template <class Leaf, class Fn>
void walk_leaves_rec(const void* node, std::uint32_t level, Fn&& fn) {
  if (level == 0) {
    fn(static_cast<const Leaf*>(node));
    return;
  }
  auto* in = static_cast<const typename Leaf::INodeT*>(node);
  for (std::uint32_t i = 0; i <= in->count; ++i) {
    walk_leaves_rec<Leaf>(in->children[i], level - 1, fn);
  }
}

template <class INode, class Fn>
void walk_inodes(const void* node, std::uint32_t level, Fn&& fn) {
  if (level == 0) return;
  auto* in = static_cast<const INode*>(node);
  fn(in);
  for (std::uint32_t i = 0; i <= in->count; ++i) {
    walk_inodes<INode>(in->children[i], level - 1, fn);
  }
}

template <class Leaf>
void collect_leaves(const void* node, std::uint32_t level,
                    std::vector<const Leaf*>* out) {
  walk_leaves_rec<Leaf>(node, level, [out](const Leaf* l) { out->push_back(l); });
}

}  // namespace euno::trees::node
