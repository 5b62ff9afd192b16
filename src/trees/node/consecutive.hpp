// Node/layout layer, consecutive variant: the two classic B+Tree node
// layouts — records packed sorted and adjacent — shared by every tree built
// from trees/algo/bptree.hpp.
//
//   - DbxNode: the DBX-style node (HTM-B+Tree). Header (is_leaf, count,
//     version, parent, next) shares its cache line with the first records —
//     the "pervasive shared metadata" layout §2.3 blames for false
//     conflicts. Carries a parent pointer because the monolithic algorithm
//     propagates splits bottom-up inside one transaction.
//   - VersionedNode: the Masstree/OLC-style node. An atomic version word
//     (bit 0 = writer lock, upper bits bumped per modification) leads the
//     node; the payload union is cache-line aligned. No parent pointer —
//     optimistic descent splits preemptively top-down.
//
// Both layouts are parameterized on a key-traits class (trees/key_traits.hpp):
// U64KeyTraits reproduces the historical fixed-width layout bit for bit
// (the default, so every pre-traits instantiation is unchanged), while
// BytesKeyTraits keeps the same two-word Record shape ({prefix slice, box
// pointer}) and adds a parallel separator-box array to interior nodes.
//
// The free functions below are the record-movement primitives both layouts
// share (identical field names, identical access sequences): binary search,
// sorted insert/remove with shifts, and the split record movement. Every
// memory access goes through the ctx, so these helpers cost exactly what the
// code they were factored out of cost — the golden-manifest fixture
// (`ctest -L golden`) holds this refactor to byte-identical results.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sim/line.hpp"
#include "trees/common.hpp"
#include "trees/key_traits.hpp"
#include "trees/node/simd_search.hpp"
#include "util/cacheline.hpp"
#include "util/memstats.hpp"

namespace euno::trees::node {

/// A leaf record: key and value adjacent, four records per cache line.
/// Bytes-domain leaves reuse the same shape — `key` holds the 8-byte prefix
/// slice, `value` the BytesBox pointer — so record movement is shared.
struct Record {
  Key key;
  Value value;
};

/// DBX-style node (monolithic-HTM trees). Layout is load-bearing: the
/// header — including the version number bumped on every modification —
/// shares its cache line with the first records.
template <int F, class KT = U64KeyTraits>
struct DbxNode {
  static constexpr int kFanout = F;
  using Traits = KT;

  std::uint32_t is_leaf = 0;
  std::uint32_t count = 0;
  std::uint64_t version = 0;  // bumped on every modification (DBX-style)
  DbxNode* parent = nullptr;
  DbxNode* next = nullptr;  // leaf chain

  union {
    Record recs[F];  // leaf payload
    typename KT::template Idx<F, DbxNode> idx;  // interior payload
  };

  template <class Ctx>
  static DbxNode* alloc(Ctx& c, bool is_leaf) {
    const MemClass cls = is_leaf ? MemClass::kLeafNode : MemClass::kInternalNode;
    auto* n =
        static_cast<DbxNode*>(c.alloc(sizeof(DbxNode), cls, sim::LineKind::kRecord));
    new (n) DbxNode();
    n->is_leaf = is_leaf ? 1 : 0;
    // Leaves are tagged kRecord throughout: the header shares the first
    // record line, so conflicts there are the paper's "different records on
    // the same cache line" false conflicts. Interior nodes are index
    // structure.
    if (!is_leaf) {
      c.tag_memory(n, sizeof(DbxNode), sim::LineKind::kTreeMeta);
    }
    c.note_node(n, sizeof(DbxNode), is_leaf ? 0 : 1);
    return n;
  }
};

/// Masstree/OLC-style node (optimistic and lock-coupling trees): version
/// word first, payload on its own cache line(s), no parent pointer.
template <int F, class KT = U64KeyTraits>
struct VersionedNode {
  static constexpr int kFanout = F;
  using Traits = KT;

  std::atomic<std::uint64_t> version{0};  // bit0 = locked; += 2 per change
  std::uint32_t is_leaf = 0;
  std::uint32_t count = 0;
  VersionedNode* next = nullptr;  // leaf chain

  union alignas(kCacheLineSize) {
    Record recs[F];
    typename KT::template Idx<F, VersionedNode> idx;
  };

  template <class Ctx>
  static VersionedNode* alloc(Ctx& c, bool is_leaf) {
    const MemClass cls = is_leaf ? MemClass::kLeafNode : MemClass::kInternalNode;
    auto* n = static_cast<VersionedNode*>(
        c.alloc(sizeof(VersionedNode), cls, sim::LineKind::kRecord));
    new (n) VersionedNode();
    n->is_leaf = is_leaf ? 1 : 0;
    c.tag_memory(n, kCacheLineSize,
                 is_leaf ? sim::LineKind::kLeafMeta : sim::LineKind::kTreeMeta);
    if (!is_leaf) c.tag_memory(&n->idx, sizeof(n->idx), sim::LineKind::kTreeMeta);
    c.note_node(n, sizeof(VersionedNode), is_leaf ? 0 : 1);
    return n;
  }
};

// ---- shared record-movement primitives ----

/// Prefetches the boxes of slots [lo, hi) when the range holds more than one
/// (each pointer read through the ctx): a run of equal prefix slices is about
/// to be binary-searched by suffix tie-break, and the probes would otherwise
/// miss on one box after another. A single box is compared at once.
template <class Ctx, class BoxAt>
void prefetch_run(Ctx& c, int lo, int hi, BoxAt&& box_at) {
  if (hi - lo < 2) return;
  for (int i = lo; i < hi; ++i) {
    c.prefetch(box_at(i), BytesBox::kPrefetchBytes);
  }
}

/// Index of the child subtree covering `key`: the number of separators
/// <= key (separators equal the first key of their right subtree).
/// Binary search, as in production trees. Raw-memory contexts (NativeCtx)
/// take the vectorized count_le instead — same result on the sorted
/// separator array; the instrumented path must stay per-element c.read()
/// because those accesses define the simulated cost model. Bytes-domain
/// nodes bound the equal-slice run with two count_le calls (slices <= and
/// < the key's), prefetch the run's separator boxes, and binary-search the
/// run by suffix tie-break.
template <class Traits = U64KeyTraits, class Ctx, class Node>
int child_index(Ctx& c, Node* n, const typename Traits::Arg& key) {
  if constexpr (ctx_raw_memory_v<Ctx>) {
    const int cnt = static_cast<int>(c.read(n->count));
    if constexpr (Traits::kIndirect) {
      const Key* keys = &n->idx.keys[0];
      int hi = simd::count_le(keys, cnt, key.prefix);
      int lo = key.prefix == 0 ? 0 : simd::count_le(keys, cnt, key.prefix - 1);
      const auto box_at = [&](int i) { return Traits::sep_box(c, n, i); };
      prefetch_run(c, lo, hi, box_at);
      // Separators in [lo, hi) share the key's slice: find the first whose
      // full key exceeds it.
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (box_key_compare(c, box_at(mid), key.data, key.len) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    } else {
      return simd::count_le(&n->idx.keys[0], cnt, key);
    }
  }
  int lo = 0, hi = static_cast<int>(c.read(n->count));
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (Traits::arg_ge_sep(c, n, mid, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Position of `key` in a leaf, or -1. Binary search over the sorted
/// records: every lookup probes the middle record lines, so operations on
/// *different* keys of one leaf share lines — the false-conflict surface
/// of §2.3. Raw-memory contexts locate the key's slice with find_eq_pairs;
/// bytes-domain leaves then walk forward over the in-node slices to the end
/// of the equal-slice run, prefetch its boxes and binary-search it by
/// suffix tie-break.
template <class Traits = U64KeyTraits, class Ctx, class Node>
int leaf_find(Ctx& c, Node* leaf, const typename Traits::Arg& key) {
  if constexpr (ctx_raw_memory_v<Ctx>) {
    static_assert(sizeof(Record) == 2 * sizeof(std::uint64_t) &&
                      offsetof(Record, key) == 0,
                  "find_eq_pairs assumes interleaved {key, value} u64 pairs");
    const int cnt = static_cast<int>(c.read(leaf->count));
    if constexpr (Traits::kIndirect) {
      // find_eq_pairs returns the first record of the run.
      int lo = simd::find_eq_pairs(
          reinterpret_cast<const std::uint64_t*>(&leaf->recs[0]), cnt,
          key.prefix);
      if (lo < 0) return -1;
      int hi = lo + 1;
      while (hi < cnt && c.read(leaf->recs[hi].key) == key.prefix) ++hi;
      const auto box_at = [&](int i) { return Traits::rec_box(c, leaf, i); };
      prefetch_run(c, lo, hi, box_at);
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        const int cmp = box_key_compare(c, box_at(mid), key.data, key.len);
        if (cmp == 0) return mid;
        if (cmp < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return -1;
    } else {
      return simd::find_eq_pairs(
          reinterpret_cast<const std::uint64_t*>(&leaf->recs[0]), cnt, key);
    }
  }
  int lo = 0, hi = static_cast<int>(c.read(leaf->count)) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const int cmp = Traits::cmp_rec_arg(c, leaf, mid, key);
    if (cmp == 0) return mid;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

template <class Ctx, class Node>
bool node_full(Ctx& c, Node* n) {
  return c.read(n->count) == static_cast<std::uint32_t>(Node::kFanout);
}

/// Sorted insert into a non-full leaf: position scan, record shift, count
/// bump. Publication (version bump / release) is the sync policy's job.
template <class Ctx, class Node>
void leaf_insert_sorted(Ctx& c, Node* leaf, Key key, Value value) {
  const int n = static_cast<int>(c.read(leaf->count));
  int pos = n;
  while (pos > 0 && c.read(leaf->recs[pos - 1].key) > key) --pos;
  for (int i = n; i > pos; --i) {
    c.write(leaf->recs[i].key, c.read(leaf->recs[i - 1].key));
    c.write(leaf->recs[i].value, c.read(leaf->recs[i - 1].value));
  }
  c.write(leaf->recs[pos].key, key);
  c.write(leaf->recs[pos].value, value);
  c.write(leaf->count, static_cast<std::uint32_t>(n + 1));
}

/// Traits form of the sorted insert: the payload was pre-built (a bytes
/// insert allocates its box before the op body). Access sequence for the
/// u64 traits is identical to the overload above.
template <class Traits, class Ctx, class Node>
void leaf_insert_sorted(Ctx& c, Node* leaf, typename Traits::Ins& ins) {
  const int n = static_cast<int>(c.read(leaf->count));
  int pos = n;
  while (pos > 0 && Traits::rec_gt_ins(c, leaf, pos - 1, ins)) --pos;
  for (int i = n; i > pos; --i) {
    c.write(leaf->recs[i].key, c.read(leaf->recs[i - 1].key));
    c.write(leaf->recs[i].value, c.read(leaf->recs[i - 1].value));
  }
  Traits::write_rec(c, leaf, pos, ins);
  c.write(leaf->count, static_cast<std::uint32_t>(n + 1));
}

/// Remove the record at `idx` by shifting its successors down.
template <class Ctx, class Node>
void leaf_remove_at(Ctx& c, Node* leaf, int idx) {
  const int n = static_cast<int>(c.read(leaf->count));
  for (int i = idx; i + 1 < n; ++i) {
    c.write(leaf->recs[i].key, c.read(leaf->recs[i + 1].key));
    c.write(leaf->recs[i].value, c.read(leaf->recs[i + 1].value));
  }
  c.write(leaf->count, static_cast<std::uint32_t>(n - 1));
}

/// Leaf split record movement: upper half moves to the freshly allocated
/// `right`, counts halve, `right` links into the leaf chain. Returns the
/// separator (first key of `right`; an owned out-of-line copy of it in the
/// bytes domain).
template <class Traits = U64KeyTraits, class Ctx, class Node>
typename Traits::Sep split_leaf_records(Ctx& c, Node* leaf, Node* right) {
  constexpr int kHalf = Node::kFanout / 2;
  for (int i = 0; i < kHalf; ++i) {
    c.write(right->recs[i].key, c.read(leaf->recs[kHalf + i].key));
    c.write(right->recs[i].value, c.read(leaf->recs[kHalf + i].value));
  }
  c.write(right->count, static_cast<std::uint32_t>(kHalf));
  c.write(leaf->count, static_cast<std::uint32_t>(kHalf));
  c.write(right->next, c.read(leaf->next));
  c.write(leaf->next, right);
  return Traits::read_sep_from_rec(c, right);
}

/// Interior split record movement: the middle separator is read out (it
/// moves up), keys/children above it move to `right`. `set_parent(child)`
/// runs per moved child, interleaved exactly where the parented layout
/// rewires child->parent (a no-op functor for parent-free layouts).
template <class Traits = U64KeyTraits, class Ctx, class Node, class SetParent>
typename Traits::Sep split_internal_records(Ctx& c, Node* node, Node* right,
                                            SetParent&& set_parent) {
  constexpr int F = Node::kFanout;
  constexpr int kHalf = F / 2;
  typename Traits::Sep mid = Traits::read_sep_at(c, node, kHalf);
  for (int i = kHalf + 1; i < F; ++i) {
    Traits::move_sep(c, right, i - kHalf - 1, node, i);
  }
  for (int i = kHalf + 1; i <= F; ++i) {
    Node* child = c.read(node->idx.children[i]);
    c.write(right->idx.children[i - kHalf - 1], child);
    set_parent(child);
  }
  c.write(right->count, static_cast<std::uint32_t>(F - kHalf - 1));
  c.write(node->count, static_cast<std::uint32_t>(kHalf));
  return mid;
}

/// Recursive teardown (quiesced; raw reads are fine). Indirect domains
/// free the out-of-line blocks each node owns before the node itself.
template <class Traits = U64KeyTraits, class Ctx, class Node>
void destroy_rec(Ctx& c, Node* n) {
  Traits::destroy_node_extras(c, n);
  if (!n->is_leaf) {
    for (std::uint32_t i = 0; i <= n->count; ++i) {
      destroy_rec<Traits>(c, n->idx.children[i]);
    }
  }
  c.free(n, sizeof(Node),
         n->is_leaf ? MemClass::kLeafNode : MemClass::kInternalNode);
}

template <class Node>
const Node* leftmost_leaf(const Node* root) {
  const Node* n = root;
  while (!n->is_leaf) n = n->idx.children[0];
  return n;
}

template <class Node>
int tree_height(const Node* root) {
  int h = 1;
  for (const Node* n = root; !n->is_leaf; n = n->idx.children[0]) ++h;
  return h;
}

}  // namespace euno::trees::node
