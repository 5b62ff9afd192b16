// Algorithm layer: ONE B+Tree — descent, leaf ops, split, scan — written
// against a synchronization-policy concept, a node layout supplied by that
// policy, and a key-traits class (trees/key_traits.hpp) that defines how
// keys and values are represented in the nodes. Every concrete
// consecutive-layout tree in the repo is an instantiation:
//
//   HtmBPTree     = BPlusTree<Ctx, sync::MonolithicHtmPolicy<Ctx>>   (DBX)
//   OlcBPTree     = BPlusTree<Ctx, sync::OlcPolicy<Ctx>>             (Masstree
//                                                           / HTM-Masstree)
//   LockBPTree    = BPlusTree<Ctx, sync::LockCouplingPolicy<Ctx>>
//   StrHtmBPTree  = BPlusTree<Ctx, ..., F, node::BytesKeyTraits>  (and the
//                   other str- variants: variable-length keys, out-of-line
//                   suffix/value boxes, epoch-reclaimed on update/erase)
//
// Policy concept:
//   struct Options;                      // ctor knobs (incl. RetryPolicy)
//   template <int F, class KT> using NodeT = ...;  // node layout
//   static constexpr bool kOptimistic;   // selects the algorithm body
//   void run(c, FallbackLock&, body);    // per-op wrapper (txn or direct)
//   // kOptimistic == false (monolithic transaction, bottom-up splits):
//   void publish(c, Node* leaf);         // version bump after a leaf change
//   // kOptimistic == true (top-down preemptive splits):
//   uint64 stable_version(c, Node*);     // stabilize (or latch) a node
//   bool try_upgrade/validate(c, Node*, v);
//   void release/release_bump(c, Node*, v);
//   void abandon(c, Node*, v);           // undo stable_version, nothing read
//   void on_advance/on_leaf_done(c, Node*, v);  // lock-transfer hooks
//   void on_scan_handoff(c, Node* prev, v);
//
// The two bodies are the pre-layering HtmBPTree and OlcBPTree with every
// key/value touch routed through the traits: for U64KeyTraits each hook
// inlines to the identical ctx call, in order, so simulated results are
// bit-identical — `ctest -L golden` enforces exactly that. For
// BytesKeyTraits the same bodies run over prefix slices with out-of-line
// suffix tie-breaks; ops pin the tree's epoch domain, and displaced boxes
// (update = pointer swap, erase) are retired to it after the op commits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "ctx/common.hpp"
#include "sim/line.hpp"
#include "trees/common.hpp"
#include "trees/key_traits.hpp"
#include "trees/node/consecutive.hpp"
#include "util/assert.hpp"
#include "util/epoch.hpp"
#include "util/memstats.hpp"

namespace euno::trees::algo {

template <class Ctx, class Policy, int F = kDefaultFanout,
          class Traits = node::U64KeyTraits>
class BPlusTree {
  static_assert(F >= 4 && F % 2 == 0, "fanout must be even and >= 4");

 public:
  using Options = typename Policy::Options;
  using Node = typename Policy::template NodeT<F, Traits>;
  using Arg = typename Traits::Arg;
  using Ins = typename Traits::Ins;
  using Sep = typename Traits::Sep;
  using Cursor = typename Traits::Cursor;

  /// Builds an empty tree. `c` is any context of the engine the tree will
  /// live on (used for shared-memory allocation).
  explicit BPlusTree(Ctx& c, Options opt = {}) : policy_(opt) {
    shared_ = static_cast<Shared*>(
        c.alloc(sizeof(Shared), MemClass::kTreeMisc, sim::LineKind::kTreeMeta));
    new (shared_) Shared();
    shared_->root = Node::alloc(c, /*is_leaf=*/true);
    c.tag_memory(&shared_->lock, sizeof(ctx::FallbackLock),
                 sim::LineKind::kFallbackLock);
    // Policies with tree-lifetime shared state (sync/three_path.hpp's
    // announce word) allocate it here; policies without the hooks compile
    // to exactly the pre-hook code.
    if constexpr (requires { policy_.attach(c); }) policy_.attach(c);
  }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Frees every node. Must be called quiesced (no concurrent operations).
  void destroy(Ctx& c) {
    if (shared_ == nullptr) return;
    if constexpr (requires { policy_.detach(c); }) policy_.detach(c);
    if constexpr (Traits::kIndirect) epoch_.drain_all();
    node::destroy_rec<Traits>(c, shared_->root);
    c.free(shared_, sizeof(Shared), MemClass::kTreeMisc);
    shared_ = nullptr;
  }

  /// Epoch-reclamation counters (bytes domain; test/diagnostic surface).
  std::uint64_t retired_boxes() const
    requires(Traits::kIndirect)
  {
    return epoch_.retired_count();
  }
  std::uint64_t freed_boxes() const
    requires(Traits::kIndirect)
  {
    return epoch_.freed_count();
  }

  // ---- u64-domain public interface (the original API, unchanged) ----

  /// Point lookup. Returns true and fills `*out` if `key` is present.
  bool get(Ctx& c, Key key, Value* out)
    requires(!Traits::kIndirect)
  {
    return get_impl(c, key, out);
  }

  /// Insert `key` or update its value if present (the paper's `put`).
  void put(Ctx& c, Key key, Value value)
    requires(!Traits::kIndirect)
  {
    Ins ins = Traits::make_ins(c, key, value);
    put_impl(c, key, ins);
  }

  /// Remove `key`. Returns true if it was present. Underfull leaves are not
  /// rebalanced eagerly (both modelled designs defer rebalance).
  bool erase(Ctx& c, Key key)
    requires(!Traits::kIndirect)
  {
    return erase_impl(c, key);
  }

  /// Range scan: collects up to `max_items` pairs with key >= `start`, in
  /// key order. Returns the number collected.
  std::size_t scan(Ctx& c, Key start, std::size_t max_items, KV* out)
    requires(!Traits::kIndirect)
  {
    return scan_impl<KV*>(c, start, max_items, out);
  }

  // ---- bytes-domain public interface ----
  // Each op pins the tree's epoch domain for its duration (c.tid() names
  // the pin slot), which is what keeps a captured box pointer decodable
  // while a concurrent update/erase retires the box.

  bool get(Ctx& c, node::BytesView key, Value* out)
    requires(Traits::kIndirect)
  {
    auto pin = epoch_.pin(c.tid());
    const Arg a = Traits::make_arg(key);
    return get_impl(c, a, out);
  }

  /// Insert or update. `payload` is the optional out-of-line value block
  /// (the ValueIndirection layout); the u64 `value` word is what get()
  /// returns. The box is built before the op body so no allocation happens
  /// inside a hardware transaction on this path.
  void put(Ctx& c, node::BytesView key, Value value,
           node::BytesView payload = {})
    requires(Traits::kIndirect)
  {
    auto pin = epoch_.pin(c.tid());
    const Arg a = Traits::make_arg(key);
    Ins ins = Traits::make_ins(c, a, value, payload);
    put_impl(c, a, ins);
  }

  bool erase(Ctx& c, node::BytesView key)
    requires(Traits::kIndirect)
  {
    auto pin = epoch_.pin(c.tid());
    const Arg a = Traits::make_arg(key);
    return erase_impl(c, a);
  }

  /// Range scan: emits records with key >= `start` in key order, up to
  /// `max_items`. The emit callback runs while the scan still holds its
  /// epoch pin and has validated the source leaf, so the views are safe to
  /// decode for the duration of the call (copy out to retain).
  std::size_t scan(Ctx& c, node::BytesView start, std::size_t max_items,
                   const node::StrEmitFn& emit)
    requires(Traits::kIndirect)
  {
    auto pin = epoch_.pin(c.tid());
    const Arg a = Traits::make_arg(start);
    return scan_impl<const node::StrEmitFn&>(c, a, max_items, emit);
  }

  // ---- uninstrumented verification (quiesced use only) ----

  /// Number of records. Walks the leaf chain without instrumentation.
  std::size_t size_slow() const {
    std::size_t n = 0;
    for (const Node* leaf = node::leftmost_leaf(shared_->root); leaf != nullptr;
         leaf = leaf->next) {
      n += leaf->count;
    }
    return n;
  }

  int height() const { return node::tree_height(shared_->root); }

  /// Structural invariants: sortedness, separator bounds, leaf-chain order,
  /// plus the layout's own health (parent links / unlocked versions).
  void check_invariants() const {
    if constexpr (Traits::kIndirect) {
      check_invariants_bytes();
      return;
    } else {
      Key prev = 0;
      bool first = true;
      for (const Node* leaf = node::leftmost_leaf(shared_->root);
           leaf != nullptr; leaf = leaf->next) {
        if constexpr (Policy::kOptimistic) {
          EUNO_ASSERT_MSG(
              (leaf->version.load(std::memory_order_relaxed) & 1) == 0,
              "no node may remain locked at quiescence");
        }
        for (std::uint32_t i = 0; i < leaf->count; ++i) {
          EUNO_ASSERT_MSG(first || leaf->recs[i].key > prev, "leaf keys ascend");
          prev = leaf->recs[i].key;
          first = false;
        }
      }
      if constexpr (Policy::kOptimistic) {
        check_node_flat(shared_->root, 0, ~0ull, true);
      } else {
        check_node_parented(shared_->root, nullptr, 0, ~0ull, true);
      }
    }
  }

 private:
  struct Shared {
    ctx::FallbackLock lock;
    Node* root = nullptr;
  };

  struct NoReclaim {
    struct Guard {};
    Guard pin(int) { return {}; }
  };

  // ------------------------------------------------------------------
  // Shared op bodies (both domains; U64KeyTraits hooks inline to the
  // historical ctx calls in the historical order).
  // ------------------------------------------------------------------

  bool get_impl(Ctx& c, const Arg& key, Value* out) {
    c.set_op_target(Traits::target(key));
    bool found = false;
    Value val = 0;
    policy_.run(c, shared_->lock, [&] {
      if constexpr (Policy::kOptimistic) {
        found = get_optimistic(c, key, &val);
      } else {
        found = false;
        Node* leaf = descend(c, key);
        const int idx = node::leaf_find<Traits>(c, leaf, key);
        if (idx >= 0) {
          found = true;
          val = Traits::load_value(c, leaf, idx);
        }
      }
    });
    c.clear_op_target();
    if (found && out != nullptr) *out = val;
    return found;
  }

  void put_impl(Ctx& c, const Arg& key, Ins& ins) {
    typename Traits::Scratch sc;
    c.set_op_target(Traits::target(key));
    policy_.run(c, shared_->lock, [&] {
      // The body can re-run (HTM abort, simulator retry): host-side
      // consumption/retirement state rolls back with it.
      Traits::op_begin(&ins, sc);
      if constexpr (Policy::kOptimistic) {
        put_optimistic(c, key, ins, sc);
      } else {
        Node* leaf = descend(c, key);
        const int idx = node::leaf_find<Traits>(c, leaf, key);
        if (idx >= 0) {
          Traits::replace_value(c, leaf, idx, ins, sc);
          policy_.publish(c, leaf);
          return;
        }
        insert_into_leaf(c, leaf, key, ins);
      }
    });
    c.clear_op_target();
    Traits::op_end(c, epoch_, c.tid(), &ins, sc);
  }

  bool erase_impl(Ctx& c, const Arg& key) {
    typename Traits::Scratch sc;
    c.set_op_target(Traits::target(key));
    bool removed = false;
    policy_.run(c, shared_->lock, [&] {
      Traits::op_begin(nullptr, sc);
      if constexpr (Policy::kOptimistic) {
        removed = erase_optimistic(c, key, sc);
      } else {
        removed = false;
        Node* leaf = descend(c, key);
        const int idx = node::leaf_find<Traits>(c, leaf, key);
        if (idx < 0) return;
        Traits::note_erase(c, leaf, idx, sc);
        node::leaf_remove_at(c, leaf, idx);
        policy_.publish(c, leaf);
        removed = true;
      }
    });
    c.clear_op_target();
    Traits::op_end(c, epoch_, c.tid(), nullptr, sc);
    return removed;
  }

  template <class Dst>
  std::size_t scan_impl(Ctx& c, const Arg& start, std::size_t max_items,
                        Dst out) {
    c.set_op_target(Traits::target(start));
    std::size_t got = 0;
    const Cursor cursor = Traits::make_cursor(start);
    if constexpr (!Policy::kOptimistic && Traits::kIndirect) {
      // Deferred-emit monolithic scan. The emit callback is a host-side
      // effect: it must fire exactly once per record, but the transaction
      // body re-executes on abort. So the region only collects box
      // pointers; emission happens after commit — safe because the caller
      // holds the epoch pin and boxes are immutable after publication.
      auto tmp = std::make_unique<typename Traits::ScanTmp[]>(max_items);
      std::size_t tn = 0;
      policy_.run(c, shared_->lock, [&] {
        tn = 0;  // re-run safety: the probe buffer rolls back with the txn
        Node* leaf = descend(c, start);
        while (leaf != nullptr && tn < max_items) {
          const int n = static_cast<int>(c.read(leaf->count));
          for (int i = 0; i < n && tn < max_items; ++i) {
            Traits::scan_probe(c, leaf, i, cursor, tmp.get(), tn);
          }
          leaf = c.read(leaf->next);
        }
      });
      Cursor cur = cursor;
      for (std::size_t i = 0; i < tn; ++i) {
        Traits::commit_emit(c, tmp[i], out, got, cur);
      }
    } else {
      policy_.run(c, shared_->lock, [&] {
        if constexpr (Policy::kOptimistic) {
          got = scan_optimistic<Dst>(c, cursor, max_items, out);
        } else {
          got = 0;
          Node* leaf = descend(c, start);
          while (leaf != nullptr && got < max_items) {
            const int n = static_cast<int>(c.read(leaf->count));
            for (int i = 0; i < n && got < max_items; ++i) {
              Traits::scan_step(c, leaf, i, cursor, out, got);
            }
            leaf = c.read(leaf->next);
          }
        }
      });
    }
    c.clear_op_target();
    return got;
  }

  // ------------------------------------------------------------------
  // Monolithic body (Algorithm 1): one transaction, bottom-up splits via
  // parent pointers. Only instantiated for kOptimistic == false policies
  // (whose node layout carries `parent`).
  // ------------------------------------------------------------------

  /// Transactional root-to-leaf traversal (Algorithm 1, lines 6-8).
  Node* descend(Ctx& c, const Arg& key) {
    Node* node = c.read(shared_->root);
    while (c.read(node->is_leaf) == 0) {
      Node* child =
          c.read(node->idx.children[node::child_index<Traits>(c, node, key)]);
      // Issue the child's lines together: the in-node search would demand
      // them one at a time behind its compare chain.
      c.prefetch(child, sizeof(*child));
      node = child;
    }
    return node;
  }

  /// Sorted insert with record shift; splits when full (Alg. 1, lines 15-19).
  void insert_into_leaf(Ctx& c, Node* leaf, const Arg& key, Ins& ins) {
    if (c.read(leaf->count) == static_cast<std::uint32_t>(F)) {
      leaf = split_leaf(c, leaf, key);
    }
    node::leaf_insert_sorted<Traits>(c, leaf, ins);
    policy_.publish(c, leaf);
  }

  /// Splits a full leaf; returns the half that should receive `key`.
  Node* split_leaf(Ctx& c, Node* leaf, const Arg& key) {
    Node* right = Node::alloc(c, /*is_leaf=*/true);
    const Sep sep = node::split_leaf_records<Traits>(c, leaf, right);
    const bool go_right = Traits::arg_ge_sep_val(key, sep);
    insert_into_parent(c, leaf, sep, right);
    return go_right ? right : leaf;
  }

  /// Inserts separator/right-child into the parent, splitting interior
  /// nodes upward as needed (Algorithm 1, lines 17-19).
  void insert_into_parent(Ctx& c, Node* left, const Sep& sep, Node* right) {
    Node* parent = c.read(left->parent);
    if (parent == nullptr) {
      Node* new_root = Node::alloc(c, /*is_leaf=*/false);
      Traits::write_sep(c, new_root, 0, sep);
      c.write(new_root->idx.children[0], left);
      c.write(new_root->idx.children[1], right);
      c.write(new_root->count, 1u);
      c.write(left->parent, new_root);
      c.write(right->parent, new_root);
      c.write(shared_->root, new_root);
      return;
    }
    if (c.read(parent->count) == static_cast<std::uint32_t>(F)) {
      parent = split_internal(c, parent, sep);
    }
    const int n = static_cast<int>(c.read(parent->count));
    int pos = n;
    while (pos > 0 && Traits::sep_gt(c, parent, pos - 1, sep)) --pos;
    for (int i = n; i > pos; --i) {
      Traits::shift_sep(c, parent, i, i - 1);
      c.write(parent->idx.children[i + 1], c.read(parent->idx.children[i]));
    }
    Traits::write_sep(c, parent, pos, sep);
    c.write(parent->idx.children[pos + 1], right);
    c.write(parent->count, static_cast<std::uint32_t>(n + 1));
    c.write(right->parent, parent);
    // `left` already points at this parent.
  }

  /// Splits a full interior node; returns the half that should receive a
  /// separator equal to `sep`.
  Node* split_internal(Ctx& c, Node* node, const Sep& sep) {
    Node* right = Node::alloc(c, /*is_leaf=*/false);
    const Sep mid = node::split_internal_records<Traits>(
        c, node, right, [&](Node* child) { c.write(child->parent, right); });
    const bool go_right = Traits::sep_ge_sep_val(sep, mid);
    insert_into_parent(c, node, mid, right);
    return go_right ? right : node;
  }

  // ------------------------------------------------------------------
  // Optimistic body: version-validated descent, preemptive top-down splits.
  // The policy hooks make the same body serve true OLC (hooks empty) and
  // pessimistic coupling (hooks transfer latches); all !validate branches
  // are dead code under coupling, where validate is constant true.
  // ------------------------------------------------------------------

  bool get_optimistic(Ctx& c, const Arg& key, Value* val) {
    for (;;) {
      Node* node = c.read(shared_->root);
      std::uint64_t v = policy_.stable_version(c, node);
      if (node != c.read(shared_->root)) {  // root swapped
        policy_.abandon(c, node, v);
        continue;
      }

      bool restart = false;
      while (c.read(node->is_leaf) == 0) {
        const int idx = node::child_index<Traits>(c, node, key);
        Node* child = c.read(node->idx.children[idx]);
        c.prefetch(child, sizeof(*child));  // overlaps the validations below
        if (!policy_.validate(c, node, v)) {
          restart = true;
          break;
        }
        const std::uint64_t vc = policy_.stable_version(c, child);
        if (!policy_.validate(c, node, v)) {
          restart = true;
          break;
        }
        policy_.on_advance(c, node, v);
        node = child;
        v = vc;
      }
      if (restart) continue;

      const int idx = node::leaf_find<Traits>(c, node, key);
      bool found = false;
      Value out = 0;
      if (idx >= 0) {
        found = true;
        out = Traits::load_value(c, node, idx);
      }
      if (!policy_.validate(c, node, v)) continue;
      policy_.on_leaf_done(c, node, v);
      *val = out;
      return found;
    }
  }

  void put_optimistic(Ctx& c, const Arg& key, Ins& ins,
                      typename Traits::Scratch& sc) {
    for (;;) {
      Node* node = c.read(shared_->root);
      std::uint64_t v = policy_.stable_version(c, node);
      if (node != c.read(shared_->root)) {
        policy_.abandon(c, node, v);
        continue;
      }

      // Full root (leaf or interior): grow the tree.
      if (node::node_full(c, node)) {
        if (!policy_.validate(c, node, v)) continue;
        if (!policy_.try_upgrade(c, node, v)) continue;
        grow_root(c, node, v);
        continue;
      }

      if (descend_and_insert(c, node, v, key, ins, sc)) return;
    }
  }

  /// Descend from a stabilized non-full `node`, splitting full children on
  /// the way down. Returns false to restart from the root.
  bool descend_and_insert(Ctx& c, Node* node, std::uint64_t v, const Arg& key,
                          Ins& ins, typename Traits::Scratch& sc) {
    while (c.read(node->is_leaf) == 0) {
      const int idx = node::child_index<Traits>(c, node, key);
      Node* child = c.read(node->idx.children[idx]);
      c.prefetch(child, sizeof(*child));
      if (!policy_.validate(c, node, v)) return false;
      std::uint64_t vc = policy_.stable_version(c, child);
      if (!policy_.validate(c, node, v)) return false;

      if (node::node_full(c, child)) {
        // Preemptive split: lock parent then child (try-lock only — a
        // failure releases everything and restarts, so no deadlock).
        if (!policy_.try_upgrade(c, node, v)) return false;
        if (!policy_.validate(c, child, vc) ||
            !policy_.try_upgrade(c, child, vc)) {
          policy_.release(c, node, v);
          return false;
        }
        split_child(c, node, idx, child);
        policy_.release_bump(c, child, vc | 1);
        policy_.release_bump(c, node, v | 1);
        return false;  // restart (either half may now host the key)
      }
      policy_.on_advance(c, node, v);
      node = child;
      v = vc;
    }

    // At a non-full (when last checked) leaf.
    if (!policy_.try_upgrade(c, node, v)) return false;
    if (node::node_full(c, node)) {
      // Filled up since the parent's check; restart — the parent pass will
      // split it preemptively.
      policy_.release(c, node, v);
      return false;
    }
    const int idx = node::leaf_find<Traits>(c, node, key);
    if (idx >= 0) {
      Traits::replace_value(c, node, idx, ins, sc);
    } else {
      node::leaf_insert_sorted<Traits>(c, node, ins);
    }
    policy_.release_bump(c, node, v | 1);
    return true;
  }

  /// Splits locked full `child` (position `idx` under locked `node`).
  void split_child(Ctx& c, Node* node, int idx, Node* child) {
    Node* right = Node::alloc(c, c.read(child->is_leaf) != 0);
    Sep sep;
    if (c.read(child->is_leaf) != 0) {
      sep = node::split_leaf_records<Traits>(c, child, right);
    } else {
      sep = node::split_internal_records<Traits>(c, child, right, [](Node*) {});
    }
    // Insert (sep, right) into the (locked, non-full) parent.
    const int n = static_cast<int>(c.read(node->count));
    for (int i = n; i > idx; --i) {
      Traits::shift_sep(c, node, i, i - 1);
      c.write(node->idx.children[i + 1], c.read(node->idx.children[i]));
    }
    Traits::write_sep(c, node, idx, sep);
    c.write(node->idx.children[idx + 1], right);
    c.write(node->count, static_cast<std::uint32_t>(n + 1));
  }

  /// Splits the locked full root and installs a new root above it.
  void grow_root(Ctx& c, Node* root, std::uint64_t v) {
    Node* new_root = Node::alloc(c, /*is_leaf=*/false);
    c.write(new_root->count, 0u);
    c.write(new_root->idx.children[0], root);
    // Treat the old root as child 0 of the fresh root and split it there.
    split_child(c, new_root, 0, root);
    c.write(shared_->root, new_root);
    policy_.release_bump(c, root, v | 1);
  }

  bool erase_optimistic(Ctx& c, const Arg& key, typename Traits::Scratch& sc) {
    for (;;) {
      Node* node = c.read(shared_->root);
      std::uint64_t v = policy_.stable_version(c, node);
      if (node != c.read(shared_->root)) {
        policy_.abandon(c, node, v);
        continue;
      }

      bool restart = false;
      while (c.read(node->is_leaf) == 0) {
        const int idx = node::child_index<Traits>(c, node, key);
        Node* child = c.read(node->idx.children[idx]);
        c.prefetch(child, sizeof(*child));  // overlaps the validations below
        if (!policy_.validate(c, node, v)) {
          restart = true;
          break;
        }
        const std::uint64_t vc = policy_.stable_version(c, child);
        if (!policy_.validate(c, node, v)) {
          restart = true;
          break;
        }
        policy_.on_advance(c, node, v);
        node = child;
        v = vc;
      }
      if (restart) continue;

      const int idx = node::leaf_find<Traits>(c, node, key);
      if (idx < 0) {
        if (!policy_.validate(c, node, v)) continue;
        policy_.on_leaf_done(c, node, v);
        return false;
      }
      if (!policy_.try_upgrade(c, node, v)) continue;
      // Re-find under the lock: the optimistic position may be stale.
      const int li = node::leaf_find<Traits>(c, node, key);
      if (li < 0) {
        policy_.release(c, node, v);
        return false;
      }
      Traits::note_erase(c, node, li, sc);
      node::leaf_remove_at(c, node, li);
      policy_.release_bump(c, node, v | 1);
      return true;
    }
  }

  template <class Dst>
  std::size_t scan_optimistic(Ctx& c, const Cursor& start,
                              std::size_t max_items, Dst out) {
    std::size_t got = 0;
    Cursor cursor = start;
    Node* leaf = nullptr;
    std::uint64_t v = 0;

    // Locate the first leaf optimistically.
    const Arg carg = Traits::cursor_arg(cursor);
    for (;;) {
      Node* node = c.read(shared_->root);
      std::uint64_t vn = policy_.stable_version(c, node);
      if (node != c.read(shared_->root)) {
        policy_.abandon(c, node, vn);
        continue;
      }
      bool restart = false;
      while (c.read(node->is_leaf) == 0) {
        const int idx = node::child_index<Traits>(c, node, carg);
        Node* child = c.read(node->idx.children[idx]);
        c.prefetch(child, sizeof(*child));
        if (!policy_.validate(c, node, vn)) {
          restart = true;
          break;
        }
        const std::uint64_t vc = policy_.stable_version(c, child);
        if (!policy_.validate(c, node, vn)) {
          restart = true;
          break;
        }
        policy_.on_advance(c, node, vn);
        node = child;
        vn = vc;
      }
      if (restart) continue;
      leaf = node;
      v = vn;
      break;
    }

    while (leaf != nullptr && got < max_items) {
      // Copy candidates, validate, then commit them to the output.
      typename Traits::ScanTmp tmp[F];
      std::size_t tn = 0;
      const int n = static_cast<int>(c.read(leaf->count));
      for (int i = 0; i < n; ++i) {
        Traits::scan_probe(c, leaf, i, cursor, tmp, tn);
      }
      Node* next = c.read(leaf->next);
      if (!policy_.validate(c, leaf, v)) {
        // Re-locate from the cursor; nothing emitted from this attempt.
        std::size_t sub = scan_optimistic<Dst>(c, cursor, max_items - got,
                                               Traits::sub_dst(out, got));
        return got + sub;
      }
      for (std::size_t i = 0; i < tn && got < max_items; ++i) {
        Traits::commit_emit(c, tmp[i], out, got, cursor);
      }
      Node* prev = leaf;
      const std::uint64_t pv = v;
      leaf = next;
      if (leaf != nullptr) v = policy_.stable_version(c, leaf);
      policy_.on_scan_handoff(c, prev, pv);
    }
    if (leaf != nullptr) policy_.on_leaf_done(c, leaf, v);
    return got;
  }

  // ---- uninstrumented structural checks ----

  void check_node_parented(const Node* n, const Node* parent, Key lo, Key hi,
                           bool lo_open) const {
    EUNO_ASSERT(n->parent == parent);
    EUNO_ASSERT(n->count <= static_cast<std::uint32_t>(F));
    if (n->is_leaf) {
      for (std::uint32_t i = 0; i + 1 < n->count; ++i) {
        EUNO_ASSERT_MSG(n->recs[i].key < n->recs[i + 1].key, "leaf keys ascend");
      }
      for (std::uint32_t i = 0; i < n->count; ++i) {
        EUNO_ASSERT_MSG(lo_open || n->recs[i].key >= lo, "key below bound");
        EUNO_ASSERT_MSG(n->recs[i].key < hi, "key above bound");
      }
      return;
    }
    EUNO_ASSERT_MSG(n->count >= 1, "interior node must have a separator");
    for (std::uint32_t i = 0; i + 1 < n->count; ++i) {
      EUNO_ASSERT_MSG(n->idx.keys[i] < n->idx.keys[i + 1], "node keys ascend");
    }
    for (std::uint32_t i = 0; i < n->count; ++i) {
      EUNO_ASSERT_MSG(lo_open || n->idx.keys[i] >= lo, "key below bound");
      EUNO_ASSERT_MSG(n->idx.keys[i] < hi, "key above bound");
    }
    for (std::uint32_t i = 0; i <= n->count; ++i) {
      const Key child_lo = (i == 0) ? lo : n->idx.keys[i - 1];
      const Key child_hi = (i == n->count) ? hi : n->idx.keys[i];
      check_node_parented(n->idx.children[i], n, child_lo, child_hi,
                          lo_open && i == 0);
    }
  }

  void check_node_flat(const Node* n, Key lo, Key hi, bool lo_open) const {
    EUNO_ASSERT(n->count <= static_cast<std::uint32_t>(F));
    if (n->is_leaf) {
      for (std::uint32_t i = 0; i < n->count; ++i) {
        EUNO_ASSERT_MSG(lo_open || n->recs[i].key >= lo, "key below bound");
        EUNO_ASSERT_MSG(n->recs[i].key < hi, "key above bound");
        EUNO_ASSERT_MSG(i == 0 || n->recs[i].key > n->recs[i - 1].key,
                        "leaf keys ascend");
      }
      return;
    }
    EUNO_ASSERT(n->count >= 1);
    for (std::uint32_t i = 0; i < n->count; ++i) {
      EUNO_ASSERT_MSG(i == 0 || n->idx.keys[i] > n->idx.keys[i - 1],
                      "inode keys ascend");
      EUNO_ASSERT_MSG(lo_open || n->idx.keys[i] >= lo, "separator below bound");
      EUNO_ASSERT_MSG(n->idx.keys[i] < hi, "separator above bound");
    }
    for (std::uint32_t i = 0; i <= n->count; ++i) {
      const Key child_lo = (i == 0) ? lo : n->idx.keys[i - 1];
      const Key child_hi = (i == n->count) ? hi : n->idx.keys[i];
      check_node_flat(n->idx.children[i], child_lo, child_hi, lo_open && i == 0);
    }
  }

  // Bytes-domain checks: full-key order via the out-of-line boxes (raw
  // reads — quiesced), prefix-slice consistency, and the same structural
  // rules as the u64 checks with byte-string bounds.

  struct RawBound {
    const char* data = nullptr;
    std::size_t len = 0;
  };

  static RawBound raw_rec_key(const Node* n, std::uint32_t i) {
    const auto* b = reinterpret_cast<const node::BytesBox*>(n->recs[i].value);
    return RawBound{b->key_data(), b->klen()};
  }
  static RawBound raw_sep_key(const Node* n, std::uint32_t i) {
    const node::BytesBox* b = n->idx.seps[i];
    return RawBound{b->key_data(), b->klen()};
  }
  static int raw_cmp(RawBound a, RawBound b) {
    return node::bytes_compare(a.data, a.len, b.data, b.len);
  }

  void check_invariants_bytes() const {
    RawBound prev;
    bool first = true;
    for (const Node* leaf = node::leftmost_leaf(shared_->root); leaf != nullptr;
         leaf = leaf->next) {
      if constexpr (Policy::kOptimistic) {
        EUNO_ASSERT_MSG(
            (leaf->version.load(std::memory_order_relaxed) & 1) == 0,
            "no node may remain locked at quiescence");
      }
      for (std::uint32_t i = 0; i < leaf->count; ++i) {
        const RawBound k = raw_rec_key(leaf, i);
        EUNO_ASSERT_MSG(first || raw_cmp(k, prev) > 0, "leaf keys ascend");
        EUNO_ASSERT_MSG(
            leaf->recs[i].key == node::bytes_prefix(k.data, k.len),
            "record prefix slice matches its box key");
        prev = k;
        first = false;
      }
    }
    check_node_bytes(shared_->root, nullptr, RawBound{}, true, RawBound{},
                     true);
  }

  void check_node_bytes(const Node* n, const Node* parent, RawBound lo,
                        bool lo_open, RawBound hi, bool hi_open) const {
    if constexpr (!Policy::kOptimistic) {
      EUNO_ASSERT(n->parent == parent);
    } else {
      (void)parent;
    }
    EUNO_ASSERT(n->count <= static_cast<std::uint32_t>(F));
    const auto in_bounds = [&](RawBound k) {
      EUNO_ASSERT_MSG(lo_open || raw_cmp(k, lo) >= 0, "key below bound");
      EUNO_ASSERT_MSG(hi_open || raw_cmp(k, hi) < 0, "key above bound");
    };
    if (n->is_leaf) {
      for (std::uint32_t i = 0; i < n->count; ++i) {
        const RawBound k = raw_rec_key(n, i);
        in_bounds(k);
        EUNO_ASSERT_MSG(i == 0 || raw_cmp(k, raw_rec_key(n, i - 1)) > 0,
                        "leaf keys ascend");
      }
      return;
    }
    EUNO_ASSERT_MSG(n->count >= 1, "interior node must have a separator");
    for (std::uint32_t i = 0; i < n->count; ++i) {
      const RawBound k = raw_sep_key(n, i);
      in_bounds(k);
      EUNO_ASSERT_MSG(i == 0 || raw_cmp(k, raw_sep_key(n, i - 1)) > 0,
                      "node keys ascend");
      EUNO_ASSERT_MSG(n->idx.keys[i] == node::bytes_prefix(k.data, k.len),
                      "separator prefix slice matches its box key");
    }
    for (std::uint32_t i = 0; i <= n->count; ++i) {
      const RawBound child_lo = (i == 0) ? lo : raw_sep_key(n, i - 1);
      const RawBound child_hi = (i == n->count) ? hi : raw_sep_key(n, i);
      check_node_bytes(n->idx.children[i], n, child_lo, lo_open && i == 0,
                       child_hi, hi_open && i == n->count);
    }
  }

  Policy policy_;
  Shared* shared_ = nullptr;
  /// Bytes-domain epoch reclamation domain (one per tree instance, like
  /// Euno-B+Tree's). Empty for direct-value domains.
  [[no_unique_address]] std::conditional_t<Traits::kIndirect, EpochManager,
                                           NoReclaim> epoch_;
};

}  // namespace euno::trees::algo
