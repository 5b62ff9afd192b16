// Every concurrent tree the repo builds, spelled as one instantiation of the
// layered stack each: a node layout (trees/node/), a synchronization policy
// (sync/) and an algorithm body (trees/algo/). No algorithm code is specific
// to any alias below; the registry (trees/registry.hpp) names each one with
// its CLI slug. The compositions are ctx-call-for-ctx-call identical to the
// original monolithic implementations, held to byte-identical simulator
// results by `ctest -L golden`, and run under real RTM (NativeCtx) and on
// the simulated multicore (SimCtx) alike.
#pragma once

#include <memory>

#include "core/euno_config.hpp"
#include "sync/lock_coupling.hpp"
#include "sync/monolithic_htm.hpp"
#include "sync/olc.hpp"
#include "sync/rcu_htm.hpp"
#include "sync/three_path.hpp"
#include "trees/algo/bptree.hpp"
#include "trees/algo/euno_bptree.hpp"
#include "trees/algo/rcu_bptree.hpp"
#include "trees/common.hpp"
#include "trees/registry.hpp"

namespace euno::trees {

// HTM-B+Tree: the conventional HTM-protected concurrent B+Tree the paper
// analyses in §2.2 (the design from DBX, reused by DrTM and others). Every
// operation is one monolithic HTM region (Algorithm 1) with a subscribed
// global fallback lock and DBX-style retry thresholds. Leaves store records
// consecutively and sorted — the conventional layout the paper blames for
// false conflicts under contention (§2.3): four records share each cache
// line, every lookup reads the record lines it scans, every update writes
// the line holding its neighbours' keys, and every insert shifts records
// across many lines.
template <class Ctx, int F = kDefaultFanout>
using HtmBPTree = algo::BPlusTree<Ctx, sync::MonolithicHtmPolicy<Ctx>, F>;

// OLC-B+Tree: the fine-grained baseline the paper calls "Masstree" (§5.1),
// Masstree-style optimistic version validation realized as optimistic lock
// coupling (see sync/olc.hpp). This synchronization pattern is what costs
// Masstree the extra instructions the paper measures (a put checks or
// manipulates versions ~15 times while traversing). HTM-Masstree (§5.1
// baseline (3)) is the same tree with `htm_elide`: the whole operation runs
// in one HTM region with lock acquisitions elided, but version bumps on
// modification remain — those shared-variable writes are exactly why the
// paper finds HTM-Masstree "fails to scale after 8 cores".
template <class Ctx, int F = kDefaultFanout>
using OlcBPTree = algo::BPlusTree<Ctx, sync::OlcPolicy<Ctx>, F>;

// Lock-B+Tree: pessimistic hand-over-hand latching, the textbook
// pre-optimistic baseline. Useful as a contention floor: every node visit
// takes the node's latch, so hot interior nodes serialize all traffic
// through them regardless of HTM or leaf layout. It is the OLC algorithm
// body with a policy whose "stable_version" is a latch acquisition.
template <class Ctx, int F = kDefaultFanout>
using LockBPTree = algo::BPlusTree<Ctx, sync::LockCouplingPolicy<Ctx>, F>;

// RCU-HTM-B+Tree (Siakavaras et al.): epoch-pinned lock-free reads,
// privately built replacement subtrees, and a tiny HTM transaction that
// validates the traversed edge set and splices the copy in.
template <class Ctx, int F = kDefaultFanout>
using RcuBPTree = algo::RcuBPlusTree<Ctx, sync::RcuHtmPolicy<Ctx>, F>;

// 3Path-B+Tree: the optimistic body under Brown's three-path template — HTM
// fast path with fully elided version maintenance, HTM middle path with real
// version bumps, and an announced slow path the middle path interoperates
// with. The global fallback lock is reached only in the terminal (stage-2)
// degradation mode.
template <class Ctx, int F = kDefaultFanout>
using ThreePathBPTree = algo::BPlusTree<Ctx, sync::ThreePathPolicy<Ctx>, F>;

// Euno-B+Tree: the paper's primary contribution (§4), a concurrent B+Tree
// that stays scalable under contention by applying the four Eunomia design
// guidelines (split HTM regions, scattered leaf layout, conflict-control
// module, adaptive concurrency control). The S-segment partitioned leaf
// lives in trees/node/partitioned.hpp and the Eunomia policy (upper/lower
// regions, seqno stitch validation, CCM bits, adaptive bypass) in
// sync/euno_htm.hpp.
template <class Ctx, int F = kDefaultFanout, int S = 4>
using EunoBPTree = algo::EunoBPTree<Ctx, F, S>;

/// Registry factory for an Euno-B+Tree: each Euno registration (the full
/// tree, the Figure 13 ladder rungs, the checker-only segment-count variants
/// in check/euno_variants.hpp) is a segment count plus an EunoConfig preset.
template <class Ctx, int S, core::EunoConfig (*Preset)()>
std::unique_ptr<AnyTree<Ctx>> make_euno_bptree(Ctx& c,
                                               const TreeBuildOptions& o) {
  using Tree = EunoBPTree<Ctx, kDefaultFanout, S>;
  core::EunoConfig cfg = Preset();
  cfg.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, cfg); });
}

// String-key B+Trees: the consecutive-layout algorithm bodies instantiated
// with BytesKeyTraits (trees/key_traits.hpp). Each in-node record keeps an
// 8-byte big-endian prefix slice in the conventional Record::key slot (so
// every record-movement primitive — shift, split, SIMD probe — is shared
// verbatim with the u64 domain) and points at an immutable out-of-line
// BytesBox with the full key plus an optional payload. Updates swap the box
// pointer and retire the old box through the tree's EpochManager, which is
// what lets optimistic scans decode emitted boxes after leaf validation
// without revalidating.
//   - StrHtmBPTree: monolithic HTM region per op. The suffix tie-break reads
//     the box words inside the transaction, modelling the HTM read-set
//     inflation of long keys.
//   - StrMasstree: OLC, the natural fit, since Masstree is the canonical
//     variable-key design.
//   - StrLockBPTree: pessimistic lock coupling, the contention floor.
template <class Ctx, int F = kDefaultFanout>
using StrHtmBPTree = algo::BPlusTree<Ctx, sync::MonolithicHtmPolicy<Ctx>, F,
                                     node::BytesKeyTraits>;

template <class Ctx, int F = kDefaultFanout>
using StrMasstree =
    algo::BPlusTree<Ctx, sync::OlcPolicy<Ctx>, F, node::BytesKeyTraits>;

template <class Ctx, int F = kDefaultFanout>
using StrLockBPTree = algo::BPlusTree<Ctx, sync::LockCouplingPolicy<Ctx>, F,
                                      node::BytesKeyTraits>;

}  // namespace euno::trees
