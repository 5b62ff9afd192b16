// Registration of every built-in tree: CLI slug, display name (the
// exact strings manifests and golden fixtures compare), capability flags and
// the type-erased factories over both contexts. register_builtin_trees runs
// when the registry is constructed, so the builtins always come first, in
// this order, ahead of any EUNO_REGISTER_TREE entry from another TU.
//
// The factories reproduce the construction the driver's old hand-rolled
// dispatch switch performed, so dispatching through the registry is
// behaviorally invisible (bit-identical manifests).
#include "trees/registry.hpp"

#include <cstring>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/trees.hpp"

namespace euno::trees {
namespace {

template <class Ctx>
std::unique_ptr<AnyTree<Ctx>> make_htm_bptree(Ctx& c,
                                              const TreeBuildOptions& o) {
  using Tree = HtmBPTree<Ctx>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx, bool Elide>
std::unique_ptr<AnyTree<Ctx>> make_olc_bptree(Ctx& c,
                                              const TreeBuildOptions& o) {
  using Tree = OlcBPTree<Ctx>;
  typename Tree::Options opt;
  opt.htm_elide = Elide;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx>
std::unique_ptr<AnyTree<Ctx>> make_lock_bptree(Ctx& c,
                                               const TreeBuildOptions& o) {
  using Tree = LockBPTree<Ctx>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx>
std::unique_ptr<AnyTree<Ctx>> make_rcu_bptree(Ctx& c,
                                              const TreeBuildOptions& o) {
  using Tree = RcuBPTree<Ctx>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx>
std::unique_ptr<AnyTree<Ctx>> make_three_path_bptree(Ctx& c,
                                                     const TreeBuildOptions& o) {
  using Tree = ThreePathBPTree<Ctx>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

// ---- bytes-domain trees ----
//
// Each str tree registers twice over:
//   - make_sim_str/make_native_str expose the native string interface
//     (AnyStrTree) the driver's bytes-domain path and fig_scan use;
//   - make_sim/make_native wrap the same tree in an order-preserving u64
//     key codec, so the whole registry-driven conformance battery (oracle,
//     scan boundaries, chunked scans, concurrent stress, scan-during-splice)
//     applies to the bytes stack unchanged.
//
// The codec encodes a u64 as 12 bytes: a constant 4-byte tag followed by
// the key in big-endian. Lexicographic order of the encoding matches
// numeric order of the key, and — deliberately — every encoded key shares
// its first 4 bytes, so dense u64 test keys collide heavily in the 8-byte
// in-node prefix slice and force the suffix tie-break through the box on
// nearly every comparison. The u64 sweeps thereby stress exactly the paths
// the prefix slice would otherwise shortcut.
constexpr char kU64CodecTag[4] = {'u', '6', '4', ':'};
constexpr std::size_t kU64CodecLen = 12;

inline void u64_codec_encode(Key k, char* buf) {
  std::memcpy(buf, kU64CodecTag, 4);
  for (int i = 0; i < 8; ++i) {
    buf[4 + i] = static_cast<char>((k >> (56 - 8 * i)) & 0xff);
  }
}

inline Key u64_codec_decode(node::BytesView v) {
  Key k = 0;
  for (int i = 0; i < 8; ++i) {
    k = (k << 8) | static_cast<unsigned char>(v.data[4 + i]);
  }
  return k;
}

/// AnyTree (u64) adapter over a bytes-domain tree via the codec above. The
/// payload round-trips the value through the out-of-line block so the u64
/// suites also exercise ValueIndirection storage, not just key boxes.
template <class Ctx, class Tree>
class U64CodecStrTree final : public AnyTree<Ctx> {
 public:
  template <class Make>
  U64CodecStrTree(Ctx& c, Make&& make) : tree_(make(c)) {}

  bool get(Ctx& c, Key k, Value* v) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    return tree_.get(c, node::BytesView{buf, kU64CodecLen}, v);
  }
  void put(Ctx& c, Key k, Value v) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    char payload[8];
    for (int i = 0; i < 8; ++i) {
      payload[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    tree_.put(c, node::BytesView{buf, kU64CodecLen}, v,
              node::BytesView{payload, 8});
  }
  bool erase(Ctx& c, Key k) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    return tree_.erase(c, node::BytesView{buf, kU64CodecLen});
  }
  std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) override {
    char buf[kU64CodecLen];
    u64_codec_encode(start, buf);
    std::size_t got = 0;
    return tree_.scan(
        c, node::BytesView{buf, kU64CodecLen}, n,
        [&](node::BytesView key, Value v, node::BytesView) {
          out[got++] = KV{u64_codec_decode(key), v};
        });
  }
  void check_invariants() override { tree_.check_invariants(); }
  std::size_t size_slow() override { return tree_.size_slow(); }
  void destroy(Ctx& c) override { tree_.destroy(c); }

 private:
  Tree tree_;
};

template <class Ctx, template <class, int> class TreeT>
std::unique_ptr<AnyTree<Ctx>> make_str_codec(Ctx& c,
                                             const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<U64CodecStrTree<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx, template <class, int> class TreeT>
std::unique_ptr<AnyStrTree<Ctx>> make_str_tree(Ctx& c,
                                               const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyStrTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

TreeCaps figure_caps() {
  TreeCaps caps;
  caps.figure_default = true;
  return caps;
}

TreeCaps str_caps(bool has_fallback) {
  TreeCaps c;
  c.has_global_fallback = has_fallback;
  c.key_domain = KeyDomain::kBytes;
  return c;
}

}  // namespace

void register_builtin_trees(TreeRegistry& reg) {
  reg.add(TreeEntry{
      "htm-bptree", "HTM-B+Tree", figure_caps(),
      &make_htm_bptree<ctx::SimCtx>, &make_htm_bptree<ctx::NativeCtx>});

  reg.add(TreeEntry{
      "masstree", "Masstree",
      [] {
        TreeCaps c = figure_caps();
        c.has_global_fallback = false;  // plain OLC never touches the lock
        return c;
      }(),
      &make_olc_bptree<ctx::SimCtx, false>,
      &make_olc_bptree<ctx::NativeCtx, false>});

  reg.add(TreeEntry{
      "htm-masstree", "HTM-Masstree", figure_caps(),
      &make_olc_bptree<ctx::SimCtx, true>,
      &make_olc_bptree<ctx::NativeCtx, true>});

  reg.add(TreeEntry{
      "euno", "Euno-B+Tree", figure_caps(),
      &make_euno_bptree<ctx::SimCtx, 4, &core::EunoConfig::full>,
      &make_euno_bptree<ctx::NativeCtx, 4, &core::EunoConfig::full>});

  reg.add(TreeEntry{
      "euno-split", "+Split HTM", TreeCaps{},
      &make_euno_bptree<ctx::SimCtx, 1, &core::EunoConfig::split_only>,
      &make_euno_bptree<ctx::NativeCtx, 1, &core::EunoConfig::split_only>});

  reg.add(TreeEntry{
      "euno-part", "+Part Leaf", TreeCaps{},
      &make_euno_bptree<ctx::SimCtx, 4, &core::EunoConfig::split_only>,
      &make_euno_bptree<ctx::NativeCtx, 4, &core::EunoConfig::split_only>});

  reg.add(TreeEntry{
      "euno-lockbits", "+CCM lockbits", TreeCaps{},
      &make_euno_bptree<ctx::SimCtx, 4, &core::EunoConfig::with_lockbits>,
      &make_euno_bptree<ctx::NativeCtx, 4, &core::EunoConfig::with_lockbits>});

  reg.add(TreeEntry{
      "euno-markbits", "+CCM markbits", TreeCaps{},
      &make_euno_bptree<ctx::SimCtx, 4, &core::EunoConfig::with_markbits>,
      &make_euno_bptree<ctx::NativeCtx, 4, &core::EunoConfig::with_markbits>});

  reg.add(TreeEntry{
      "euno-adaptive", "+Adaptive", TreeCaps{},
      &make_euno_bptree<ctx::SimCtx, 4, &core::EunoConfig::full>,
      &make_euno_bptree<ctx::NativeCtx, 4, &core::EunoConfig::full>});

  // Post-refactor structures, registered after the original nine so the
  // pre-existing listing/sweep order (and with it the golden manifests for
  // those trees) is untouched.

  reg.add(TreeEntry{
      "lock-bptree", "Lock-B+Tree",
      [] { TreeCaps c; c.has_global_fallback = false; return c; }(),
      &make_lock_bptree<ctx::SimCtx>, &make_lock_bptree<ctx::NativeCtx>});

  reg.add(TreeEntry{
      "rcu-bptree", "RCU-HTM-B+Tree", figure_caps(),
      &make_rcu_bptree<ctx::SimCtx>, &make_rcu_bptree<ctx::NativeCtx>});

  reg.add(TreeEntry{
      "3path-bptree", "3Path-B+Tree",
      // The three-path template takes the global lock only in its terminal
      // (stage-2) degradation mode, never on the generic op path.
      [] { TreeCaps c = figure_caps(); c.has_global_fallback = false; return c; }(),
      &make_three_path_bptree<ctx::SimCtx>,
      &make_three_path_bptree<ctx::NativeCtx>});

  // Bytes-domain trees, registered last (same listing-order argument as
  // above). Not in the default figure sweeps — fig_common's four-tree u64
  // figures stay as-is; the scan-heavy bytes figures (bench/fig_scan) select
  // by key_domain. The lin harness checks them through the u64 codec above.

  reg.add(TreeEntry{
      "str-htm-bptree", "Str-HTM-B+Tree", str_caps(true),
      &make_str_codec<ctx::SimCtx, StrHtmBPTree>,
      &make_str_codec<ctx::NativeCtx, StrHtmBPTree>,
      &make_str_tree<ctx::SimCtx, StrHtmBPTree>,
      &make_str_tree<ctx::NativeCtx, StrHtmBPTree>});

  reg.add(TreeEntry{
      "str-masstree", "Str-Masstree", str_caps(false),
      &make_str_codec<ctx::SimCtx, StrMasstree>,
      &make_str_codec<ctx::NativeCtx, StrMasstree>,
      &make_str_tree<ctx::SimCtx, StrMasstree>,
      &make_str_tree<ctx::NativeCtx, StrMasstree>});

  reg.add(TreeEntry{
      "str-lock-bptree", "Str-Lock-B+Tree", str_caps(false),
      &make_str_codec<ctx::SimCtx, StrLockBPTree>,
      &make_str_codec<ctx::NativeCtx, StrLockBPTree>,
      &make_str_tree<ctx::SimCtx, StrLockBPTree>,
      &make_str_tree<ctx::NativeCtx, StrLockBPTree>});
}

}  // namespace euno::trees
