// Key/value-traits layer: the one place that knows how a key domain is
// represented inside the consecutive node layouts and the shared B+Tree
// algorithm (DESIGN.md §16).
//
//   - U64KeyTraits: the original fixed-width domain. Every trait hook
//     compiles to exactly the pre-traits access sequence (one c.read per
//     compare, paired key/value writes), so the u64 instantiations remain
//     bit-identical — `ctest -L golden` holds all 36 golden manifests to
//     byte equality across this refactor.
//   - BytesKeyTraits: variable-length keys via Masstree-style slicing. Each
//     leaf record keeps the u64 Record shape — {8-byte big-endian prefix
//     slice, pointer-to-BytesBox} — so every record-movement primitive
//     (shift, split, remove) is shared verbatim with the u64 domain. The
//     full key + payload live out of line in an immutable BytesBox; prefix
//     compares resolve most probes in-node, equal prefixes fall back to an
//     instrumented word-wise suffix compare against the box. That fallback
//     is the experiment: suffix compares inflate an HTM region's read set,
//     which is exactly the capacity-abort trade the paper never measures.
//
// Value indirection rides in the same box: a u64 value word plus an
// optional out-of-line payload. Updates swap the record's box pointer and
// epoch-retire the old box (boxes are immutable after publication), so a
// concurrent reader that captured the old pointer under its epoch pin can
// keep decoding it (util/epoch.hpp frees a retiree only once every thread
// has moved past the epoch it was retired in).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "sim/line.hpp"
#include "trees/common.hpp"
#include "util/assert.hpp"
#include "util/memstats.hpp"

namespace euno::trees {

/// Which key representation a tree instance serves (registry capability).
enum class KeyDomain : std::uint8_t { kU64 = 0, kBytes = 1 };

constexpr const char* key_domain_name(KeyDomain d) {
  return d == KeyDomain::kBytes ? "bytes" : "u64";
}

namespace node {

/// Non-owning byte-string reference (the bytes-domain key argument).
struct BytesView {
  const char* data = nullptr;
  std::size_t len = 0;

  BytesView() = default;
  BytesView(const char* d, std::size_t n) : data(d), len(n) {}
  explicit BytesView(const std::string& s) : data(s.data()), len(s.size()) {}

  std::string to_string() const { return std::string(data, len); }
};

/// Three-way lexicographic byte compare (length breaks ties).
inline int bytes_compare(const char* a, std::size_t an, const char* b,
                         std::size_t bn) {
  const std::size_t n = an < bn ? an : bn;
  const int c = n == 0 ? 0 : std::memcmp(a, b, n);
  if (c != 0) return c;
  if (an == bn) return 0;
  return an < bn ? -1 : 1;
}

/// First-8-bytes slice of a key, big-endian packed and zero padded, so that
/// u64 comparison of slices is a monotone coarsening of the full
/// lexicographic order: a < b implies slice(a) <= slice(b), and any strict
/// slice inequality decides the full compare. Equal slices (shared prefix,
/// or short keys) require the out-of-line suffix tie-break.
inline std::uint64_t bytes_prefix(const char* p, std::size_t n) {
  std::uint64_t v = 0;
  const std::size_t k = n < 8 ? n : 8;
  for (std::size_t i = 0; i < k; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (56 - 8 * i);
  }
  return v;
}

inline std::uint64_t bytes_prefix(BytesView v) {
  return bytes_prefix(v.data, v.len);
}

/// Big-endian packed u64 of up to 8 key bytes starting at `off` (the word
/// the suffix tie-break compares against a box's padded key words).
inline std::uint64_t bytes_word_at(const char* p, std::size_t n,
                                   std::size_t off) {
  if (off >= n) return 0;
  return bytes_prefix(p + off, n - off);
}

/// Out-of-line block for one bytes-domain record: the full key, the u64
/// value word, and an optional large payload (the ValueIndirection layout).
/// Immutable after publication; replaced wholesale (pointer swap +
/// epoch-retire) on update. Key and payload are stored zero-padded to
/// 8-byte words so instrumented readers touch whole words — exactly the
/// granularity that lands in an HTM read set.
struct BytesBox {
  std::uint64_t meta = 0;   // klen | (vlen << 32)
  std::uint64_t value = 0;  // the u64 value word get() returns

  static constexpr std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
  static std::size_t size_for(std::size_t klen, std::size_t vlen) {
    return sizeof(BytesBox) + pad8(klen) + pad8(vlen);
  }

  std::size_t klen() const { return static_cast<std::uint32_t>(meta); }
  std::size_t vlen() const { return static_cast<std::size_t>(meta >> 32); }
  std::size_t size() const { return size_for(klen(), vlen()); }

  const char* key_data() const {
    return reinterpret_cast<const char*>(this) + sizeof(BytesBox);
  }
  const char* payload_data() const { return key_data() + pad8(klen()); }
  BytesView key() const { return BytesView{key_data(), klen()}; }
  BytesView payload() const { return BytesView{payload_data(), vlen()}; }

  /// The i-th padded key word, big-endian repacked for u64 comparison.
  /// Raw (uninstrumented) — for quiesced checks and owned boxes only.
  std::uint64_t raw_key_word(std::size_t i) const {
    std::uint64_t w;
    std::memcpy(&w, key_data() + 8 * i, 8);
    return __builtin_bswap64(w);
  }
};

/// Per-record emit callback for bytes-domain scans. Called while the scan
/// still holds its epoch pin and has validated the leaf, so the views are
/// safe to decode for the duration of the call (copy out to retain).
using StrEmitFn =
    std::function<void(BytesView key, Value value, BytesView payload)>;

/// Allocates and fills a box (outside any transaction — the pointer is
/// private until a record publishes it). Fill goes through the ctx
/// word-wise so the cost model charges the copy.
template <class Ctx>
BytesBox* make_box(Ctx& c, BytesView key, Value value, BytesView payload) {
  const std::size_t bytes = BytesBox::size_for(key.len, payload.len);
  auto* b = static_cast<BytesBox*>(
      c.alloc(bytes, MemClass::kBytesBox, sim::LineKind::kRecord));
  c.write(b->meta, static_cast<std::uint64_t>(key.len) |
                       (static_cast<std::uint64_t>(payload.len) << 32));
  c.write(b->value, value);
  char* base = reinterpret_cast<char*>(b) + sizeof(BytesBox);
  const auto put_words = [&](const char* src, std::size_t n, char* dst) {
    for (std::size_t off = 0; off < BytesBox::pad8(n); off += 8) {
      std::uint64_t w = 0;
      const std::size_t take = n > off ? (n - off < 8 ? n - off : 8) : 0;
      if (take > 0) std::memcpy(&w, src + off, take);
      c.write(*reinterpret_cast<std::uint64_t*>(dst + off), w);
    }
  };
  put_words(key.data, key.len, base);
  put_words(payload.data, payload.len, base + BytesBox::pad8(key.len));
  return b;
}

template <class Ctx>
void free_box(Ctx& c, BytesBox* b) {
  c.free(b, b->size(), MemClass::kBytesBox);
}

/// Instrumented three-way compare of a published box's key against host
/// bytes: word-wise c.read of the box (each word joins the enclosing HTM
/// region's read set), host-side big-endian repack of the argument.
template <class Ctx>
int box_key_compare(Ctx& c, const BytesBox* box, const char* key,
                    std::size_t klen) {
  const std::uint64_t meta = c.read(box->meta);
  const std::size_t bklen = static_cast<std::uint32_t>(meta);
  const std::size_t words = BytesBox::pad8(bklen < klen ? klen : bklen) / 8;
  // The box's storage only spans pad8(bklen); past it the box's key is
  // virtually zero (reading on would hit the payload region, or run off
  // the allocation entirely when the argument key is longer).
  const std::size_t box_words = BytesBox::pad8(bklen) / 8;
  const char* bk = box->key_data();
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t bw =
        i < box_words
            ? __builtin_bswap64(
                  c.read(*reinterpret_cast<const std::uint64_t*>(bk + 8 * i)))
            : 0;
    const std::uint64_t aw = bytes_word_at(key, klen, 8 * i);
    if (bw != aw) return bw < aw ? -1 : 1;
  }
  if (bklen == klen) return 0;
  return bklen < klen ? -1 : 1;
}

/// Raw (uninstrumented) variant for quiesced structural checks.
inline int box_key_compare_raw(const BytesBox* box, const char* key,
                               std::size_t klen) {
  return bytes_compare(box->key_data(), box->klen(), key, klen);
}

// ---------------------------------------------------------------------------
// U64KeyTraits: the original domain. Every hook is the literal pre-traits
// code; the golden fixture enforces access-sequence identity.
// ---------------------------------------------------------------------------

struct U64KeyTraits {
  static constexpr bool kIndirect = false;
  static constexpr KeyDomain kDomain = KeyDomain::kU64;

  using Arg = Key;     // the key as ops receive it
  using Sep = Key;     // a separator in flight between nodes
  using Cursor = Key;  // scan position

  /// Interior payload: exactly the historical anonymous struct.
  template <int F, class NodeP>
  struct Idx {
    Key keys[F];
    NodeP* children[F + 1];
  };

  /// Pre-built insert payload (host-side only for this domain).
  struct Ins {
    Key key;
    Value value;
  };

  /// Per-op reclamation bookkeeping (none for direct values).
  struct Scratch {};

  using ScanTmp = KV;

  static std::uint64_t target(Arg k) { return k; }
  static Arg make_arg(Key k) { return k; }
  static Cursor make_cursor(Arg start) { return start; }
  static Arg cursor_arg(const Cursor& cu) { return cu; }

  template <class Ctx>
  static Ins make_ins(Ctx&, Arg key, Value value) {
    return Ins{key, value};
  }
  static void op_begin(Ins*, Scratch&) {}
  template <class Ctx, class Epoch>
  static void op_end(Ctx&, Epoch&, int, Ins*, Scratch&) {}

  // --- compares (one instrumented read each, as before) ---

  template <class Ctx, class Node>
  static bool arg_ge_sep(Ctx& c, Node* n, int i, Arg key) {
    return key >= c.read(n->idx.keys[i]);
  }
  template <class Ctx, class Node>
  static int cmp_rec_arg(Ctx& c, Node* leaf, int i, Arg key) {
    const Key k = c.read(leaf->recs[i].key);
    if (k == key) return 0;
    return k < key ? -1 : 1;
  }
  template <class Ctx, class Node>
  static bool rec_gt_ins(Ctx& c, Node* leaf, int i, const Ins& ins) {
    return c.read(leaf->recs[i].key) > ins.key;
  }
  template <class Ctx, class Node>
  static bool sep_gt(Ctx& c, Node* n, int i, const Sep& sep) {
    return c.read(n->idx.keys[i]) > sep;
  }
  static bool arg_ge_sep_val(Arg key, const Sep& sep) { return key >= sep; }
  static bool sep_ge_sep_val(const Sep& a, const Sep& b) { return a >= b; }

  // --- separator storage ---

  template <class Ctx, class Node>
  static Sep read_sep_from_rec(Ctx& c, Node* right) {
    return c.read(right->recs[0].key);
  }
  template <class Ctx, class Node>
  static Sep read_sep_at(Ctx& c, Node* n, int i) {
    return c.read(n->idx.keys[i]);
  }
  template <class Ctx, class Node>
  static void move_sep(Ctx& c, Node* dst, int j, Node* src, int i) {
    c.write(dst->idx.keys[j], c.read(src->idx.keys[i]));
  }
  template <class Ctx, class Node>
  static void shift_sep(Ctx& c, Node* n, int to, int from) {
    c.write(n->idx.keys[to], c.read(n->idx.keys[from]));
  }
  template <class Ctx, class Node>
  static void write_sep(Ctx& c, Node* n, int i, const Sep& sep) {
    c.write(n->idx.keys[i], sep);
  }

  // --- record payload ---

  template <class Ctx, class Node>
  static void write_rec(Ctx& c, Node* leaf, int pos, Ins& ins) {
    c.write(leaf->recs[pos].key, ins.key);
    c.write(leaf->recs[pos].value, ins.value);
  }
  template <class Ctx, class Node>
  static Value load_value(Ctx& c, Node* leaf, int i) {
    return c.read(leaf->recs[i].value);
  }
  template <class Ctx, class Node>
  static void replace_value(Ctx& c, Node* leaf, int i, Ins& ins, Scratch&) {
    c.write(leaf->recs[i].value, ins.value);
  }
  template <class Ctx, class Node>
  static void note_erase(Ctx&, Node*, int, Scratch&) {}

  // --- scans ---

  template <class Ctx, class Node, class Dst>
  static void scan_step(Ctx& c, Node* leaf, int i, const Cursor& cursor,
                        Dst out, std::size_t& got) {
    const Key k = c.read(leaf->recs[i].key);
    if (k < cursor) return;
    out[got++] = KV{k, c.read(leaf->recs[i].value)};
  }
  template <class Ctx, class Node>
  static void scan_probe(Ctx& c, Node* leaf, int i, const Cursor& cursor,
                         ScanTmp* tmp, std::size_t& tn) {
    const Key k = c.read(leaf->recs[i].key);
    if (k < cursor) return;
    tmp[tn++] = KV{k, c.read(leaf->recs[i].value)};
  }
  template <class Ctx, class Dst>
  static void commit_emit(Ctx&, const ScanTmp& t, Dst out, std::size_t& got,
                          Cursor& cursor) {
    out[got++] = t;
    cursor = t.first + 1;
  }
  template <class Dst>
  static Dst sub_dst(Dst out, std::size_t got) {
    return out + got;
  }

  // --- teardown / raw checks ---

  template <class Ctx, class Node>
  static void destroy_node_extras(Ctx&, Node*) {}
};

// ---------------------------------------------------------------------------
// BytesKeyTraits: prefix slice in-node, suffix + value out of line.
// ---------------------------------------------------------------------------

struct BytesKeyTraits {
  static constexpr bool kIndirect = true;
  static constexpr KeyDomain kDomain = KeyDomain::kBytes;

  /// Key argument: caller's bytes plus the precomputed prefix slice. The
  /// view must outlive the operation (it references the caller's buffer).
  struct Arg {
    const char* data;
    std::size_t len;
    std::uint64_t prefix;
  };

  /// A separator in flight: the in-node slice, the owned out-of-line copy,
  /// and a host-side shadow of the full key so routing decisions after a
  /// split need no extra instrumented reads.
  struct Sep {
    std::uint64_t prefix = 0;
    BytesBox* box = nullptr;
    std::string full;
  };

  /// Scan position. `excl` marks the cursor itself as already emitted
  /// (the bytes analogue of u64's `cursor = k + 1` — byte strings have no
  /// cheap successor).
  struct Cursor {
    std::string key;
    std::uint64_t prefix = 0;
    bool excl = false;
  };

  /// Interior payload: prefix slices stay SIMD-searchable in `keys`; the
  /// parallel `seps` array holds each separator's owned full-key box.
  template <int F, class NodeP>
  struct Idx {
    Key keys[F];
    NodeP* children[F + 1];
    BytesBox* seps[F];
  };

  /// Insert payload: the box is allocated and filled before the op body
  /// runs (never inside a transaction), published by pointer write.
  struct Ins {
    const char* key;
    std::size_t klen;
    std::uint64_t prefix;
    BytesBox* box;
    bool consumed = false;
  };

  struct Scratch {
    BytesBox* retired = nullptr;  // old box displaced by update/erase
  };

  struct ScanTmp {
    std::uint64_t prefix;
    BytesBox* box;
  };

  static std::uint64_t target(const Arg& a) { return a.prefix; }
  static Arg make_arg(BytesView v) {
    return Arg{v.data, v.len, bytes_prefix(v)};
  }
  static Cursor make_cursor(const Arg& start) {
    return Cursor{std::string(start.data, start.len), start.prefix, false};
  }
  /// Arg view over a cursor for descent (valid while the cursor is stable).
  static Arg cursor_arg(const Cursor& cu) {
    return Arg{cu.key.data(), cu.key.size(), cu.prefix};
  }

  template <class Ctx>
  static Ins make_ins(Ctx& c, const Arg& key, Value value,
                      BytesView payload = {}) {
    return Ins{key.data, key.len, key.prefix,
               make_box(c, BytesView{key.data, key.len}, value, payload),
               false};
  }
  static void op_begin(Ins* ins, Scratch& sc) {
    // The op body can re-run (HTM abort, simulator retry): roll the
    // host-side consumption state back with it.
    if (ins != nullptr) ins->consumed = false;
    sc.retired = nullptr;
  }
  template <class Ctx, class Epoch>
  static void op_end(Ctx& c, Epoch& epoch, int tid, Ins* ins, Scratch& sc) {
    if (sc.retired != nullptr) {
      // Still pinned (the caller's epoch guard outlives op_end): readers
      // that captured the old pointer stay safe until their pins drop.
      BytesBox* old = sc.retired;
      epoch.retire(tid, old, c.make_deleter(old->size(), MemClass::kBytesBox));
    }
    if (ins != nullptr && !ins->consumed) free_box(c, ins->box);
  }

  template <class Ctx, class Node>
  static BytesBox* rec_box(Ctx& c, Node* leaf, int i) {
    return reinterpret_cast<BytesBox*>(c.read(leaf->recs[i].value));
  }
  template <class Ctx, class Node>
  static BytesBox* sep_box(Ctx& c, Node* n, int i) {
    return reinterpret_cast<BytesBox*>(c.read(n->idx.seps[i]));
  }

  // --- compares: prefix slice first, suffix tie-break only on equality ---

  template <class Ctx, class Node>
  static bool arg_ge_sep(Ctx& c, Node* n, int i, const Arg& key) {
    const Key p = c.read(n->idx.keys[i]);
    if (key.prefix != p) return key.prefix > p;
    return box_key_compare(c, sep_box(c, n, i), key.data, key.len) <= 0;
  }
  template <class Ctx, class Node>
  static int cmp_rec_arg(Ctx& c, Node* leaf, int i, const Arg& key) {
    const Key p = c.read(leaf->recs[i].key);
    if (p != key.prefix) return p < key.prefix ? -1 : 1;
    return box_key_compare(c, rec_box(c, leaf, i), key.data, key.len);
  }
  template <class Ctx, class Node>
  static bool rec_gt_ins(Ctx& c, Node* leaf, int i, const Ins& ins) {
    const Key p = c.read(leaf->recs[i].key);
    if (p != ins.prefix) return p > ins.prefix;
    return box_key_compare(c, rec_box(c, leaf, i), ins.key, ins.klen) > 0;
  }
  template <class Ctx, class Node>
  static bool sep_gt(Ctx& c, Node* n, int i, const Sep& sep) {
    const Key p = c.read(n->idx.keys[i]);
    if (p != sep.prefix) return p > sep.prefix;
    return box_key_compare(c, sep_box(c, n, i), sep.full.data(),
                           sep.full.size()) > 0;
  }
  static bool arg_ge_sep_val(const Arg& key, const Sep& sep) {
    return bytes_compare(key.data, key.len, sep.full.data(),
                         sep.full.size()) >= 0;
  }
  static bool sep_ge_sep_val(const Sep& a, const Sep& b) {
    return bytes_compare(a.full.data(), a.full.size(), b.full.data(),
                         b.full.size()) >= 0;
  }

  // --- separator storage ---

  /// Leaf split: the separator is an owned copy of right's first full key
  /// (sharing the record's box would dangle once that record is erased and
  /// its box retired). Allocated inside the enclosing region, exactly like
  /// the node allocations the split already performs.
  template <class Ctx, class Node>
  static Sep read_sep_from_rec(Ctx& c, Node* right) {
    const Key p = c.read(right->recs[0].key);
    BytesBox* src = rec_box(c, right, 0);
    const std::size_t klen = static_cast<std::uint32_t>(c.read(src->meta));
    std::string full(klen, '\0');
    const char* kd = src->key_data();
    for (std::size_t off = 0; off < klen; off += 8) {
      std::uint64_t w =
          c.read(*reinterpret_cast<const std::uint64_t*>(kd + off));
      std::memcpy(full.data() + off, &w, klen - off < 8 ? klen - off : 8);
    }
    BytesBox* copy = make_box(c, BytesView(full), 0, {});
    return Sep{p, copy, std::move(full)};
  }
  /// Interior split: the middle separator's box moves up with it (ownership
  /// transfer, no copy — the slot above `count` goes dead).
  template <class Ctx, class Node>
  static Sep read_sep_at(Ctx& c, Node* n, int i) {
    const Key p = c.read(n->idx.keys[i]);
    BytesBox* box = sep_box(c, n, i);
    const std::size_t klen = static_cast<std::uint32_t>(c.read(box->meta));
    std::string full(klen, '\0');
    const char* kd = box->key_data();
    for (std::size_t off = 0; off < klen; off += 8) {
      std::uint64_t w =
          c.read(*reinterpret_cast<const std::uint64_t*>(kd + off));
      std::memcpy(full.data() + off, &w, klen - off < 8 ? klen - off : 8);
    }
    return Sep{p, box, std::move(full)};
  }
  template <class Ctx, class Node>
  static void move_sep(Ctx& c, Node* dst, int j, Node* src, int i) {
    c.write(dst->idx.keys[j], c.read(src->idx.keys[i]));
    c.write(dst->idx.seps[j], c.read(src->idx.seps[i]));
  }
  template <class Ctx, class Node>
  static void shift_sep(Ctx& c, Node* n, int to, int from) {
    c.write(n->idx.keys[to], c.read(n->idx.keys[from]));
    c.write(n->idx.seps[to], c.read(n->idx.seps[from]));
  }
  template <class Ctx, class Node>
  static void write_sep(Ctx& c, Node* n, int i, const Sep& sep) {
    c.write(n->idx.keys[i], sep.prefix);
    c.write(n->idx.seps[i], sep.box);
  }

  // --- record payload ---

  template <class Ctx, class Node>
  static void write_rec(Ctx& c, Node* leaf, int pos, Ins& ins) {
    c.write(leaf->recs[pos].key, ins.prefix);
    c.write(leaf->recs[pos].value, reinterpret_cast<std::uint64_t>(ins.box));
    ins.consumed = true;
  }
  template <class Ctx, class Node>
  static Value load_value(Ctx& c, Node* leaf, int i) {
    return c.read(rec_box(c, leaf, i)->value);
  }
  /// Update = box pointer swap; the displaced box is retired after the op.
  template <class Ctx, class Node>
  static void replace_value(Ctx& c, Node* leaf, int i, Ins& ins, Scratch& sc) {
    sc.retired = rec_box(c, leaf, i);
    c.write(leaf->recs[i].value, reinterpret_cast<std::uint64_t>(ins.box));
    ins.consumed = true;
  }
  template <class Ctx, class Node>
  static void note_erase(Ctx& c, Node* leaf, int i, Scratch& sc) {
    sc.retired = rec_box(c, leaf, i);
  }

  // --- scans ---

  /// rec < cursor (or == with excl): skip. Prefix decides when it can;
  /// otherwise the suffix tie-break reads the record's box.
  template <class Ctx, class Node>
  static bool before_cursor(Ctx& c, Node* leaf, int i, const Cursor& cursor,
                            Key p) {
    if (p != cursor.prefix) return p < cursor.prefix;
    const int cmp = box_key_compare(c, rec_box(c, leaf, i),
                                    cursor.key.data(), cursor.key.size());
    return cmp < 0 || (cmp == 0 && cursor.excl);
  }

  // (No scan_step: bytes scans always go through scan_probe/commit_emit.
  // Even the monolithic body defers emission past the transaction — the
  // emit callback must fire exactly once per record, and the region body
  // can re-execute on abort.)
  template <class Ctx, class Node>
  static void scan_probe(Ctx& c, Node* leaf, int i, const Cursor& cursor,
                         ScanTmp* tmp, std::size_t& tn) {
    const Key p = c.read(leaf->recs[i].key);
    if (before_cursor(c, leaf, i, cursor, p)) return;
    tmp[tn++] = ScanTmp{p, rec_box(c, leaf, i)};
  }
  /// Post-validate emit: the box is immutable and epoch-protected, so its
  /// contents need no revalidation even though the leaf moved on.
  template <class Ctx>
  static void commit_emit(Ctx& c, const ScanTmp& t, const StrEmitFn& out,
                          std::size_t& got, Cursor& cursor) {
    emit_box(c, t.box, out);
    ++got;
    cursor.key.assign(t.box->key_data(), t.box->klen());
    cursor.prefix = t.prefix;
    cursor.excl = true;
  }
  static const StrEmitFn& sub_dst(const StrEmitFn& out, std::size_t) {
    return out;
  }

  /// Instrumented decode of a box for emission: header, value word and key
  /// words are charged to the reader (the payload is handed out as a view;
  /// the consumer pays for what it touches).
  template <class Ctx>
  static void emit_box(Ctx& c, BytesBox* box, const StrEmitFn& out) {
    const std::uint64_t meta = c.read(box->meta);
    const std::size_t klen = static_cast<std::uint32_t>(meta);
    const std::size_t vlen = static_cast<std::size_t>(meta >> 32);
    const Value v = c.read(box->value);
    const char* kd = box->key_data();
    for (std::size_t off = 0; off < klen; off += 8) {
      (void)c.read(*reinterpret_cast<const std::uint64_t*>(kd + off));
    }
    out(BytesView{kd, klen}, v,
        BytesView{kd + BytesBox::pad8(klen), vlen});
  }

  // --- teardown ---

  /// Frees the out-of-line blocks a node owns: record boxes for leaves,
  /// separator boxes for interiors. Quiesced (raw reads), like the node
  /// teardown it runs inside.
  template <class Ctx, class Node>
  static void destroy_node_extras(Ctx& c, Node* n) {
    if (n->is_leaf) {
      for (std::uint32_t i = 0; i < n->count; ++i) {
        free_box(c, reinterpret_cast<BytesBox*>(n->recs[i].value));
      }
    } else {
      for (std::uint32_t i = 0; i < n->count; ++i) {
        free_box(c, n->idx.seps[i]);
      }
    }
  }
};

}  // namespace node
}  // namespace euno::trees
