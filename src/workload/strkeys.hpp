// Deterministic variable-length string-key spaces for bytes-domain workloads.
//
// The u64 workload pipeline samples a popularity rank and maps it to a key id
// in [0, key_range) (workload/distributions.hpp). Bytes-domain runs keep that
// pipeline intact and add one final hop: StringKeySpace maps each key id to a
// unique variable-length string, and synthesizes the out-of-line value
// payload the tree stores behind its value indirection (trees/key_traits.hpp).
// Everything is a pure function of (style, seed, id), so two threads — or two
// runs — agree on the key text for an id without any shared state.
//
// Two corpus styles, chosen to stress opposite ends of the prefix-slice
// design (DESIGN.md §16):
//   - kUrl: host-first URL paths built from a small host/word corpus. Keys
//     are 30–70 bytes and share long prefixes (only ~8 distinct leading
//     8-byte slices), so in-node prefix search only bounds long equal-slice
//     runs and most probes end in the out-of-line suffix tie-break: node
//     search binary-searches each run by box compares.
//   - kUuid: canonical 8-4-4-4-12 hex UUIDs. Fixed 36 bytes, uniformly
//     random leading slice, so the prefix discriminates almost every
//     comparison and the suffix path is nearly idle.
#pragma once

#include <cstdint>
#include <string>

namespace euno::workload {

/// Which key domain a workload runs in. Mirrors trees::KeyDomain without
/// importing the tree headers into the workload library; the driver bridges
/// the two when dispatching (driver/experiment.cpp).
enum class KeyDomain : std::uint8_t { kU64, kBytes };

const char* key_domain_name(KeyDomain d);

/// String corpus family for bytes-domain keys.
enum class KeyStyle : std::uint8_t { kUrl, kUuid };

const char* key_style_name(KeyStyle s);

class StringKeySpace {
 public:
  StringKeySpace(KeyStyle style, std::uint64_t seed)
      : style_(style), seed_(seed) {}

  /// The unique key string for key id `id`. Uniqueness is structural (the id
  /// is embedded verbatim in hex), not probabilistic.
  std::string key_of(std::uint64_t id) const;

  /// Deterministic printable payload of exactly `bytes` characters for
  /// (id, salt). `salt` lets successive puts to the same key carry distinct
  /// payloads while staying reproducible.
  std::string payload_of(std::uint64_t id, std::uint64_t salt,
                         std::uint32_t bytes) const;

  KeyStyle style() const { return style_; }

 private:
  KeyStyle style_;
  std::uint64_t seed_;
};

}  // namespace euno::workload
