// Snapshot persistence for Euno-B+Tree: dump a quiesced tree's records to a
// compact binary file and rebuild a packed tree from it via bulk_load —
// the restart path a key-value store built on this library needs.
//
// Format: magic, version, record count, then (key, value) pairs in key
// order, all little-endian 64-bit. Snapshots are engine-independent: a tree
// saved from the native engine loads into a simulated one and vice versa.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trees/trees.hpp"
#include "util/assert.hpp"

namespace euno::core {

inline constexpr std::uint64_t kSnapshotMagic = 0x45554e4f534e4150ull;  // "EUNOSNAP"
inline constexpr std::uint64_t kSnapshotVersion = 1;

/// Writes all records of a quiesced tree to `path`. Returns the record
/// count, or -1 on I/O failure.
template <class Ctx, int F, int S>
long save_snapshot(Ctx& c, trees::EunoBPTree<Ctx, F, S>& tree, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;

  // Stream the records out through chunked scans (bounded memory).
  std::vector<trees::KV> chunk(1024);
  std::vector<trees::KV> all;
  trees::Key cursor = 0;
  bool more = true;
  while (more) {
    const std::size_t n = tree.scan(c, cursor, chunk.size(), chunk.data());
    for (std::size_t i = 0; i < n; ++i) all.push_back(chunk[i]);
    more = n == chunk.size();
    if (more) cursor = chunk[n - 1].first + 1;
  }

  const std::uint64_t header[3] = {kSnapshotMagic, kSnapshotVersion,
                                   static_cast<std::uint64_t>(all.size())};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1;
  if (ok && !all.empty()) {
    ok = std::fwrite(all.data(), sizeof(trees::KV), all.size(), f) == all.size();
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok ? static_cast<long>(all.size()) : -1;
}

/// Reads a snapshot into `out`. Returns false on missing/corrupt files.
inline bool read_snapshot(const std::string& path, std::vector<trees::KV>* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t header[3];
  bool ok = std::fread(header, sizeof(header), 1, f) == 1 &&
            header[0] == kSnapshotMagic && header[1] == kSnapshotVersion;
  if (ok) {
    out->resize(header[2]);
    if (header[2] != 0) {
      ok = std::fread(out->data(), sizeof(trees::KV), out->size(), f) ==
           out->size();
    }
  }
  std::fclose(f);
  if (ok) {
    for (std::size_t i = 1; i < out->size(); ++i) {
      if ((*out)[i - 1].first >= (*out)[i].first) return false;  // corrupt
    }
  }
  return ok;
}

/// Rebuilds a packed tree from a snapshot file. The tree must be empty.
/// Returns the number of records loaded, or -1 on failure.
template <class Ctx, int F, int S>
long load_snapshot(Ctx& c, trees::EunoBPTree<Ctx, F, S>& tree, const std::string& path) {
  std::vector<trees::KV> records;
  if (!read_snapshot(path, &records)) return -1;
  tree.bulk_load(c, records.data(), records.size());
  return static_cast<long>(records.size());
}

}  // namespace euno::core
