#include "workload/strkeys.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace euno::workload {

const char* key_domain_name(KeyDomain d) {
  switch (d) {
    case KeyDomain::kU64: return "u64";
    case KeyDomain::kBytes: return "bytes";
  }
  return "?";
}

const char* key_style_name(KeyStyle s) {
  switch (s) {
    case KeyStyle::kUrl: return "url";
    case KeyStyle::kUuid: return "uuid";
  }
  return "?";
}

namespace {

// Host-first (scheme-less) so the leading 8-byte prefix slice carries the
// host's first characters: 8 hosts → 8 distinct slices, everything after
// resolves through the suffix tie-break.
constexpr const char* kHosts[8] = {
    "alpha.example.com",  "beta.example.org",   "cache.internal.net",
    "delta.example.com",  "edge.service.io",    "files.example.org",
    "gateway.intra.net",  "host.example.com",
};

constexpr const char* kWords[16] = {
    "item",    "users",   "catalog",  "orders", "inventory", "session",
    "profile", "assets",  "metrics",  "search", "archive",   "feed",
    "jobs",    "keys",    "listings", "media",
};

constexpr char kPayloadAlphabet[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// Appends `v` as exactly `digits` zero-padded lowercase hex digits.
void append_hex(std::string* s, std::uint64_t v, int digits) {
  EUNO_ASSERT(digits >= 1 && digits <= 16);
  EUNO_ASSERT(digits == 16 || v >> (4 * digits) == 0);
  char buf[16];
  for (int i = digits - 1; i >= 0; --i, v >>= 4) {
    buf[i] = "0123456789abcdef"[v & 15];
  }
  s->append(buf, static_cast<std::size_t>(digits));
}

}  // namespace

std::string StringKeySpace::key_of(std::uint64_t id) const {
  const std::uint64_t h = mix64(seed_ ^ mix64(id + 1));
  std::string key;
  switch (style_) {
    case KeyStyle::kUrl:
      key.reserve(64);
      key += kHosts[h & 7];
      key += '/';
      key += kWords[(h >> 3) & 15];
      key += '/';
      key += kWords[(h >> 7) & 15];
      key += '/';
      append_hex(&key, id, 16);
      break;
    case KeyStyle::kUuid:
      // 8-4-4-4 from the hash, final 12 hex digits carry the id (structural
      // uniqueness for any key_range < 2^48, far above what runs use).
      key.reserve(36);
      append_hex(&key, (h >> 32) & 0xffffffffull, 8);
      key += '-';
      append_hex(&key, (h >> 16) & 0xffffull, 4);
      key += '-';
      append_hex(&key, 0x4000 | (h & 0x0fff), 4);
      key += '-';
      append_hex(&key, 0x8000 | ((h >> 48) & 0x3fff), 4);
      key += '-';
      append_hex(&key, id & 0xffffffffffffull, 12);
      break;
  }
  return key;
}

std::string StringKeySpace::payload_of(std::uint64_t id, std::uint64_t salt,
                                       std::uint32_t bytes) const {
  constexpr std::uint64_t kAlpha = sizeof(kPayloadAlphabet) - 1;
  std::string out;
  out.reserve(bytes);
  std::uint64_t state = mix64(seed_ ^ mix64(id) ^ (salt * 0x9e3779b97f4a7c15ull));
  // 10 alphabet draws per mix64 refresh: 62^10 < 2^64 keeps each draw's bias
  // negligible and the refresh cost amortized.
  int draws = 0;
  for (std::uint32_t i = 0; i < bytes; ++i) {
    if (draws == 10) {
      state = mix64(state + 0x9e3779b97f4a7c15ull);
      draws = 0;
    }
    out += kPayloadAlphabet[state % kAlpha];
    state /= kAlpha;
    ++draws;
  }
  return out;
}

}  // namespace euno::workload
