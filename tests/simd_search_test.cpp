// Equivalence property test for the vectorized node-search kernels
// (trees/node/simd_search.hpp): every kernel set runnable on this host
// (scalar, SSE2, AVX2 when supported) must return exactly the scalar
// reference's answer on every layout the node headers feed them — all
// fanouts, all fills from empty to full, sorted unique arrays, duplicate
// neighborhoods, and boundary keys around 0, the sign bit, and ~0ull.
//
// Probes cover hits on every position, misses between every pair of
// elements, and both extremes, so tail handling (the partial vector at the
// end) and lane masking are exercised at every n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trees/key_traits.hpp"
#include "trees/node/simd_search.hpp"

namespace euno::trees::node::simd {
namespace {

// Deterministic 64-bit mixer (splitmix64 finalizer) — no <random>, and the
// test enumerates the same cases on every run.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Key patterns fed to both kernel families. All are sorted (count_le
// requires it; find_eq_pairs does not care).
std::vector<std::vector<std::uint64_t>> key_patterns(int n) {
  std::vector<std::vector<std::uint64_t>> out;
  // Sorted pseudo-random, unique with wide gaps.
  {
    std::vector<std::uint64_t> v;
    std::uint64_t k = 3;
    for (int i = 0; i < n; ++i) {
      k += 2 + (mix(static_cast<std::uint64_t>(i)) & 0xffff);
      v.push_back(k);
    }
    out.push_back(std::move(v));
  }
  // Dense consecutive run (adjacent keys differ by 1).
  {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(1000 + static_cast<std::uint64_t>(i));
    out.push_back(std::move(v));
  }
  // Duplicate plateaus (count_le must count ALL equal keys; legal input for
  // the child_index contract even though live nodes keep separators unique).
  {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(500 + static_cast<std::uint64_t>(i / 3) * 10);
    out.push_back(std::move(v));
  }
  // Boundary keys: values hugging 0, the 2^63 sign bit (where the
  // signed-compare trick in the SSE2/AVX2 kernels would break if the bias
  // were wrong), and ~0ull.
  {
    std::vector<std::uint64_t> v;
    const std::uint64_t kEdges[] = {0ull,
                                    1ull,
                                    2ull,
                                    (1ull << 63) - 2,
                                    (1ull << 63) - 1,
                                    1ull << 63,
                                    (1ull << 63) + 1,
                                    ~0ull - 2,
                                    ~0ull - 1,
                                    ~0ull};
    int produced = 0;
    for (std::uint64_t e : kEdges) {
      if (produced == n) break;
      v.push_back(e);
      ++produced;
    }
    while (produced < n) {  // pad past the edge set, keeping sorted order
      v.push_back(v.back());
      ++produced;
    }
    out.push_back(std::move(v));
  }
  return out;
}

// Probe keys for one array: every element (hit), every midpoint and
// offset-by-one (miss), and the extremes of the key space.
std::vector<std::uint64_t> probes(const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint64_t> p = {0ull, 1ull, (1ull << 63) - 1, 1ull << 63,
                                  ~0ull};
  for (std::uint64_t k : keys) {
    p.push_back(k);
    p.push_back(k - 1);
    p.push_back(k + 1);
  }
  return p;
}

TEST(SimdSearch, KernelRosterIsSane) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  ASSERT_GE(count, 1);
  EXPECT_STREQ(all[0]->name, "scalar");
  // The dispatcher's pick must be one of the runnable sets (or the scalar
  // set when EUNO_NO_SIMD is exported into the test environment).
  bool active_listed = false;
  for (int i = 0; i < count; ++i) {
    if (all[i] == &active_kernels()) active_listed = true;
  }
  EXPECT_TRUE(active_listed) << "active kernels not in runnable roster";
}

TEST(SimdSearch, CountLeMatchesScalarEverywhere) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {  // empty through full
      for (const auto& keys : key_patterns(n)) {
        for (std::uint64_t probe : probes(keys)) {
          const int want = ref.count_le(keys.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            const int got = all[k]->count_le(keys.data(), n, probe);
            ASSERT_EQ(got, want)
                << all[k]->name << " count_le n=" << n << " probe=" << probe;
          }
        }
      }
    }
  }
}

TEST(SimdSearch, FindEqPairsMatchesScalarEverywhere) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& keys : key_patterns(n)) {
        // Interleave {key, value} pairs the way Record arrays lay out in
        // memory; values are distinct garbage that must never match.
        std::vector<std::uint64_t> kv(2 * static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          kv[2 * static_cast<std::size_t>(i)] = keys[static_cast<std::size_t>(i)];
          kv[2 * static_cast<std::size_t>(i) + 1] =
              mix(keys[static_cast<std::size_t>(i)]);
        }
        for (std::uint64_t probe : probes(keys)) {
          const int want = ref.find_eq_pairs(kv.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            const int got = all[k]->find_eq_pairs(kv.data(), n, probe);
            ASSERT_EQ(got, want)
                << all[k]->name << " find_eq_pairs n=" << n
                << " probe=" << probe;
          }
        }
        // A value colliding with the probe key must not count as a hit:
        // plant the probe in a value lane only.
        if (n >= 2) {
          const std::uint64_t foreign = keys.back() + 12345;
          kv[1] = foreign;  // value of record 0
          const int want = ref.find_eq_pairs(kv.data(), n, foreign);
          ASSERT_EQ(want, -1) << "reference matched a value lane";
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->find_eq_pairs(kv.data(), n, foreign), -1)
                << all[k]->name << " matched a value lane, n=" << n;
          }
        }
      }
    }
  }
}

// --- Prefix-slice kernels (bytes key domain) --------------------------------
//
// Bytes-domain nodes search the same u64 kernels over big-endian packed
// prefix slices (key_traits.hpp bytes_prefix). These cases feed the kernels
// slice arrays produced from real string corpora, concentrating on the two
// shapes that distinguish the bytes domain from arbitrary u64 keys:
//  - long shared prefixes, where many slices are EQUAL (count_le must count
//    the whole plateau; duplicate-heavy inputs stress the tail masks), and
//  - bytes >= 0x80 in the leading positions, which set the packed word's
//    sign bit — exactly where the SSE2/AVX2 signed-compare bias would break.

// String corpora for one fill level. All sorted by bytes_compare, which by
// the monotone-coarsening property sorts the packed slices too.
std::vector<std::vector<std::string>> string_patterns(int n) {
  std::vector<std::vector<std::string>> out;
  // Shared 8-byte prefix, suffix-only differences: every slice equal.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      v.push_back("pfx8----suffix" + std::to_string(1000 + i));
    }
    out.push_back(std::move(v));
  }
  // Distinct prefixes within the first 8 bytes (url-host style).
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      std::string s = "h";
      s += static_cast<char>('a' + (i % 26));
      s += static_cast<char>('a' + (i / 26));
      s += ".example.com/" + std::to_string(i);
      v.push_back(std::move(s));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  // Sign-bit bytes: leading 0x7f/0x80/0xff so packed slices straddle 2^63.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      std::string s;
      s += static_cast<char>(0x7e + (i % 4));  // 0x7e..0x81: straddles 0x80
      s += static_cast<char>(0x80 | (i % 64));
      s += "tail" + std::to_string(i);
      v.push_back(std::move(s));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  // Short keys (< 8 bytes): zero-padded slices, including the empty key.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      v.push_back(std::string(static_cast<std::size_t>(i % 7), 'k') +
                  (i >= 7 ? std::to_string(i) : ""));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  return out;
}

// The slice packing really is a monotone coarsening of lexicographic order:
// a < b implies slice(a) <= slice(b), and slice(a) < slice(b) implies a < b.
TEST(SimdPrefixSearch, SlicePackingIsMonotone) {
  for (const auto& corpus : string_patterns(32)) {
    for (std::size_t i = 0; i + 1 < corpus.size(); ++i) {
      const auto& a = corpus[i];
      const auto& b = corpus[i + 1];
      const int full = bytes_compare(a.data(), a.size(), b.data(), b.size());
      const std::uint64_t sa = bytes_prefix(a.data(), a.size());
      const std::uint64_t sb = bytes_prefix(b.data(), b.size());
      if (full <= 0) {
        EXPECT_LE(sa, sb) << "'" << a << "' vs '" << b << "'";
      }
      if (sa < sb) {
        EXPECT_LT(full, 0) << "'" << a << "' vs '" << b << "'";
      }
    }
  }
}

TEST(SimdPrefixSearch, CountLeMatchesScalarOnSliceArrays) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& corpus : string_patterns(n)) {
        std::vector<std::uint64_t> slices;
        for (const auto& s : corpus) {
          slices.push_back(bytes_prefix(s.data(), s.size()));
        }
        // Probe with every corpus slice plus near-misses on both sides —
        // on the shared-prefix corpus these all collapse to one plateau
        // value, the duplicate-heavy extreme for count_le's masks.
        std::vector<std::uint64_t> pr = {0ull, ~0ull, 1ull << 63};
        for (std::uint64_t s : slices) {
          pr.push_back(s);
          pr.push_back(s - 1);
          pr.push_back(s + 1);
        }
        for (std::uint64_t probe : pr) {
          const int want = ref.count_le(slices.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->count_le(slices.data(), n, probe), want)
                << all[k]->name << " slice count_le n=" << n
                << " probe=" << probe;
          }
        }
      }
    }
  }
}

TEST(SimdPrefixSearch, FindEqPairsMatchesScalarOnSliceArrays) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& corpus : string_patterns(n)) {
        std::vector<std::uint64_t> kv(2 * static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          const auto& s = corpus[static_cast<std::size_t>(i)];
          kv[2 * static_cast<std::size_t>(i)] = bytes_prefix(s.data(), s.size());
          kv[2 * static_cast<std::size_t>(i) + 1] =
              mix(static_cast<std::uint64_t>(i));
        }
        std::vector<std::uint64_t> pr = {0ull, ~0ull};
        for (int i = 0; i < n; ++i) {
          pr.push_back(kv[2 * static_cast<std::size_t>(i)]);
        }
        for (std::uint64_t probe : pr) {
          const int want = ref.find_eq_pairs(kv.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->find_eq_pairs(kv.data(), n, probe), want)
                << all[k]->name << " slice find_eq_pairs n=" << n
                << " probe=" << probe;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace euno::trees::node::simd
