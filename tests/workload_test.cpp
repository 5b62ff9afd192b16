// Tests for the workload generators: distribution shapes match the paper's
// parameterizations, op mixes honour their ratios, streams are deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/hash.hpp"
#include "workload/distributions.hpp"
#include "workload/strkeys.hpp"
#include "workload/ycsb.hpp"

namespace euno::workload {
namespace {

constexpr std::uint64_t kN = 100000;
constexpr std::uint64_t kSamples = 200000;

TEST(Zipfian, UniformWhenThetaZero) {
  ZipfianDist z(kN, 0.0);
  EXPECT_NEAR(measure_hot10_fraction(z, kSamples, 1), 0.10, 0.01);
}

TEST(Zipfian, SkewGrowsWithTheta) {
  double prev = 0.0;
  for (double theta : {0.2, 0.5, 0.7, 0.9, 0.99}) {
    ZipfianDist z(kN, theta);
    const double hot = measure_hot10_fraction(z, kSamples, 2);
    EXPECT_GT(hot, prev) << "theta=" << theta;
    prev = hot;
  }
}

TEST(Zipfian, SamplerMatchesAnalyticPmf) {
  // The empirical hot-decile mass must match the analytic Zipf mass
  // Σ_{k≤n/10} k^-θ / Σ_{k≤n} k^-θ. (The paper's §5.1 prose quotes YCSB's
  // "41%" folklore figure, which does not correspond to this ratio at any
  // key range; we validate against the actual distribution.)
  for (double theta : {0.5, 0.9, 0.99}) {
    double hot_mass = 0, total_mass = 0;
    for (std::uint64_t k = 1; k <= kN; ++k) {
      const double p = std::pow(static_cast<double>(k), -theta);
      total_mass += p;
      if (k <= kN / 10) hot_mass += p;
    }
    ZipfianDist z(kN, theta);
    EXPECT_NEAR(measure_hot10_fraction(z, kSamples, 3), hot_mass / total_mass, 0.02)
        << "theta=" << theta;
  }
}

TEST(Zipfian, RanksWithinRange) {
  ZipfianDist z(1000, 0.9);
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(z.sample(rng), 1000u);
}

TEST(Zipfian, Rank0IsHottest) {
  ZipfianDist z(kN, 0.9);
  Xoshiro256 rng(5);
  std::uint64_t rank0 = 0, rank_other = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto r = z.sample(rng);
    if (r == 0) rank0++;
    if (r == kN / 2) rank_other++;
  }
  EXPECT_GT(rank0, rank_other * 10);
}

// The sampler keeps its draw-independent terms as members; every seeded
// stream must stay bit-identical to the per-draw formula (Gray et al., as in
// YCSB's ZipfianGenerator) evaluated here from scratch.
TEST(Zipfian, SampleSequenceMatchesPerDrawFormula) {
  constexpr std::uint64_t n = 5000;
  for (double theta : {0.0, 0.2, 0.5, 0.99}) {
    double zetan = 0, zeta2 = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      const double inv = 1.0 / std::pow(static_cast<double>(i), theta);
      zetan += inv;
      if (i <= 2) zeta2 += inv;
    }
    const double alpha = 1.0 / (1.0 - theta);
    const double eta =
        (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
        (1.0 - zeta2 / zetan);
    ZipfianDist z(n, theta);
    Xoshiro256 rng(7), ref(7);
    std::uint64_t rank1 = 0;
    for (int i = 0; i < 50000; ++i) {
      const double u = ref.next_double();
      const double uz = u * zetan;
      std::uint64_t want = 0;
      if (uz < 1.0) {
        want = 0;
      } else if (uz < 1.0 + std::pow(0.5, theta)) {
        want = 1;
      } else {
        want = static_cast<std::uint64_t>(
            static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
        if (want >= n) want = n - 1;
      }
      rank1 += want == 1;
      ASSERT_EQ(z.sample(rng), want) << "theta=" << theta << " draw " << i;
    }
    EXPECT_GT(rank1, 0u) << "theta=" << theta;
  }
}

TEST(SelfSimilar, EightyTwentyRule) {
  SelfSimilarDist d(kN, 0.2);
  // 20% hottest keys get ~80% of accesses.
  Xoshiro256 rng(6);
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    if (d.sample(rng) < kN / 5) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.80, 0.02);
}

TEST(SelfSimilar, SelfSimilarityWithinSubranges) {
  // Within the hottest 20% sub-range, the hottest 20% of *it* again draws
  // ~80% of that sub-range's accesses.
  SelfSimilarDist d(kN, 0.2);
  Xoshiro256 rng(7);
  std::uint64_t in_sub = 0, in_subsub = 0;
  for (std::uint64_t i = 0; i < kSamples * 4; ++i) {
    const auto r = d.sample(rng);
    if (r < kN / 5) {
      ++in_sub;
      if (r < kN / 25) ++in_subsub;
    }
  }
  EXPECT_NEAR(static_cast<double>(in_subsub) / static_cast<double>(in_sub), 0.80,
              0.03);
}

TEST(Normal, ConcentratedAroundMean) {
  NormalDist d(kN, 0.01);
  Xoshiro256 rng(8);
  const double mean = static_cast<double>(kN) / 2;
  std::uint64_t within_3sigma = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    const auto r = d.sample(rng);
    if (std::abs(static_cast<double>(r) - mean) < 3 * 0.01 * mean) ++within_3sigma;
  }
  EXPECT_GT(static_cast<double>(within_3sigma) / kSamples, 0.99);
}

TEST(Poisson, CalibratedHotDecileCoverage) {
  // §5.5: 10% hottest records accessed by 70% of requests.
  auto d = make_distribution(DistKind::kPoisson, kN, 0.70);
  EXPECT_NEAR(measure_hot10_fraction(*d, kSamples, 9), 0.70, 0.02);
}

TEST(Poisson, CalibrationFormula) {
  EXPECT_NEAR(calibrate_poisson_hot_weight(0.70), (0.70 - 0.1) / 0.9, 1e-12);
  EXPECT_NEAR(calibrate_poisson_hot_weight(1.0), 1.0, 1e-12);
}

TEST(Factory, AllKindsConstructAndSample) {
  for (auto kind : {DistKind::kUniform, DistKind::kZipfian, DistKind::kSelfSimilar,
                    DistKind::kNormal, DistKind::kPoisson}) {
    auto d = make_distribution(kind, 1000, 0.5);
    ASSERT_NE(d, nullptr);
    Xoshiro256 rng(10);
    for (int i = 0; i < 1000; ++i) ASSERT_LT(d->sample(rng), 1000u);
  }
}

TEST(RankToKey, ScrambleStaysInRange) {
  for (std::uint64_t r = 0; r < 1000; ++r) {
    ASSERT_LT(rank_to_key(r, 1000, true), 1000u);
    ASSERT_EQ(rank_to_key(r, 1000, false), r);
  }
}

TEST(OpStream, MixRatiosRespected) {
  WorkloadSpec spec;
  spec.mix = OpMix{20, 80, 0, 0};
  spec.key_range = 1000;
  OpStream s(spec, 0);
  std::map<OpType, int> counts;
  for (int i = 0; i < 100000; ++i) counts[s.next().type]++;
  EXPECT_NEAR(counts[OpType::kGet] / 100000.0, 0.20, 0.01);
  EXPECT_NEAR(counts[OpType::kPut] / 100000.0, 0.80, 0.01);
}

TEST(OpStream, AllFourOpTypes) {
  WorkloadSpec spec;
  spec.mix = OpMix{40, 40, 10, 10};
  OpStream s(spec, 0);
  std::map<OpType, int> counts;
  for (int i = 0; i < 100000; ++i) counts[s.next().type]++;
  EXPECT_NEAR(counts[OpType::kScan] / 100000.0, 0.10, 0.01);
  EXPECT_NEAR(counts[OpType::kDelete] / 100000.0, 0.10, 0.01);
}

TEST(OpStream, DeterministicPerThreadAndDistinctAcrossThreads) {
  WorkloadSpec spec;
  OpStream a0(spec, 0), b0(spec, 0), a1(spec, 1);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const Op x = a0.next(), y = b0.next(), z = a1.next();
    ASSERT_EQ(x.key, y.key);
    ASSERT_EQ(x.type, y.type);
    if (x.key != z.key) differs = true;  // independent key streams per thread
  }
  EXPECT_TRUE(differs);
}

TEST(OpStream, KeysWithinRange) {
  WorkloadSpec spec;
  spec.key_range = 500;
  spec.dist = DistKind::kZipfian;
  spec.dist_param = 0.9;
  OpStream s(spec, 3);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(s.next().key, 500u);
}

TEST(OpStream, InvalidMixRejected) {
  WorkloadSpec spec;
  spec.mix = OpMix{50, 60, 0, 0};
  EXPECT_DEATH({ OpStream s(spec, 0); }, "sum to 100");
}

TEST(WorkloadSpec, DescribeMentionsKeyFacts) {
  WorkloadSpec spec;
  spec.dist = DistKind::kZipfian;
  spec.dist_param = 0.9;
  const auto d = spec.describe();
  EXPECT_NE(d.find("zipfian"), std::string::npos);
  EXPECT_NE(d.find("0.9"), std::string::npos);
}

// Key text is part of every bytes-domain run's identity (key order, slices,
// goldens): pin exact strings for a few ids in both styles.
TEST(StringKeySpace, PinnedKeyText) {
  const StringKeySpace url(KeyStyle::kUrl, 42);
  EXPECT_EQ(url.key_of(0), "cache.internal.net/media/feed/0000000000000000");
  EXPECT_EQ(url.key_of(1),
            "alpha.example.com/users/inventory/0000000000000001");
  EXPECT_EQ(url.key_of(255),
            "host.example.com/profile/search/00000000000000ff");
  EXPECT_EQ(url.key_of(1000003),
            "cache.internal.net/media/keys/00000000000f4243");
  EXPECT_EQ(url.key_of(0xfedcba9876543210ull),
            "gateway.intra.net/assets/media/fedcba9876543210");
  const StringKeySpace uuid(KeyStyle::kUuid, 42);
  EXPECT_EQ(uuid.key_of(0), "3c3d5d42-8f04-45fa-bc3d-000000000000");
  EXPECT_EQ(uuid.key_of(1), "bf1a7d19-1fec-4208-bf1a-000000000001");
  EXPECT_EQ(uuid.key_of(255), "cff328b8-33be-4cb7-8ff3-0000000000ff");
  EXPECT_EQ(uuid.key_of(1000003), "6ff0c6ce-ebf3-4efa-aff0-0000000f4243");
  EXPECT_EQ(uuid.key_of(0xfedcba9876543210ull),
            "29ada3e9-bc41-47be-a9ad-ba9876543210");
}

/// printf-formatted hex, the reference for key_of's digit writer.
std::string hex_ref(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

// Every hex field of thousands of seeded ids against snprintf: the url id
// tail, and the whole uuid (all of it is hex drawn from the id's hash).
TEST(StringKeySpace, HexFieldsMatchPrintf) {
  for (const std::uint64_t seed : {1ull, 42ull, 0x9e3779b97f4a7c15ull}) {
    const StringKeySpace url(KeyStyle::kUrl, seed);
    const StringKeySpace uuid(KeyStyle::kUuid, seed);
    Xoshiro256 rng(seed);
    for (int i = 0; i < 4000; ++i) {
      // Small ids, then random widths up to 64 bits.
      const std::uint64_t shift = rng.next() & 63;
      const std::uint64_t id =
          i < 64 ? static_cast<std::uint64_t>(i) : rng.next() >> shift;
      const std::string u = url.key_of(id);
      ASSERT_GE(u.size(), 17u);
      ASSERT_EQ(u.substr(u.size() - 17), "/" + hex_ref(id, 16)) << u;
      const std::uint64_t h = mix64(seed ^ mix64(id + 1));
      const std::string want =
          hex_ref((h >> 32) & 0xffffffffull, 8) + "-" +
          hex_ref((h >> 16) & 0xffffull, 4) + "-" +
          hex_ref(0x4000 | (h & 0x0fff), 4) + "-" +
          hex_ref(0x8000 | ((h >> 48) & 0x3fff), 4) + "-" +
          hex_ref(id & 0xffffffffffffull, 12);
      ASSERT_EQ(uuid.key_of(id), want) << "id " << id;
    }
  }
}

}  // namespace
}  // namespace euno::workload
