// Key-popularity distributions used by the YCSB-style workload generator.
//
// These implement the four input distributions of the paper's §5.5 plus
// uniform, with the same parameterizations:
//   - Zipfian(θ): P(rank k) ∝ (1/k)^θ   (Gray et al., YCSB's generator)
//   - Self-similar: 80-20 rule (Gray et al.)
//   - Normal: mean N/2, stddev = 1% of mean (§5.5)
//   - Poisson: mode-centred with a uniform background, calibrated so the
//     hottest 10% of keys draw a target fraction of accesses (§5.5 sets 70%)
//
// All generators map a popularity *rank* (0 = hottest) to a key id. With
// `scramble` (YCSB's ScrambledZipfian behaviour) ranks are hashed over the
// key space so hot keys are scattered across the tree; without it hot keys
// are consecutive, maximizing cache-line sharing — useful for stressing the
// false-conflict analysis.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace euno::workload {

enum class DistKind {
  kUniform,
  kZipfian,
  kSelfSimilar,
  kNormal,
  kPoisson,
};

std::string dist_kind_name(DistKind k);

/// Draws popularity ranks in [0, n).
class RankDistribution {
 public:
  virtual ~RankDistribution() = default;
  virtual std::uint64_t sample(Xoshiro256& rng) = 0;
  virtual std::uint64_t range() const = 0;
};

class UniformDist final : public RankDistribution {
 public:
  explicit UniformDist(std::uint64_t n) : n_(n) {}
  std::uint64_t sample(Xoshiro256& rng) override { return rng.next_bounded(n_); }
  std::uint64_t range() const override { return n_; }

 private:
  std::uint64_t n_;
};

/// YCSB-style Zipfian over [0, n) with skew θ. Uses the Gray et al. rejection
/// inversion; ζ(n, θ) is computed once and cached per (n, θ).
class ZipfianDist final : public RankDistribution {
 public:
  ZipfianDist(std::uint64_t n, double theta);
  std::uint64_t sample(Xoshiro256& rng) override;
  std::uint64_t range() const override { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double rank1_bound_;  // 1 + 0.5^θ: u·ζ(n) below it (and >= 1) draws rank 1
};

/// Gray et al. self-similar distribution: fraction h of accesses hit fraction
/// (1-h)·n... more precisely, the hottest h·n ranks receive (1-h) of the
/// accesses. The paper's "80-20 rule" is h = 0.2.
class SelfSimilarDist final : public RankDistribution {
 public:
  SelfSimilarDist(std::uint64_t n, double h = 0.2);
  std::uint64_t sample(Xoshiro256& rng) override;
  std::uint64_t range() const override { return n_; }

 private:
  std::uint64_t n_;
  double exponent_;  // log(h) / log(1 - h)
};

/// Normal over ranks with mean n/2 and stddev = sigma_frac * mean, clamped
/// to [0, n). §5.5 uses sigma_frac = 0.01.
class NormalDist final : public RankDistribution {
 public:
  NormalDist(std::uint64_t n, double sigma_frac = 0.01);
  std::uint64_t sample(Xoshiro256& rng) override;
  std::uint64_t range() const override { return n_; }

 private:
  std::uint64_t n_;
  double mean_;
  double sigma_;
};

/// Poisson-shaped hotspot: with probability `hot_weight` draws from a Poisson
/// centred at rank `lambda`, otherwise uniform background. `calibrate_poisson`
/// solves for hot_weight so the hottest 10% of keys receive `hot10_target`
/// of the accesses (the paper's §5.5 uses 0.70).
class PoissonDist final : public RankDistribution {
 public:
  PoissonDist(std::uint64_t n, double lambda, double hot_weight);
  std::uint64_t sample(Xoshiro256& rng) override;
  std::uint64_t range() const override { return n_; }

 private:
  std::uint64_t n_;
  double lambda_;
  double hot_weight_;
  double sqrt_lambda_;
};

/// Returns the hot_weight for PoissonDist such that the hottest 10% of keys
/// receive ~`hot10_target` of accesses. A Poisson with lambda << n places
/// essentially all of its own mass inside the hottest decile, so the answer
/// is analytic: hot_weight + (1 - hot_weight) * 0.1 = hot10_target.
double calibrate_poisson_hot_weight(double hot10_target);

/// Factory from (kind, n, skew parameter). `param` means: θ for Zipfian,
/// h for self-similar, sigma_frac for Normal, hot10 target for Poisson.
std::unique_ptr<RankDistribution> make_distribution(DistKind kind, std::uint64_t n,
                                                    double param);

/// Maps a popularity rank to a key id, optionally scrambling (hash-permuting)
/// it over the key space.
inline std::uint64_t rank_to_key(std::uint64_t rank, std::uint64_t n, bool scramble) {
  return scramble ? mix64(rank) % n : rank;
}

/// Measures the fraction of accesses that fall on the hottest 10% of keys.
/// Test/diagnostic helper: draws `samples` and counts how many land in the
/// top decile of the *rank* space.
double measure_hot10_fraction(RankDistribution& dist, std::uint64_t samples,
                              std::uint64_t seed);

}  // namespace euno::workload
