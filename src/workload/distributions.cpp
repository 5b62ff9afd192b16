#include "workload/distributions.hpp"

#include <map>
#include <mutex>

#include "util/assert.hpp"

namespace euno::workload {

std::string dist_kind_name(DistKind k) {
  switch (k) {
    case DistKind::kUniform: return "uniform";
    case DistKind::kZipfian: return "zipfian";
    case DistKind::kSelfSimilar: return "selfsimilar";
    case DistKind::kNormal: return "normal";
    case DistKind::kPoisson: return "poisson";
  }
  return "?";
}

namespace {

double zeta(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

// ζ(n, θ) is O(n) to compute; benches sweep θ over the same key range many
// times, so memoize.
double zeta_cached(std::uint64_t n, double theta) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>, double> cache;
  std::lock_guard<std::mutex> g(mu);
  auto key = std::make_pair(n, theta);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const double z = zeta(n, theta);
  cache.emplace(key, z);
  return z;
}

}  // namespace

ZipfianDist::ZipfianDist(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  EUNO_ASSERT(n >= 2);
  EUNO_ASSERT(theta >= 0.0 && theta < 1.0);
  zetan_ = zeta_cached(n, theta);
  zeta2theta_ = zeta_cached(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta);
}

std::uint64_t ZipfianDist::sample(Xoshiro256& rng) {
  // Gray et al. "Quickly generating billion-record synthetic databases",
  // as used by YCSB's ZipfianGenerator.
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

SelfSimilarDist::SelfSimilarDist(std::uint64_t n, double h) : n_(n) {
  EUNO_ASSERT(h > 0.0 && h < 0.5);
  exponent_ = std::log(h) / std::log(1.0 - h);
}

std::uint64_t SelfSimilarDist::sample(Xoshiro256& rng) {
  const double u = rng.next_double();
  auto rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                         std::pow(u, exponent_));
  return rank >= n_ ? n_ - 1 : rank;
}

NormalDist::NormalDist(std::uint64_t n, double sigma_frac) : n_(n) {
  mean_ = static_cast<double>(n) / 2.0;
  sigma_ = sigma_frac * mean_;
  EUNO_ASSERT(sigma_ > 0);
}

std::uint64_t NormalDist::sample(Xoshiro256& rng) {
  // Box-Muller. One draw per sample is plenty; the pair's second value is
  // discarded to keep the generator stateless.
  const double u1 = rng.next_double();
  const double u2 = rng.next_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(2.0 * M_PI * u2);
  double v = mean_ + sigma_ * z;
  if (v < 0) v = 0;
  if (v >= static_cast<double>(n_)) v = static_cast<double>(n_ - 1);
  return static_cast<std::uint64_t>(v);
}

PoissonDist::PoissonDist(std::uint64_t n, double lambda, double hot_weight)
    : n_(n), lambda_(lambda), hot_weight_(hot_weight), sqrt_lambda_(std::sqrt(lambda)) {
  EUNO_ASSERT(lambda > 0);
  EUNO_ASSERT(hot_weight >= 0.0 && hot_weight <= 1.0);
}

std::uint64_t PoissonDist::sample(Xoshiro256& rng) {
  if (rng.next_double() >= hot_weight_) return rng.next_bounded(n_);
  // For the hotspot we use the normal approximation of Poisson(λ), which is
  // accurate for the λ ≥ 100 used in benches and avoids O(λ) sampling.
  const double u1 = rng.next_double();
  const double u2 = rng.next_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(2.0 * M_PI * u2);
  double v = lambda_ + sqrt_lambda_ * z;
  if (v < 0) v = 0;
  if (v >= static_cast<double>(n_)) v = static_cast<double>(n_ - 1);
  return static_cast<std::uint64_t>(v);
}

double calibrate_poisson_hot_weight(double hot10_target) {
  EUNO_ASSERT(hot10_target > 0.1 && hot10_target <= 1.0);
  // hot_weight * 1.0 + (1 - hot_weight) * 0.1 = hot10_target
  return (hot10_target - 0.1) / 0.9;
}

std::unique_ptr<RankDistribution> make_distribution(DistKind kind, std::uint64_t n,
                                                    double param) {
  switch (kind) {
    case DistKind::kUniform:
      return std::make_unique<UniformDist>(n);
    case DistKind::kZipfian:
      return std::make_unique<ZipfianDist>(n, param);
    case DistKind::kSelfSimilar:
      // `param` is h in (0, 0.5); anything else selects the 80-20 default.
      return std::make_unique<SelfSimilarDist>(
          n, (param > 0 && param < 0.5) ? param : 0.2);
    case DistKind::kNormal:
      return std::make_unique<NormalDist>(n, param > 0 ? param : 0.01);
    case DistKind::kPoisson: {
      // `param` is the hot-10% target fraction; the hotspot is centred well
      // inside the hottest decile.
      const double target = param > 0 ? param : 0.70;
      // The hotspot is a narrow band (the paper's Poisson contends a small
      // set of leaves); its position is well inside the hottest decile.
      const double lambda = std::max(64.0, static_cast<double>(n) * 0.001);
      return std::make_unique<PoissonDist>(n, lambda,
                                           calibrate_poisson_hot_weight(target));
    }
  }
  EUNO_ASSERT_MSG(false, "unknown distribution kind");
  return nullptr;
}

double measure_hot10_fraction(RankDistribution& dist, std::uint64_t samples,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::uint64_t decile = dist.range() / 10;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    if (dist.sample(rng) < decile) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace euno::workload
