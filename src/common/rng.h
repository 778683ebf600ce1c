// Deterministic, copyable PRNG used everywhere seeds matter.
//
// std::normal_distribution and friends are implementation-defined, so a
// libstdc++ build and a libc++ build would produce different federations
// from the same seed. Every distribution here is implemented directly
// (splitmix64 core, Box-Muller normals, Marsaglia-Tsang gammas) so runs
// reproduce bit-for-bit across compilers and platforms.
//
// splitmix64 is counter-based: draw k of a stream is a pure function of
// the seed and k (the state only ever advances by a fixed odd constant),
// so discard(n) skips n draws in O(1). That lets a long serial stream be
// cut into pieces that separate threads generate from where each piece
// starts, with the same bits as one thread drawing them in order.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace flips::common {

/// Derives a seed for a private per-(round, party) RNG stream from the
/// job seed. The FL job gives every party its own stream so local
/// training can run on any number of worker threads and still draw the
/// exact same randomness — results are bit-identical across thread
/// counts. Splitmix-style finalizer; adjacent inputs give uncorrelated
/// streams.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t round,
                              std::uint64_t party) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (round + 1) +
                    0xBF58476D1CE4E5B9ull * (party + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {
    // Warm up so adjacent seeds do not yield correlated first draws.
    next();
    next();
  }

  /// Raw 64-bit draw (splitmix64).
  std::uint64_t next() {
    std::uint64_t z = (state_ += kIncrement);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Skips the next n raw draws: same state as n calls of next().
  /// Arithmetic wraps mod 2^64, exactly like n successive increments.
  void discard(std::uint64_t n) { state_ += n * kIncrement; }

  /// Same stream position (equal states draw equal sequences).
  friend bool operator==(const Rng&, const Rng&) = default;

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform index in [0, n). Returns 0 when n == 0.
  std::size_t uniform_index(std::size_t n) {
    if (n == 0) return 0;
    return static_cast<std::size_t>(next() % n);
  }

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.141592653589793238462643 * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape < 1 boosted per their note.
  double gamma(double shape) {
    if (shape < 1.0) {
      const double u = uniform();
      return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  }

  /// Symmetric Dirichlet(alpha) draw over k categories.
  std::vector<double> dirichlet(double alpha, std::size_t k) {
    std::vector<double> out(k, 0.0);
    double sum = 0.0;
    for (auto& v : out) {
      v = gamma(alpha);
      sum += v;
    }
    if (sum <= 0.0) {
      for (auto& v : out) v = 1.0 / static_cast<double>(k);
      return out;
    }
    for (auto& v : out) v /= sum;
    return out;
  }

  /// Dirichlet with per-category concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alphas) {
    std::vector<double> out(alphas.size(), 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      out[i] = gamma(alphas[i] > 0.0 ? alphas[i] : 1e-6);
      sum += out[i];
    }
    if (sum <= 0.0) {
      for (auto& v : out) v = 1.0 / static_cast<double>(out.size());
      return out;
    }
    for (auto& v : out) v /= sum;
    return out;
  }

  /// Draws an index from an (unnormalized) weight vector.
  std::size_t categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (total <= 0.0) return uniform_index(weights.size());
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t kIncrement = 0x9E3779B97F4A7C15ull;

  std::uint64_t state_;
};

}  // namespace flips::common
