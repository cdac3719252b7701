#pragma once

#include <cstdint>
#include <string_view>

#include "util/vec3.hpp"

namespace scalemd {

/// Deterministic, seedable xoshiro256** PRNG. Used everywhere randomness is
/// needed (synthetic system generation, initial velocities, LB tie-breaking
/// in ablation strategies) so that every experiment in the repository is
/// reproducible from a seed.
///
/// Stream splitting: one root seed fans out into any number of uncorrelated
/// named substreams via derive()/split(), so a module draws all its
/// randomness from a single seed without ad-hoc `seed + k` offsets (which
/// collide: the system built from seed 2 must not share a stream with the
/// velocities drawn from seed 1 + 1). Derivation is pure SplitMix64 mixing
/// of (root, stream tag), stable across platforms and releases — the fuzzer
/// depends on it for byte-for-byte scenario replay.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64 so that nearby
  /// seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Child seed for substream `stream` of `root`: SplitMix64-mixes both
  /// words, so derive(r, 0), derive(r, 1), ... and derive(r0, s) vs
  /// derive(r1, s) are all decorrelated. Pure function of its arguments.
  static std::uint64_t derive(std::uint64_t root, std::uint64_t stream);

  /// Named substream: hashes `tag` (FNV-1a) into a stream id first, so call
  /// sites read as derive(seed, "velocities") instead of magic indices.
  static std::uint64_t derive(std::uint64_t root, std::string_view tag);

  /// Independent child generator for substream `stream`, keyed off this
  /// generator's original seed — NOT its current position, so splitting is
  /// insensitive to how many draws happened before it.
  Rng split(std::uint64_t stream) const { return Rng(derive(seed_, stream)); }
  Rng split(std::string_view tag) const { return Rng(derive(seed_, tag)); }

  /// The seed this generator was constructed from.
  std::uint64_t seed() const { return seed_; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal variate (Box-Muller; caches the second deviate).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Uniformly distributed point inside the axis-aligned box [0,b.x)x...
  Vec3 point_in_box(const Vec3& b);

  /// Uniformly distributed unit vector (direction on the sphere).
  Vec3 unit_vector();

  /// Full generator state, for checkpoint serialization: restoring it
  /// resumes the stream exactly (including a cached Box-Muller deviate).
  struct State {
    std::uint64_t s[4];
    std::uint64_t seed;
    bool has_cached_normal;
    double cached_normal;
  };
  State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, seed_, has_cached_normal_,
                 cached_normal_};
  }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    seed_ = st.seed;
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
  }

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_ = 0;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Wire field list (rts/wire.hpp).
template <class Ar>
void fields(Ar& ar, Rng::State& st) {
  ar(st.s, st.seed, st.has_cached_normal, st.cached_normal);
}

}  // namespace scalemd
