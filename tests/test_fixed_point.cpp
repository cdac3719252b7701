#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/parallel_sim.hpp"
#include "fuzz/scenario.hpp"
#include "gen/test_systems.hpp"
#include "gen/water_box.hpp"
#include "util/fixed_point.hpp"

namespace scalemd {
namespace {

using S128 = __int128;

S128 as_int(const Fixed128& v) {
  return static_cast<S128>((static_cast<unsigned __int128>(v.hi) << 64) | v.lo);
}

/// The fixed-point integer of an accepted contribution.
S128 fixed_of(double x) {
  bool ok = true;
  const Fixed128 v = to_fixed(x, ok);
  EXPECT_TRUE(ok) << x;
  return as_int(v);
}

constexpr S128 kOne = S128{1};
const double kUnit = std::ldexp(1.0, -kForceFracBits);

TEST(FixedPointTest, ConvertsToExactIntegers) {
  EXPECT_EQ(fixed_of(0.0), 0);
  EXPECT_EQ(fixed_of(-0.0), 0);
  EXPECT_EQ(fixed_of(std::numeric_limits<double>::denorm_min()), 0);
  EXPECT_EQ(fixed_of(-std::numeric_limits<double>::denorm_min()), 0);
  EXPECT_EQ(fixed_of(std::numeric_limits<double>::min()), 0);
  EXPECT_EQ(fixed_of(kUnit), 1);
  EXPECT_EQ(fixed_of(-kUnit), -1);
  EXPECT_EQ(fixed_of(1.0), kOne << 40);
  EXPECT_EQ(fixed_of(-2.75), -(S128{11} << 38));
  EXPECT_EQ(fixed_of(0.75 * kUnit), 1);
  EXPECT_EQ(fixed_of(-0.25 * kUnit), 0);
  // Ties round half to even.
  EXPECT_EQ(fixed_of(0.5 * kUnit), 0);
  EXPECT_EQ(fixed_of(1.5 * kUnit), 2);
  EXPECT_EQ(fixed_of(2.5 * kUnit), 2);
  EXPECT_EQ(fixed_of(-1.5 * kUnit), -2);
  EXPECT_EQ(fixed_of(-2.5 * kUnit), -2);
  EXPECT_EQ(fixed_of(1.0 + 0.5 * kUnit), kOne << 40);
  EXPECT_EQ(fixed_of(1.0 + 1.5 * kUnit), (kOne << 40) + 2);
  // The llrint fast path ends where x * 2^40 reaches 2^62 (x = 2^22).
  const double fast_top = std::nextafter(0x1p22, 0.0);  // 2^22 - 2^-31
  EXPECT_EQ(fixed_of(fast_top), (kOne << 62) - 512);
  EXPECT_EQ(fixed_of(-fast_top), -((kOne << 62) - 512));
  EXPECT_EQ(fixed_of(0x1p22), kOne << 62);
  EXPECT_EQ(fixed_of(-0x1p22), -(kOne << 62));
  // Beyond it, the integer/fraction split.
  EXPECT_EQ(fixed_of(123456789012.375), S128{123456789012} * (kOne << 40) + (S128{3} << 37));
  EXPECT_EQ(fixed_of(-123456789012.375), -(S128{123456789012} * (kOne << 40) + (S128{3} << 37)));
  EXPECT_EQ(fixed_of(2.7e14), S128{270000000000000} << 40);
  const double top = std::nextafter(kForceLimit, 0.0);  // 2^62 - 2^9
  EXPECT_EQ(fixed_of(top), (kOne << 102) - (kOne << 49));
  EXPECT_EQ(fixed_of(-top), -((kOne << 102) - (kOne << 49)));
}

TEST(FixedPointTest, RejectsNonFiniteAndOutOfRange) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {std::nan(""), -std::nan(""), inf, -inf, kForceLimit, -kForceLimit,
                   std::nextafter(kForceLimit, inf), 1e300,
                   std::numeric_limits<double>::max()}) {
    bool ok = true;
    const Fixed128 v = to_fixed(x, ok);
    EXPECT_FALSE(ok) << x;
    EXPECT_EQ(as_int(v), 0) << x;
  }
  // A rejected component adds nothing; the others still add.
  std::vector<FixedVec3> acc(2);
  const std::vector<Vec3> f = {{1.0, std::nan(""), 2.0}, {kForceLimit, -1.0, 0.0}};
  EXPECT_FALSE(add_fixed(acc, f));
  EXPECT_EQ(acc[0].to_vec3(), Vec3(1.0, 0.0, 2.0));
  EXPECT_EQ(acc[1].to_vec3(), Vec3(0.0, -1.0, 0.0));
  EXPECT_TRUE(add_fixed(acc, std::vector<Vec3>{{0.5, 0.5, 0.5}}));
  EXPECT_EQ(acc[0].to_vec3(), Vec3(1.5, 0.5, 2.5));
}

TEST(FixedPointTest, ConvertsBackToTheNearestDouble) {
  for (double x : {0.0, kUnit, -kUnit, 1.25, -3.0, 4096.5, -1e6, 0x1p61,
                   -123456789012.375}) {
    bool ok = true;
    EXPECT_EQ(from_fixed(to_fixed(x, ok)), x);
  }
  // Beyond 53 significant bits the conversion rounds to nearest, below and
  // above 64 bits: 2^54 + 1 and 2^64 + 2^11 + 1 units.
  EXPECT_EQ(from_fixed(Fixed128{(std::uint64_t{1} << 54) + 1, 0}), 0x1p14);
  EXPECT_EQ(from_fixed(Fixed128{(std::uint64_t{1} << 11) + 1, 1}), 0x1p24 + 0x1p-28);
  EXPECT_EQ(from_fixed(Fixed128{~std::uint64_t{0}, ~std::uint64_t{0}}), -kUnit);
  EXPECT_EQ(from_fixed(Fixed128{0, ~std::uint64_t{0}}), -0x1p24);
}

TEST(FixedPointTest, SumsAreOrderIndependent) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> exponent(-12.0, 14.0);
  bool ok = true;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(300);
    for (double& x : xs) {
      x = std::pow(10.0, exponent(rng));
      if ((rng() & 1) != 0) x = -x;
    }
    Fixed128 ref;
    for (double x : xs) ref += to_fixed(x, ok);
    double dref = 0.0;
    for (double x : xs) dref += x;
    bool double_sums_differ = false;
    for (int perm = 0; perm < 10; ++perm) {
      std::shuffle(xs.begin(), xs.end(), rng);
      // Random groups, summed on their own first: computes into proxies,
      // proxies into a patch.
      Fixed128 total;
      double dtotal = 0.0;
      for (std::size_t i = 0; i < xs.size();) {
        const std::size_t end = std::min(xs.size(), i + 1 + rng() % 40);
        Fixed128 part;
        for (; i < end; ++i) {
          part += to_fixed(xs[i], ok);
          dtotal += xs[i];
        }
        total += part;
      }
      EXPECT_EQ(total, ref) << "trial " << trial << " permutation " << perm;
      double_sums_differ |= dtotal != dref;
    }
    // The inputs are ones on which order matters in double.
    EXPECT_TRUE(double_sums_differ) << "trial " << trial;
  }
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// The runtime's accumulators end to end.
// ---------------------------------------------------------------------------

/// A system of the scenario fuzzer with its nonbonded options, built as the
/// differential harness builds it.
struct FuzzSystem {
  Molecule mol;
  NonbondedOptions nb;
};

FuzzSystem fuzz_system(const ScenarioSpec& spec) {
  TestSystemOptions sys;
  sys.kind = spec.kind;
  sys.box = {spec.box, spec.box, spec.box};
  sys.chain_beads = spec.chain_beads;
  sys.seed = spec.seed;
  FuzzSystem out{make_test_system(sys), {}};
  out.nb.kernel = spec.kernel;
  out.nb.cutoff = std::clamp(out.mol.suggested_patch_size - 1.0, 3.5, 6.5);
  out.nb.switch_dist = out.nb.cutoff - 1.0;
  return out;
}

struct RunState {
  std::vector<Vec3> pos, vel, frc;
  double max_force = 0.0;
};

RunState run_three_cycles(const Workload& wl, BackendKind backend) {
  ParallelOptions o;
  o.num_pes = 4;
  o.numeric = true;
  o.dt_fs = 0.5;
  o.backend = backend;
  o.threads = 2;
  ParallelSim sim(wl, o);
  RunState r;
  for (int c = 0; c < 3; ++c) {
    if (c > 0) sim.load_balance();
    sim.run_cycle(2);
    for (const Vec3& f : sim.gather_forces()) {
      r.max_force = std::max({r.max_force, std::fabs(f.x), std::fabs(f.y), std::fabs(f.z)});
    }
  }
  r.pos = sim.gather_positions();
  r.vel = sim.gather_velocities();
  r.frc = sim.gather_forces();
  return r;
}

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

TEST(FixedForceTest, ClashSystemMatchesAcrossBackendsBitwise) {
  // Case 195 of the seed-1 campaign: a membrane patch whose clashes push
  // forces past 1e12 kcal/mol/A, out of reach of a 64-bit accumulator at
  // 2^-32 (2^31). The process leg is ProcessFuzzLeg.ClashSpecPasses.
  const FuzzSystem sys = fuzz_system(generate_scenario(1, 195));
  const Workload wl(sys.mol, MachineModel::asci_red(), sys.nb);
  const RunState des = run_three_cycles(wl, BackendKind::kSimulated);
  const RunState threads = run_three_cycles(wl, BackendKind::kThreaded);
  EXPECT_GT(des.max_force, 0x1p31);
  EXPECT_TRUE(same_bits(threads.pos, des.pos));
  EXPECT_TRUE(same_bits(threads.vel, des.vel));
  EXPECT_TRUE(same_bits(threads.frc, des.frc));
}

TEST(FixedForceTest, NanCoordinateThrowsForceRangeError) {
  Molecule mol = make_water_box({16.0, 16.0, 16.0}, /*seed=*/11);
  mol.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  // The sim reads coordinates from the molecule when it is built.
  mol.positions()[4].y = std::nan("");
  for (BackendKind backend : {BackendKind::kSimulated, BackendKind::kThreaded}) {
    ParallelOptions o;
    o.num_pes = 4;
    o.numeric = true;
    o.backend = backend;
    ParallelSim sim(wl, o);
    EXPECT_THROW(sim.run_cycle(2), ForceRangeError) << backend_name(backend);
  }
}

}  // namespace
}  // namespace scalemd
