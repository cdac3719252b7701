#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/cell_list.hpp"
#include "seq/engine.hpp"
#include "seq/integrator.hpp"
#include "util/units.hpp"

namespace scalemd {
namespace {

TEST(CellGridTest, DimsAndIndexRoundTrip) {
  const CellGrid g({30, 45, 61}, 15.0);
  EXPECT_EQ(g.nx(), 2);
  EXPECT_EQ(g.ny(), 3);
  EXPECT_EQ(g.nz(), 4);
  EXPECT_EQ(g.cell_count(), 24);
  for (int c = 0; c < g.cell_count(); ++c) {
    EXPECT_EQ(g.index(g.coords(c)), c);
  }
}

TEST(CellGridTest, CellOfClampsOutside) {
  const CellGrid g({30, 30, 30}, 15.0);
  EXPECT_EQ(g.cell_of({-5, -5, -5}), g.index({0, 0, 0}));
  EXPECT_EQ(g.cell_of({35, 35, 35}), g.index({1, 1, 1}));
}

TEST(CellGridTest, CellOfClampsFarOutAndNonFinitePositions) {
  // Exploding fuzz systems reach cell_of with coordinates whose cell index
  // does not fit an int (seen: 3.6e10 and -5.2e9); they clamp like any
  // outside atom, and NaN lands in cell 0 on its axis.
  const CellGrid g({30, 30, 30}, 15.0);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(g.cell_of({3.6e10, -5.2e9, 5.0}), g.index({1, 0, 0}));
  EXPECT_EQ(g.cell_of({1e300, -1e300, 20.0}), g.index({1, 0, 1}));
  EXPECT_EQ(g.cell_of({inf, -inf, 20.0}), g.index({1, 0, 1}));
  EXPECT_EQ(g.cell_of({nan, 20.0, nan}), g.index({0, 1, 0}));
}

TEST(CellGridTest, NeighborPairCount) {
  // 3x3x3 grid: 27 cells; total neighbor pairs = (27*26 - non-adjacent)/2.
  // Count by brute force instead: every pair with max coord delta 1.
  const CellGrid g({45, 45, 45}, 15.0);
  const auto pairs = g.neighbor_pairs();
  std::size_t expected = 0;
  for (int a = 0; a < 27; ++a) {
    for (int b = a + 1; b < 27; ++b) {
      const Int3 ca = g.coords(a);
      const Int3 cb = g.coords(b);
      if (std::abs(ca.x - cb.x) <= 1 && std::abs(ca.y - cb.y) <= 1 &&
          std::abs(ca.z - cb.z) <= 1) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(pairs.size(), expected);
  // Each pair listed once with a < b.
  for (const auto& [a, b] : pairs) EXPECT_LT(a, b);
}

TEST(CellGridTest, InteriorCellHas26Neighbors) {
  const CellGrid g({60, 60, 60}, 15.0);  // 4x4x4
  const int center = g.index({1, 1, 1});
  int count = 0;
  for (const auto& [a, b] : g.neighbor_pairs()) {
    if (a == center || b == center) ++count;
  }
  EXPECT_EQ(count, 26);
}

TEST(CellGridTest, UpstreamNeighborsMatchPaper) {
  const CellGrid g({60, 60, 60}, 15.0);  // 4x4x4
  // Interior cell: exactly 7 upstream neighbors (paper section 3).
  EXPECT_EQ(g.upstream_neighbors(g.index({1, 1, 1})).size(), 7u);
  // Top corner: none.
  EXPECT_EQ(g.upstream_neighbors(g.index({3, 3, 3})).size(), 0u);
  // All upstream coords are >= the cell's own coords.
  const Int3 c{1, 2, 0};
  for (int u : g.upstream_neighbors(g.index(c))) {
    const Int3 cu = g.coords(u);
    EXPECT_GE(cu.x, c.x);
    EXPECT_GE(cu.y, c.y);
    EXPECT_GE(cu.z, c.z);
  }
}

TEST(CellGridTest, ShareFaceDistinguishesFaceFromEdgeCorner) {
  const CellGrid g({60, 60, 60}, 15.0);
  EXPECT_TRUE(g.share_face(g.index({1, 1, 1}), g.index({2, 1, 1})));
  EXPECT_FALSE(g.share_face(g.index({1, 1, 1}), g.index({2, 2, 1})));
  EXPECT_FALSE(g.share_face(g.index({1, 1, 1}), g.index({2, 2, 2})));
}

TEST(CellListTest, EveryAtomAssignedExactlyOnce) {
  const Molecule m = make_water_box({25, 25, 25}, 3);
  const CellGrid g(m.box, 12.0);
  const CellList cl(g, m.positions());
  std::vector<int> seen(static_cast<std::size_t>(m.atom_count()), 0);
  for (int c = 0; c < g.cell_count(); ++c) {
    for (int a : cl.atoms_in(c)) {
      ++seen[static_cast<std::size_t>(a)];
      EXPECT_EQ(g.cell_of(m.positions()[static_cast<std::size_t>(a)]), c);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(IntegratorTest, FreeParticleDrift) {
  const VelocityVerlet vv(2.0);
  std::vector<Vec3> x{{0, 0, 0}};
  const std::vector<Vec3> v{{1, 2, 3}};
  vv.drift(v, x);
  const double dt = 2.0 / units::kAkmaTimeFs;
  EXPECT_NEAR(x[0].x, dt, 1e-15);
  EXPECT_NEAR(x[0].z, 3 * dt, 1e-15);
}

TEST(IntegratorTest, KineticEnergyAndTemperature) {
  const std::vector<Vec3> v{{1, 0, 0}, {0, 2, 0}};
  const std::vector<double> m{2.0, 3.0};
  const double ke = kinetic_energy(v, m);
  EXPECT_DOUBLE_EQ(ke, 0.5 * 2 * 1 + 0.5 * 3 * 4);
  EXPECT_GT(temperature(ke, 6), 0.0);
  EXPECT_DOUBLE_EQ(temperature(ke, 0), 0.0);
}

TEST(EngineTest, ForcesAreTranslationInvariantSum) {
  // Total force on an isolated system must vanish (Newton's third law over
  // all kernels).
  const Molecule m = small_solvated_chain(600, 21);
  SequentialEngine eng(m, {});
  Vec3 total;
  double magnitude = 0.0;
  for (const Vec3& f : eng.forces()) {
    total += f;
    magnitude += norm(f);
  }
  // Tolerance is relative to the summed force magnitude: clashes in the
  // unequilibrated start produce huge canceling pair forces.
  EXPECT_NEAR(norm(total), 0.0, 1e-11 * magnitude + 1e-9);
}

TEST(EngineTest, EnergyConservationNVE) {
  Molecule m = make_water_box({16, 16, 16}, 5);
  m.assign_velocities(300.0, 99);
  EngineOptions opts;
  opts.nonbonded.cutoff = 7.5;
  opts.nonbonded.switch_dist = 6.0;
  opts.dt_fs = 0.5;
  SequentialEngine eng(m, opts);
  const double e0 = eng.total_energy();
  eng.run(100);
  const double e1 = eng.total_energy();
  // 0.5 fs flexible water: drift should be well under 1% of |E|.
  EXPECT_NEAR(e1, e0, 0.01 * std::max(1.0, std::fabs(e0)));
}

TEST(EngineTest, WaterBoxEnergySane) {
  // The generated box is unequilibrated (random orientations), so we check
  // the potential per water is modest — no catastrophic clashes — and that
  // bonded terms start at their minima (exact placement geometry).
  const Molecule m = make_water_box({20, 20, 20}, 5);
  SequentialEngine eng(m, {});
  const int waters = m.atom_count() / 3;
  const double e_per_water = eng.potential().total() / waters;
  EXPECT_LT(std::fabs(e_per_water), 25.0);
  EXPECT_NEAR(eng.potential().bond, 0.0, 1e-6);
  EXPECT_NEAR(eng.potential().angle, 0.0, 1e-6);
}

TEST(EngineTest, WorkCountersPopulated) {
  const Molecule m = small_solvated_chain(900, 23);
  SequentialEngine eng(m, {});
  const WorkCounters& w = eng.work();
  EXPECT_GT(w.pairs_tested, 0u);
  EXPECT_GT(w.pairs_computed, 0u);
  EXPECT_GE(w.pairs_tested, w.pairs_computed);
  EXPECT_EQ(w.bonded_terms, m.bonds().size() + m.angles().size() +
                                m.dihedrals().size() + m.impropers().size());
}

TEST(EngineTest, StepAdvancesPositions) {
  Molecule m = make_water_box({14, 14, 14}, 8);
  m.assign_velocities(300.0, 1);
  EngineOptions opts;
  opts.nonbonded.cutoff = 6.0;
  opts.nonbonded.switch_dist = 5.0;
  SequentialEngine eng(m, opts);
  const Vec3 before = eng.positions()[0];
  eng.step();
  EXPECT_GT(norm(eng.positions()[0] - before), 0.0);
}

}  // namespace
}  // namespace scalemd
