#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "core/parallel_sim.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "topo/exclusions.hpp"

namespace scalemd {
namespace {

/// Relative tolerance for tiled-vs-scalar comparisons. The kernels perform
/// the same per-pair arithmetic; differences come only from accumulator
/// association and the premultiplied Coulomb charge, both far below this.
constexpr double kRelTol = 1e-9;

void expect_close(double a, double b, const char* what) {
  EXPECT_NEAR(a, b, kRelTol * std::max(1.0, std::max(std::fabs(a), std::fabs(b))))
      << what;
}

void expect_energy_close(const EnergyTerms& a, const EnergyTerms& b) {
  expect_close(a.lj, b.lj, "lj");
  expect_close(a.elec, b.elec, "elec");
}

void expect_forces_close(std::span<const Vec3> a, std::span<const Vec3> b) {
  ASSERT_EQ(a.size(), b.size());
  // Tolerance relative to the largest force in the system: clashy generated
  // configurations produce large canceling pair forces.
  double scale = 1.0;
  for (const Vec3& f : b) scale = std::max(scale, norm(f));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(norm(a[i] - b[i]), 0.0, kRelTol * scale) << "atom " << i;
  }
}

/// Per-atom data the direct kernel entry points need, extracted the same way
/// the engines do it.
struct KernelSystem {
  explicit KernelSystem(const Molecule& m, NonbondedOptions opts = {})
      : mol(m), excl(ExclusionTable::build(m)) {
    for (const Atom& a : mol.atoms()) {
      charges.push_back(a.charge);
      lj_types.push_back(a.lj_type);
    }
    nb = opts;
    ctx = std::make_unique<NonbondedContext>(mol.params, excl, charges, lj_types, nb);
  }

  Molecule mol;
  ExclusionTable excl;
  std::vector<double> charges;
  std::vector<int> lj_types;
  NonbondedOptions nb;
  std::unique_ptr<NonbondedContext> ctx;
};

/// `sets` (global atom ids) laid out one after another with their SoA tiles,
/// as the engines lay out cells and patches.
SetLayout layout_of(const KernelSystem& sys,
                    std::initializer_list<std::span<const int>> sets) {
  SetLayout layout;
  layout.clear(sys.mol.atom_count());
  for (std::span<const int> set : sets) layout.add(set, sys.mol.positions());
  layout.gather_tiles(*sys.ctx);
  return layout;
}

std::vector<Vec3> positions_of(const KernelSystem& sys, std::span<const int> idx) {
  std::vector<Vec3> pos;
  for (int i : idx) pos.push_back(sys.mol.positions()[static_cast<std::size_t>(i)]);
  return pos;
}

// ---------------------------------------------------------------------------
// Direct kernel equivalence: the tile entry points against their scalar
// counterparts on a bonded chain (exclusions + 1-4 pairs present).
// ---------------------------------------------------------------------------

TEST(TiledKernelTest, SelfMatchesScalarOnBondedChain) {
  NonbondedOptions opts;
  opts.cutoff = 7.5;
  opts.switch_dist = 6.5;
  KernelSystem sys(small_solvated_chain(500, 11), opts);
  const int n = sys.mol.atom_count();
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  const auto pos = sys.mol.positions();
  const SetLayout layout = layout_of(sys, {idx});

  std::vector<Vec3> f_ref(static_cast<std::size_t>(n));
  std::vector<Vec3> f_tiled(static_cast<std::size_t>(n));
  WorkCounters w_ref, w_tiled;
  const EnergyTerms e_ref = nonbonded_self(*sys.ctx, idx, pos, f_ref, w_ref);
  TileScratch scratch;
  const EnergyTerms e_tiled =
      nonbonded_self_tile_range(*sys.ctx, layout.tile(0), 0, layout.where(), f_tiled,
                                0, idx.size(), w_tiled, scratch);

  expect_energy_close(e_tiled, e_ref);
  expect_forces_close(f_tiled, f_ref);
  EXPECT_EQ(w_tiled.pairs_tested, w_ref.pairs_tested);
  EXPECT_EQ(w_tiled.pairs_computed, w_ref.pairs_computed);
  EXPECT_GT(w_tiled.pairs_computed, 0u);
}

TEST(TiledKernelTest, AbMatchesScalarAcrossBondedSplit) {
  // Split the chain mid-molecule so bonds (full exclusions) and 1-4 pairs
  // cross the a/b boundary — the mask build must translate global exclusion
  // lists into the partner set's local bits.
  NonbondedOptions opts;
  opts.cutoff = 7.5;
  opts.switch_dist = 6.5;
  KernelSystem sys(small_solvated_chain(500, 13), opts);
  const int n = sys.mol.atom_count();
  const int half = n / 2 + 1;  // odd split, mid-residue
  std::vector<int> ia, ib;
  for (int i = 0; i < n; ++i) (i < half ? ia : ib).push_back(i);
  const std::vector<Vec3> pa = positions_of(sys, ia), pb = positions_of(sys, ib);
  const SetLayout layout = layout_of(sys, {ia, ib});

  std::vector<Vec3> fa_ref(pa.size()), fb_ref(pb.size());
  std::vector<Vec3> fa_t(pa.size()), fb_t(pb.size());
  WorkCounters w_ref, w_tiled;
  const EnergyTerms e_ref =
      nonbonded_ab(*sys.ctx, ia, pa, fa_ref, ib, pb, fb_ref, w_ref);
  TileScratch scratch;
  const EnergyTerms e_tiled =
      nonbonded_ab_tile_range(*sys.ctx, layout.tile(0), fa_t, layout.tile(1), 1,
                              layout.where(), fb_t, 0, ia.size(), w_tiled, scratch);

  expect_energy_close(e_tiled, e_ref);
  expect_forces_close(fa_t, fa_ref);
  expect_forces_close(fb_t, fb_ref);
  EXPECT_EQ(w_tiled.pairs_tested, w_ref.pairs_tested);
  EXPECT_EQ(w_tiled.pairs_computed, w_ref.pairs_computed);
}

TEST(TiledKernelTest, RangePartitionSumsToFullEvaluation) {
  // Row-range invocations (the unit ParallelSim's split computes use) must
  // tile the full result exactly.
  NonbondedOptions opts;
  opts.cutoff = 6.5;
  opts.switch_dist = 5.5;
  KernelSystem sys(make_water_box({14, 14, 14}, 7), opts);
  const int n = sys.mol.atom_count();
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  const SetLayout layout = layout_of(sys, {idx});

  TileScratch scratch;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<Vec3> f_full(un);
  WorkCounters w_full;
  const EnergyTerms e_full = nonbonded_self_tile_range(
      *sys.ctx, layout.tile(0), 0, layout.where(), f_full, 0, un, w_full, scratch);

  std::vector<Vec3> f_sum(un);
  WorkCounters w_sum;
  EnergyTerms e_sum;
  for (std::size_t b = 0; b < un; b += 37) {
    e_sum += nonbonded_self_tile_range(*sys.ctx, layout.tile(0), 0, layout.where(),
                                       f_sum, b, std::min(un, b + 37), w_sum, scratch);
  }

  EXPECT_EQ(w_sum.pairs_tested, w_full.pairs_tested);
  EXPECT_EQ(w_sum.pairs_computed, w_full.pairs_computed);
  expect_energy_close(e_sum, e_full);
  expect_forces_close(f_sum, f_full);
}

// The split pieces the runtime evaluates, on interleaved sets whose
// exclusions cross the set boundary, through one scratch reused across
// differently shaped calls (stale masks would show), against the scalar
// range kernels.
TEST(TiledKernelTest, TileRangesMatchScalarRangesAcrossSetBoundary) {
  NonbondedOptions opts;
  opts.cutoff = 7.5;
  opts.switch_dist = 6.5;
  KernelSystem sys(small_solvated_chain(600, 23), opts);
  const int n = sys.mol.atom_count();
  // Interleaved split: bonds and 1-4 pairs cross the a/b boundary, and
  // neither set is a contiguous id range.
  std::vector<int> ia, ib;
  for (int i = 0; i < n; ++i) ((i / 5) % 2 == 0 ? ia : ib).push_back(i);
  const std::vector<Vec3> pa = positions_of(sys, ia), pb = positions_of(sys, ib);
  const SetLayout layout = layout_of(sys, {ia, ib});
  const TileView ta = layout.tile(0);
  const TileView tb = layout.tile(1);

  TileScratch scratch;
  const std::size_t na = ia.size();
  const std::vector<std::pair<std::size_t, std::size_t>> pieces = {
      {0, na}, {0, na / 3}, {na / 3, na / 3 + 37}, {na / 3 + 37, na}, {na, na}};

  std::vector<Vec3> fa_ref(na), fa_got(na), fb_ref(ib.size()), fb_got(ib.size());
  std::vector<Vec3> fs_ref(na), fs_got(na);
  WorkCounters w_total;
  for (const auto& [b, e] : pieces) {
    WorkCounters w_ref, w_got;
    expect_energy_close(
        nonbonded_ab_tile_range(*sys.ctx, ta, fa_got, tb, 1, layout.where(), fb_got,
                                b, e, w_got, scratch),
        nonbonded_ab_range(*sys.ctx, ia, pa, fa_ref, ib, pb, fb_ref, b, e, w_ref));
    expect_energy_close(
        nonbonded_self_tile_range(*sys.ctx, ta, 0, layout.where(), fs_got, b, e,
                                  w_got, scratch),
        nonbonded_self_range(*sys.ctx, ia, pa, fs_ref, b, e, w_ref));
    EXPECT_EQ(w_got.pairs_tested, w_ref.pairs_tested) << "rows " << b << ".." << e;
    EXPECT_EQ(w_got.pairs_computed, w_ref.pairs_computed) << "rows " << b << ".." << e;
    w_total += w_got;
  }
  expect_forces_close(fa_got, fa_ref);
  expect_forces_close(fb_got, fb_ref);
  expect_forces_close(fs_got, fs_ref);
  EXPECT_GT(w_total.pairs_computed, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: all kernels, both evaluation paths.
// ---------------------------------------------------------------------------

struct EngineResult {
  EnergyTerms energy;
  WorkCounters work;
  std::vector<Vec3> forces;
};

EngineResult run_engine(const Molecule& m, NonbondedKernel kernel, bool pairlist,
                        int threads = 3) {
  EngineOptions opts;
  opts.nonbonded.cutoff = 7.5;
  opts.nonbonded.switch_dist = 6.5;
  opts.nonbonded.kernel = kernel;
  opts.nonbonded.threads = threads;
  opts.use_pairlist = pairlist;
  SequentialEngine eng(m, opts);
  return {eng.potential(), eng.work(),
          {eng.forces().begin(), eng.forces().end()}};
}

void expect_equivalent(const EngineResult& got, const EngineResult& ref) {
  expect_energy_close(got.energy, ref.energy);
  EXPECT_EQ(got.work.pairs_tested, ref.work.pairs_tested);
  EXPECT_EQ(got.work.pairs_computed, ref.work.pairs_computed);
  expect_forces_close(got.forces, ref.forces);
}

/// One cell of the equivalence matrix: a kernel variant evaluated through one
/// engine path, always checked against the scalar kernel on the *same* path
/// and the scalar cell-list evaluation (the golden reference configuration).
struct MatrixCase {
  NonbondedKernel kernel;
  bool pairlist;
  int threads;
};

std::string matrix_case_name(const testing::TestParamInfo<MatrixCase>& info) {
  std::string name;
  for (const char* p = kernel_name(info.param.kernel); *p != '\0'; ++p) {
    name += std::isalnum(static_cast<unsigned char>(*p)) ? *p : '_';
  }
  name += info.param.pairlist ? "_verlet" : "_cell";
  if (info.param.threads > 0) name += "_t" + std::to_string(info.param.threads);
  return name;
}

class KernelMatrixTest : public testing::TestWithParam<MatrixCase> {
 protected:
  /// Full equivalence (energies, forces, both work counters) against the
  /// scalar kernel on the same evaluation path — pairs_tested is a property
  /// of the path (cell sweep vs Verlet list), so only same-path runs share
  /// it. Across paths, the physics must still agree: pairs_computed,
  /// energies and forces are checked against the scalar cell-list reference.
  void check_case(const Molecule& m, const MatrixCase& c) {
    const EngineResult got = run_engine(m, c.kernel, c.pairlist, c.threads);
    expect_equivalent(got, run_engine(m, NonbondedKernel::kScalar, c.pairlist));
    const EngineResult cell_ref = run_engine(m, NonbondedKernel::kScalar, false);
    EXPECT_EQ(got.work.pairs_computed, cell_ref.work.pairs_computed);
    expect_energy_close(got.energy, cell_ref.energy);
    expect_forces_close(got.forces, cell_ref.forces);
  }
};

TEST_P(KernelMatrixTest, AgreesWithScalarReferenceOnWaterBox) {
  check_case(make_water_box({22, 22, 22}, 3), GetParam());
}

TEST_P(KernelMatrixTest, AgreesWithScalarReferenceOnSolvatedChain) {
  check_case(small_solvated_chain(1200, 19), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllPaths, KernelMatrixTest,
    testing::Values(MatrixCase{NonbondedKernel::kScalar, true, 0},
                    MatrixCase{NonbondedKernel::kTiled, false, 0},
                    MatrixCase{NonbondedKernel::kTiled, true, 0},
                    MatrixCase{NonbondedKernel::kTiledThreads, false, 2},
                    MatrixCase{NonbondedKernel::kTiledThreads, true, 2},
                    MatrixCase{NonbondedKernel::kTiledThreads, false, 4},
                    MatrixCase{NonbondedKernel::kTiledThreads, true, 4}),
    matrix_case_name);

TEST(TiledEngineTest, ThreadedEvaluationIsBitwiseDeterministic) {
  // Static schedule + ordered reduction: two engines with the same thread
  // count must produce bit-identical energies and forces, step after step.
  const Molecule m = small_solvated_chain(900, 41);
  auto make = [&] {
    EngineOptions opts;
    opts.nonbonded.cutoff = 7.5;
    opts.nonbonded.switch_dist = 6.5;
    opts.nonbonded.kernel = NonbondedKernel::kTiledThreads;
    opts.nonbonded.threads = 3;
    return SequentialEngine(m, opts);
  };
  SequentialEngine a = make();
  SequentialEngine b = make();
  for (int s = 0; s < 3; ++s) {
    const EnergyTerms& ea = a.potential();
    const EnergyTerms& eb = b.potential();
    EXPECT_EQ(ea.lj, eb.lj) << "step " << s;
    EXPECT_EQ(ea.elec, eb.elec) << "step " << s;
    ASSERT_EQ(a.forces().size(), b.forces().size());
    EXPECT_EQ(std::memcmp(a.forces().data(), b.forces().data(),
                          a.forces().size() * sizeof(Vec3)),
              0)
        << "step " << s;
    a.step();
    b.step();
  }
}

// ---------------------------------------------------------------------------
// Parallel core: numeric computes running the tiled kernels.
// ---------------------------------------------------------------------------

TEST(TiledCoreTest, ParallelSimNumericForcesMatchAcrossKernels) {
  Molecule m = small_solvated_chain(1000, 31);
  m.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 7.5;
  nb.switch_dist = 6.5;
  m.assign_velocities(300.0, 77);

  auto forces_with = [&](NonbondedKernel kernel) {
    NonbondedOptions k = nb;
    k.kernel = kernel;
    const Workload wl(m, MachineModel::asci_red(), k);
    ParallelOptions opts;
    opts.num_pes = 5;
    opts.numeric = true;
    opts.dt_fs = 0.5;
    ParallelSim sim(wl, opts);
    sim.run_cycle(1);
    return sim.gather_forces();
  };

  expect_forces_close(forces_with(NonbondedKernel::kTiled),
                      forces_with(NonbondedKernel::kScalar));
}

// Frozen mode (the paper tables) prices tasks from the Workload's probe and
// work passes. Those now run the configured kernel, so the kernels must
// agree on every counter: same splits, same per-compute work, same virtual
// step times bit for bit.
TEST(TiledCoreTest, FrozenModeIsIndependentOfTheKernel) {
  Molecule m = small_solvated_chain(1500, 31);
  m.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 7.5;
  nb.switch_dist = 6.5;
  nb.kernel = NonbondedKernel::kScalar;
  const Workload scalar(m, MachineModel::asci_red(), nb);
  nb.kernel = NonbondedKernel::kTiled;
  const Workload tiled(m, MachineModel::asci_red(), nb);

  ASSERT_EQ(tiled.plan.computes().size(), scalar.plan.computes().size());
  ASSERT_GT(scalar.mol->bonds().size(), 0u);
  for (std::size_t i = 0; i < scalar.plan.computes().size(); ++i) {
    const WorkCounters& s = scalar.work.per_compute(i);
    const WorkCounters& t = tiled.work.per_compute(i);
    EXPECT_EQ(t.pairs_tested, s.pairs_tested) << "compute " << i;
    EXPECT_EQ(t.pairs_computed, s.pairs_computed) << "compute " << i;
    EXPECT_EQ(t.bonded_terms, s.bonded_terms) << "compute " << i;
    EXPECT_EQ(t.atoms_integrated, s.atoms_integrated) << "compute " << i;
  }
  for (int pes : {1, 4, 16, 64}) {
    const auto step_time = [pes](const Workload& wl) {
      ParallelOptions opts;
      opts.num_pes = pes;
      ParallelSim sim(wl, opts);
      return sim.run_benchmark(2, 3);
    };
    const double s = step_time(scalar);
    const double t = step_time(tiled);
    EXPECT_EQ(std::memcmp(&s, &t, sizeof(double)), 0)
        << pes << " PEs: scalar " << s << " vs tiled " << t;
  }
}

// ---------------------------------------------------------------------------
// Option helpers.
// ---------------------------------------------------------------------------

TEST(TiledKernelTest, TiledIsTheDefaultKernel) {
  EXPECT_EQ(NonbondedOptions{}.kernel, NonbondedKernel::kTiled);
}

TEST(TiledKernelTest, KernelNamesRoundTrip) {
  for (NonbondedKernel k : {NonbondedKernel::kScalar, NonbondedKernel::kTiled,
                            NonbondedKernel::kTiledThreads}) {
    NonbondedKernel parsed{};
    EXPECT_TRUE(kernel_from_name(kernel_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  NonbondedKernel parsed = NonbondedKernel::kScalar;
  EXPECT_TRUE(kernel_from_name("tiled-threads", parsed));
  EXPECT_EQ(parsed, NonbondedKernel::kTiledThreads);
  EXPECT_FALSE(kernel_from_name("vectorized", parsed));
}

}  // namespace
}  // namespace scalemd
