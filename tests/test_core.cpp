#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <random>
#include <string>

#include "core/compute_plan.hpp"
#include "core/decomposition.hpp"
#include "core/parallel_sim.hpp"
#include "core/work_cache.hpp"
#include "des/fault.hpp"
#include "trace/summary.hpp"
#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "seq/minimize.hpp"

namespace scalemd {
namespace {

/// Small solvated system shared by the suite (built once: generation and
/// the work-cache kernel pass dominate test time).
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mol_ = new Molecule(small_solvated_chain(1500, 31));
    mol_->suggested_patch_size = 8.0;  // 3x3x3 patches for a ~24.7 A box
    nb_.cutoff = 7.5;
    nb_.switch_dist = 6.5;
    // Relax generation clashes so trajectories stay tame, then thermalize.
    EngineOptions eopts;
    eopts.nonbonded = nb_;
    SequentialEngine relax(*mol_, eopts);
    minimize(relax, 150);
    std::copy(relax.positions().begin(), relax.positions().end(),
              mol_->positions().begin());
    mol_->assign_velocities(300.0, 77);
    workload_ = new Workload(*mol_, MachineModel::asci_red(), nb_);
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete mol_;
    workload_ = nullptr;
    mol_ = nullptr;
  }

  static Molecule* mol_;
  static NonbondedOptions nb_;
  static Workload* workload_;
};

Molecule* CoreFixture::mol_ = nullptr;
NonbondedOptions CoreFixture::nb_;
Workload* CoreFixture::workload_ = nullptr;

TEST_F(CoreFixture, DecompositionAssignsEveryAtomOnce) {
  const Decomposition& d = workload_->decomp;
  std::vector<int> seen(static_cast<std::size_t>(mol_->atom_count()), 0);
  for (const auto& atoms : d.patch_atoms()) {
    for (int a : atoms) ++seen[static_cast<std::size_t>(a)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_GT(d.patch_count(), 8);
}

TEST_F(CoreFixture, PlanCoversEveryPatchPairOnce) {
  // Self computes must partition each patch's outer loop; pair computes must
  // cover each neighbor pair exactly once (possibly split into stripes).
  const auto& computes = workload_->plan.computes();
  std::vector<double> self_cover(static_cast<std::size_t>(
                                     workload_->decomp.patch_count()),
                                 0.0);
  std::map<std::pair<int, int>, double> pair_cover;
  for (const ComputeDesc& c : computes) {
    if (c.kind == ComputeKind::kSelf) {
      self_cover[static_cast<std::size_t>(c.patches[0])] += c.frac_end - c.frac_begin;
    } else if (c.kind == ComputeKind::kPair) {
      pair_cover[{c.patches[0], c.patches[1]}] += c.frac_end - c.frac_begin;
    }
  }
  for (std::size_t p = 0; p < self_cover.size(); ++p) {
    if (!workload_->decomp.patch_atoms()[p].empty()) {
      EXPECT_NEAR(self_cover[p], 1.0, 1e-9) << "patch " << p;
    }
  }
  for (const auto& [key, cover] : pair_cover) {
    EXPECT_NEAR(cover, 1.0, 1e-9);
  }
}

TEST_F(CoreFixture, BondedTermsCoveredExactlyOnce) {
  std::vector<int> bond_seen(mol_->bonds().size(), 0);
  std::vector<int> dihedral_seen(mol_->dihedrals().size(), 0);
  for (const ComputeDesc& c : workload_->plan.computes()) {
    if (c.kind == ComputeKind::kBonds) {
      for (int t : c.terms) ++bond_seen[static_cast<std::size_t>(t)];
    }
    if (c.kind == ComputeKind::kDihedrals) {
      for (int t : c.terms) ++dihedral_seen[static_cast<std::size_t>(t)];
    }
  }
  for (int s : bond_seen) EXPECT_EQ(s, 1);
  for (int s : dihedral_seen) EXPECT_EQ(s, 1);
}

TEST_F(CoreFixture, WorkCacheEnergyMatchesSequentialEngine) {
  EngineOptions opts;
  opts.nonbonded = nb_;
  SequentialEngine eng(*mol_, opts);
  EXPECT_NEAR(workload_->work.energy().total(), eng.potential().total(),
              1e-6 * std::fabs(eng.potential().total()));
  // Pair counts must match too: same pairs evaluated, differently grouped.
  EXPECT_EQ(workload_->work.total().pairs_computed, eng.work().pairs_computed);
}

TEST_F(CoreFixture, InitialPlacementBoundsProxiesBySeven) {
  ParallelOptions opts;
  opts.num_pes = 64;
  const ParallelSim sim(*workload_, opts);
  EXPECT_LE(sim.max_proxies_per_patch(), 7);
}

TEST_F(CoreFixture, ParallelForcesMatchSequentialAfterOneStep) {
  ParallelOptions opts;
  opts.num_pes = 7;
  opts.numeric = true;
  opts.dt_fs = 0.5;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(1);

  EngineOptions eopts;
  eopts.nonbonded = nb_;
  eopts.dt_fs = 0.5;
  SequentialEngine eng(*mol_, eopts);
  eng.step();

  const auto pos = sim.gather_positions();
  const auto vel = sim.gather_velocities();
  const auto frc = sim.gather_forces();
  double max_dp = 0.0, max_dv = 0.0, max_df = 0.0;
  for (int a = 0; a < mol_->atom_count(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    max_dp = std::max(max_dp, norm(pos[i] - eng.positions()[i]));
    max_dv = std::max(max_dv, norm(vel[i] - eng.velocities()[i]));
    max_df = std::max(max_df, norm(frc[i] - eng.forces()[i]));
  }
  EXPECT_LT(max_dp, 1e-9);
  EXPECT_LT(max_dv, 1e-9);
  EXPECT_LT(max_df, 1e-6);
}

TEST_F(CoreFixture, ParallelTrajectoryMatchesSequentialAcrossCyclesWithMigration) {
  ParallelOptions opts;
  opts.num_pes = 5;
  opts.numeric = true;
  opts.dt_fs = 0.5;
  opts.lb.kind = LbStrategyKind::kNone;
  ParallelSim sim(*workload_, opts);
  // Three cycles of 4 steps; atoms migrate between patches at boundaries.
  sim.run_cycle(4);
  sim.run_cycle(4);
  sim.run_cycle(4);

  EngineOptions eopts;
  eopts.nonbonded = nb_;
  eopts.dt_fs = 0.5;
  SequentialEngine eng(*mol_, eopts);
  eng.run(12);

  const auto pos = sim.gather_positions();
  double max_dp = 0.0;
  for (int a = 0; a < mol_->atom_count(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    max_dp = std::max(max_dp, norm(pos[i] - eng.positions()[i]));
  }
  // Trajectories agree to floating-point accumulation tolerance. (The
  // sequential engine re-sorts atoms into cells each step while patches keep
  // insertion order, so summation order differs.)
  EXPECT_LT(max_dp, 1e-6);
}

TEST_F(CoreFixture, PotentialAtStepZeroMatchesWorkCache) {
  // The Workload's work pass and the runtime's first force round run the
  // same evaluator on the same data and fold computes in the same order, so
  // they agree bit for bit, term by term, under either kernel.
  for (NonbondedKernel kernel : {NonbondedKernel::kScalar, NonbondedKernel::kTiled}) {
    NonbondedOptions nb = nb_;
    nb.kernel = kernel;
    const Workload wl(*mol_, MachineModel::asci_red(), nb);
    ParallelOptions opts;
    opts.num_pes = 4;
    opts.numeric = true;
    ParallelSim sim(wl, opts);
    sim.run_cycle(1);
    const EnergyTerms got = sim.potential_terms_at_step(0);
    const EnergyTerms& want = wl.work.energy();
    EXPECT_NE(want.bond, 0.0);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(EnergyTerms)), 0)
        << kernel_name(kernel) << ": runtime " << std::setprecision(17)
        << got.total() << " vs work pass " << want.total();
  }
}

TEST_F(CoreFixture, ReductionCountsPatchesFrozenMode) {
  ParallelOptions opts;
  opts.num_pes = 6;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(2);
  const auto& totals = sim.reduction_results();
  ASSERT_GE(totals.size(), 3u);  // rounds 0, 1, 2 (incl. finalize)
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(totals[r], workload_->decomp.patch_count());
  }
}

TEST_F(CoreFixture, FrozenStepTimesAreDeterministic) {
  auto run = [&] {
    ParallelOptions opts;
    opts.num_pes = 12;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST_F(CoreFixture, MoreProcessorsRunFaster) {
  auto time_at = [&](int pes) {
    ParallelOptions opts;
    opts.num_pes = pes;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  const double t1 = time_at(1);
  const double t4 = time_at(4);
  const double t16 = time_at(16);
  EXPECT_LT(t4, t1 / 2.5);
  EXPECT_LT(t16, t4 / 1.5);
}

TEST_F(CoreFixture, DiffusionStrategyAlsoImproves) {
  auto timed = [&](LbStrategyKind kind) {
    ParallelOptions opts;
    opts.num_pes = 24;
    opts.lb.kind = kind;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  // The distributed strategy must beat no balancing; the centralized greedy
  // may still edge it out (the paper's trade-off).
  EXPECT_LT(timed(LbStrategyKind::kDiffusion), timed(LbStrategyKind::kNone));
}

TEST_F(CoreFixture, LoadBalancingImprovesStepTime) {
  auto timed = [&](LbStrategyKind kind) {
    ParallelOptions opts;
    opts.num_pes = 24;
    opts.lb.kind = kind;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  const double none = timed(LbStrategyKind::kNone);
  const double balanced = timed(LbStrategyKind::kGreedyRefine);
  EXPECT_LT(balanced, none);
}

TEST_F(CoreFixture, OptimizedMulticastShrinksIntegrationEntry) {
  // Section 4.2.3's claim: one packing per multicast instead of one per
  // destination shortens the coordinate-sending (integration) entry method.
  auto integration_time = [&](bool optimized) {
    ParallelOptions opts;
    opts.num_pes = 32;
    opts.optimized_multicast = optimized;
    ParallelSim sim(*workload_, opts);
    SummaryProfile prof(sim.sim().entries(), opts.num_pes);
    sim.attach_sink(&prof);
    sim.run_benchmark(2, 3);
    return std::pair(prof.category_total(WorkCategory::kIntegration),
                     prof.total_pack_cost());
  };
  const auto [integ_naive, pack_naive] = integration_time(false);
  const auto [integ_opt, pack_opt] = integration_time(true);
  EXPECT_LT(integ_opt, integ_naive);
  EXPECT_LT(pack_opt, pack_naive);
}

TEST_F(CoreFixture, StepCompletionMonotonic) {
  ParallelOptions opts;
  opts.num_pes = 8;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(3);
  const auto& completion = sim.step_completion();
  for (std::size_t i = 1; i < completion.size(); ++i) {
    EXPECT_GT(completion[i], completion[i - 1]);
  }
}

TEST_F(CoreFixture, StepTimingAccessorsClampOutOfRangeArguments) {
  ParallelOptions opts;
  opts.num_pes = 4;
  ParallelSim sim(*workload_, opts);

  // No steps run yet: every query answers 0, including absurd arguments.
  EXPECT_EQ(sim.seconds_per_step_tail(0), 0.0);
  EXPECT_EQ(sim.seconds_per_step_tail(1000000), 0.0);
  EXPECT_EQ(sim.step_completion_at(-1), 0.0);
  EXPECT_EQ(sim.step_completion_at(7), 0.0);

  sim.run_cycle(3);
  const int n = static_cast<int>(sim.step_completion().size());
  ASSERT_GE(n, 2);

  // A tail longer than history clamps to the full recorded span rather than
  // indexing past the front.
  const double full = sim.seconds_per_step_tail(n - 1);
  EXPECT_GT(full, 0.0);
  EXPECT_EQ(sim.seconds_per_step_tail(n + 50), full);
  EXPECT_EQ(sim.seconds_per_step_tail(1000000), full);
  // Degenerate spans clamp up to one step instead of dividing by zero.
  EXPECT_EQ(sim.seconds_per_step_tail(0), sim.seconds_per_step_tail(1));
  EXPECT_EQ(sim.seconds_per_step_tail(-3), sim.seconds_per_step_tail(1));

  // Bounds-checked completion lookup agrees with the raw vector in range and
  // answers 0 outside it.
  EXPECT_EQ(sim.step_completion_at(n - 1), sim.step_completion()[n - 1]);
  EXPECT_EQ(sim.step_completion_at(n), 0.0);
  EXPECT_EQ(sim.step_completion_at(-1), 0.0);
}

// Configurations the runtime cannot run are named errors in every build:
// the unit label is built with -DNDEBUG, so this pins release behaviour.
TEST(ParallelConfigTest, RejectsUnrunnableConfigurationsWithNamedErrors) {
  Molecule mol = make_water_box({24, 24, 24}, 5);
  mol.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload tiled(mol, MachineModel::asci_red(), nb);
  nb.kernel = NonbondedKernel::kTiledThreads;
  const Workload seq_only(mol, MachineModel::asci_red(), nb);

  // The error names the broken rule; `rule` is a word of that name.
  const auto rejects = [](const Workload& wl, const ParallelOptions& o,
                          const char* rule) {
    try {
      ParallelSim sim(wl, o);
      ADD_FAILURE() << "accepted; expected an error naming '" << rule << "'";
    } catch (const ParallelConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << e.what();
    }
  };
  ParallelOptions threads;
  threads.num_pes = 4;
  threads.threads = 4;
  threads.numeric = true;
  threads.backend = BackendKind::kThreaded;
  ParallelOptions process = threads;
  process.backend = BackendKind::kProcess;
  ParallelOptions des = threads;
  des.backend = BackendKind::kSimulated;

  // tiled+threads is the sequential engine's kernel: every backend rejects
  // it.
  for (const ParallelOptions& o : {threads, process, des}) {
    rejects(seq_only, o, "tiled+threads");
  }

  // DES-only layers, and frozen mode, on both real backends.
  for (const ParallelOptions& real : {threads, process}) {
    ParallelOptions o = real;
    o.fault = FaultPlan::chaos(3);
    rejects(tiled, o, "fault plans");
    o = real;
    o.reliable = true;
    rejects(tiled, o, "reliable delivery");
    o = real;
    o.numeric = false;
    rejects(tiled, o, "numeric mode");
  }
  // Checkpoints run on the process backend (constructing it forks
  // nothing), not on the threaded one.
  ParallelOptions ckpt = threads;
  ckpt.checkpoint_every = 1;
  rejects(tiled, ckpt, "checkpoints");
  ckpt.backend = BackendKind::kProcess;
  EXPECT_NO_THROW({ ParallelSim sim(tiled, ckpt); });

  // Invalid full electrostatics: rejected before the probe pass runs a
  // kernel, and again by the sim if a workload is edited afterwards.
  NonbondedOptions bad = tiled.nonbonded;
  bad.full_elec.enabled = true;
  bad.full_elec.grid_x = 30;
  EXPECT_THROW({ Workload wl(mol, MachineModel::asci_red(), bad); },
               ParallelConfigError);
  Workload edited(mol, MachineModel::asci_red(), tiled.nonbonded);
  edited.nonbonded.full_elec = bad.full_elec;
  rejects(edited, des, "grid_x");

  // PME slab options are named, never clamped: 0 slabs used to run one, and
  // negative dedicated ranks used to mean none.
  for (const ParallelOptions& base : {threads, process, des}) {
    for (int slabs : {0, -1}) {
      ParallelOptions o = base;
      o.pme.slabs = slabs;
      rejects(tiled, o, "pme.slabs");
    }
    ParallelOptions o = base;
    o.pme.dedicated_ranks = -1;
    rejects(tiled, o, "pme.dedicated_ranks");
  }
}

// sim() names its error off the DES instead of dereferencing a null machine;
// the unit label is built with -DNDEBUG, so this pins release behaviour.
TEST(ParallelConfigTest, SimAccessorThrowsOffTheSimulatedBackend) {
  Molecule mol = make_water_box({16, 16, 16}, 5);
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  ParallelOptions opts;
  opts.num_pes = 2;
  opts.threads = 2;
  opts.numeric = true;
  for (BackendKind backend : {BackendKind::kThreaded, BackendKind::kProcess}) {
    opts.backend = backend;
    ParallelSim sim(wl, opts);
    EXPECT_THROW(sim.sim(), ParallelConfigError) << backend_name(backend);
    const ParallelSim& view = sim;
    EXPECT_THROW(view.sim(), ParallelConfigError) << backend_name(backend);
  }
  opts.backend = BackendKind::kSimulated;
  ParallelSim des(wl, opts);
  EXPECT_EQ(&des.sim(), &des.backend());
}

// run_cycle's step count is checked in every build (the unit label is built
// with -DNDEBUG): -1 would write one past the step counters, and 0 would run
// a lone half-kick force round that breaks the velocity-Verlet pairing.
TEST(ParallelConfigTest, RunCycleRejectsFewerThanOneStep) {
  Molecule mol = make_water_box({16, 16, 16}, 5);
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  ParallelOptions opts;
  opts.num_pes = 2;
  opts.numeric = true;
  ParallelSim sim(wl, opts);
  EXPECT_THROW(sim.run_cycle(0), ParallelConfigError);
  EXPECT_THROW(sim.run_cycle(-1), ParallelConfigError);
  EXPECT_EQ(sim.total_steps(), 0);
  EXPECT_TRUE(sim.step_completion().empty());
  sim.run_cycle(1);
  EXPECT_EQ(sim.total_steps(), 1);
  EXPECT_TRUE(sim.last_cycle_complete());
}

// Every PE dying leaves nothing to evacuate onto. Recovery must stop and
// report the cycle incomplete; release builds used to store PE -1 as a
// patch home and overflow a heap buffer (the unit label builds -DNDEBUG).
TEST(ParallelConfigTest, NoSurvivingPeLeavesTheCycleIncomplete) {
  Molecule mol = make_water_box({16, 16, 16}, 5);
  mol.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  ParallelOptions opts;
  opts.num_pes = 2;
  opts.numeric = true;
  double cycle_time = 0.0;
  {
    ParallelSim clean(wl, opts);
    clean.run_cycle(2);
    cycle_time = clean.backend().time();
  }
  opts.checkpoint_every = 1;
  opts.fault.failures = {{.pe = 0, .at_time = 0.5 * cycle_time},
                         {.pe = 1, .at_time = 0.5 * cycle_time}};
  ParallelSim sim(wl, opts);
  sim.run_cycle(2);
  EXPECT_FALSE(sim.last_cycle_complete());
  EXPECT_EQ(sim.backend().failed_pes().size(), 2u);
  EXPECT_EQ(sim.restarts(), 0);
}

// --- sim state export / import ---------------------------------------------

Molecule state_box(double edge) {
  Molecule mol = make_water_box({edge, edge, edge}, 5);
  mol.assign_velocities(300.0, 3);
  mol.suggested_patch_size = 8.0;
  return mol;
}

NonbondedOptions state_nb() {
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  return nb;
}

ParallelOptions state_opts(int pes, bool numeric) {
  ParallelOptions o;
  o.num_pes = pes;
  o.numeric = numeric;
  return o;
}

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

// Frozen mode keeps atom ids but no per-atom vectors. The blob used to be
// written with none and read back with one position per atom, so every
// frozen import aborted.
TEST(SimStateTest, FrozenExportImportsAndResumesIdentically) {
  const Molecule mol = state_box(16.0);
  const Workload wl(mol, MachineModel::asci_red(), state_nb());
  const ParallelOptions o = state_opts(4, /*numeric=*/false);
  ParallelSim a(wl, o);
  const std::vector<std::uint8_t> blob = a.export_state();
  ParallelSim b(wl, o);
  b.import_state(blob);
  EXPECT_EQ(b.export_state(), blob);
  a.run_cycle(3);
  b.run_cycle(3);
  EXPECT_EQ(b.step_completion(), a.step_completion());
  EXPECT_EQ(b.reduction_results(), a.reduction_results());

  // Mid-run, after load balancing moved computes: the imported sim adopts
  // the placement and the history, and re-exports the same bytes.
  a.load_balance();
  const std::vector<std::uint8_t> mid = a.export_state();
  ParallelSim c(wl, o);
  c.import_state(mid);
  EXPECT_EQ(c.export_state(), mid);
  EXPECT_EQ(c.compute_pe(), a.compute_pe());
  EXPECT_EQ(c.step_completion(), a.step_completion());
  EXPECT_EQ(c.total_steps(), a.total_steps());
}

// Truncations and random bit flips of a numeric blob either throw
// StateError or import a state the strict decode accepted — which is then
// held losslessly: it re-exports to exactly the bytes imported. Never an
// abort (the sanitizer jobs check for UB).
TEST(SimStateTest, TruncatedAndFlippedBlobsThrowOrImportExactly) {
  const Molecule mol = state_box(16.0);
  const Workload wl(mol, MachineModel::asci_red(), state_nb());
  const ParallelOptions o = state_opts(4, /*numeric=*/true);
  ParallelSim a(wl, o);
  a.run_cycle(2);
  const std::vector<std::uint8_t> blob = a.export_state();
  ParallelSim b(wl, o);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 64; ++i) {
    const std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(rng() % blob.size()));
    EXPECT_THROW(b.import_state(cut), StateError) << cut.size() << " bytes";
  }
  int thrown = 0;
  int imported = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> bad = blob;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    try {
      b.import_state(bad);
      ++imported;
      EXPECT_EQ(b.export_state(), bad);
    } catch (const StateError&) {
      ++thrown;
    }
  }
  EXPECT_GT(thrown, 0);
  EXPECT_GT(imported, 0);
}

// A blob that does not fit — from a machine with more PEs, from another
// molecule, or cut short — throws StateError and changes nothing: the sim
// then runs on bitwise equal to an untouched twin.
TEST(SimStateTest, MismatchedOrBadBlobThrowsAndLeavesTheSimUntouched) {
  const Molecule mol = state_box(16.0);
  const Molecule other = state_box(20.0);
  const Workload wl(mol, MachineModel::asci_red(), state_nb());
  const Workload other_wl(other, MachineModel::asci_red(), state_nb());
  const ParallelOptions o = state_opts(2, /*numeric=*/true);
  ParallelSim sim(wl, o);
  ParallelSim twin(wl, o);
  sim.run_cycle(2);
  twin.run_cycle(2);

  ParallelSim wider(wl, state_opts(4, /*numeric=*/true));
  ParallelSim elsewhere(other_wl, o);
  const std::vector<std::uint8_t> own = sim.export_state();
  // The state starts with its patch list: the patch count, then the first
  // patch's atom count and atom ids (8 bytes each). Giving its first atom
  // the second one's id leaves an atom in no patch and one in two.
  std::vector<std::uint8_t> twice = own;
  std::copy(own.begin() + 24, own.begin() + 32, twice.begin() + 16);
  const std::vector<std::vector<std::uint8_t>> bad = {
      wider.export_state(),
      elsewhere.export_state(),
      twice,
      std::vector<std::uint8_t>(own.begin(), own.end() - 1),
      {},
  };
  for (const std::vector<std::uint8_t>& blob : bad) {
    EXPECT_THROW(sim.import_state(blob), StateError) << blob.size() << " bytes";
  }
  try {
    sim.import_state(wider.export_state());
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("PE"), std::string::npos) << e.what();
  }

  sim.run_cycle(2);
  twin.run_cycle(2);
  EXPECT_TRUE(same_bits(sim.gather_positions(), twin.gather_positions()));
  EXPECT_TRUE(same_bits(sim.gather_velocities(), twin.gather_velocities()));
  EXPECT_TRUE(same_bits(sim.gather_forces(), twin.gather_forces()));
  EXPECT_EQ(sim.step_completion(), twin.step_completion());
  EXPECT_EQ(sim.compute_pe(), twin.compute_pe());
  ASSERT_EQ(sim.total_steps(), twin.total_steps());
  for (int s = 0; s <= sim.total_steps(); ++s) {
    const EnergyTerms got = sim.potential_terms_at_step(s);
    const EnergyTerms want = twin.potential_terms_at_step(s);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "step " << s;
  }
  EXPECT_EQ(sim.export_state(), twin.export_state());
}

TEST(ComputePlanTest, SplittingReducesMaxGrainEstimate) {
  Molecule mol = make_water_box({30, 30, 30}, 3);
  mol.suggested_patch_size = 10.0;
  NonbondedOptions nb;
  nb.cutoff = 9.0;
  nb.switch_dist = 7.5;
  const Decomposition d(mol, nb.cutoff);
  const MachineModel m = MachineModel::asci_red();

  ComputePlanOptions split_off;
  split_off.split_self = false;
  split_off.split_face_pairs = false;
  const ComputePlan unsplit(d, mol, m, split_off);

  ComputePlanOptions split_on;
  split_on.target_grain = 1e-3;
  const ComputePlan split(d, mol, m, split_on);

  EXPECT_GT(split.computes().size(), unsplit.computes().size());

  const WorkCache wu(mol, d, unsplit, nb);
  const WorkCache ws(mol, d, split, nb);
  double max_u = 0.0, max_s = 0.0;
  for (std::size_t i = 0; i < unsplit.computes().size(); ++i) {
    max_u = std::max(max_u, work_cost(wu.per_compute(i), m));
  }
  for (std::size_t i = 0; i < split.computes().size(); ++i) {
    max_s = std::max(max_s, work_cost(ws.per_compute(i), m));
  }
  EXPECT_LT(max_s, max_u);
  // Total work is preserved by splitting.
  EXPECT_EQ(wu.total().pairs_computed, ws.total().pairs_computed);
}

}  // namespace
}  // namespace scalemd
