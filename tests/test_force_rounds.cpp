// One force evaluation per MD step. A cycle that follows a complete one
// opens on the forces the last one closed with instead of recomputing them,
// on every backend and through every state path (export/import here, the
// checkpoint paths in test_chaos.cpp and test_process_backend.cpp). These
// tests count the force rounds each cycle runs and pin the per-step
// potential the runtime reports, which must not depend on backend or
// placement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "check/golden.hpp"
#include "core/parallel_sim.hpp"
#include "gen/test_systems.hpp"

namespace scalemd {
namespace {

/// The quickstart --full-elec ion box: 347 atoms of salty water in a 16 A
/// box, 8 A patches.
Molecule ion_box() {
  TestSystemOptions sys;
  sys.kind = TestSystemKind::kWaterBox;
  sys.box = {16.0, 16.0, 16.0};
  sys.ion_pairs = 4;
  sys.temperature = 300.0;
  sys.seed = 11;
  Molecule mol = make_test_system(sys);
  mol.suggested_patch_size = 8.0;
  return mol;
}

/// The cutoff alone, or with PME as quickstart arms it.
NonbondedOptions ion_nb(bool pme) {
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  if (pme) {
    nb.full_elec.enabled = true;
    nb.full_elec.alpha = 0.46;
    nb.full_elec.grid_x = nb.full_elec.grid_y = nb.full_elec.grid_z = 16;
    nb.full_elec.order = 4;
  }
  return nb;
}

ParallelOptions run_opts(BackendKind backend, int pes, int slabs) {
  ParallelOptions o;
  o.num_pes = pes;
  o.numeric = true;
  o.backend = backend;
  o.threads = 2;
  o.process.workers = 2;
  o.pme.slabs = slabs;
  return o;
}

std::string tag(BackendKind backend, bool pme) {
  return std::string(backend_name(backend)) + (pme ? "/pme" : "/cutoff");
}

/// Counts compute tasks and PME forward-transpose blocks. Every compute
/// runs once per force round, and every slab sends one block to every slab
/// per round. All three backends hand task records to the sim's sinks one
/// at a time (the process backend in the parent, after the workers report).
class RoundCounter final : public TraceSink {
 public:
  explicit RoundCounter(const EntryRegistry& reg) {
    for (EntryId e = 0; e < reg.count(); ++e) {
      const std::string& name = reg.name(e);
      if (name.rfind("Compute", 0) == 0) compute_entries_.push_back(e);
      if (name == "PmeSlab::recvTransposeFwd") fwd_entry_ = e;
    }
  }

  void on_task(const TaskRecord& r) override {
    if (r.entry == fwd_entry_) ++fwd_blocks_;
    for (EntryId e : compute_entries_) compute_tasks_ += r.entry == e;
  }

  /// Force rounds since the last call: compute tasks per compute, and PME
  /// rounds (forward blocks per slab pair; 0 without PME).
  std::pair<int, int> take(std::size_t computes, int slabs) {
    const std::pair<int, int> rounds{
        static_cast<int>(compute_tasks_ / computes),
        static_cast<int>(fwd_blocks_ / static_cast<std::size_t>(slabs * slabs))};
    EXPECT_EQ(compute_tasks_ % computes, 0u);
    compute_tasks_ = 0;
    fwd_blocks_ = 0;
    return rounds;
  }

 private:
  std::vector<EntryId> compute_entries_;
  EntryId fwd_entry_ = -1;
  std::size_t compute_tasks_ = 0;
  std::size_t fwd_blocks_ = 0;
};

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

bool same_bits(const EnergyTerms& a, const EnergyTerms& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

constexpr BackendKind kBackends[] = {BackendKind::kSimulated, BackendKind::kThreaded,
                                     BackendKind::kProcess};

// A fresh sim's first cycle runs T + 1 force rounds; every cycle after a
// complete one runs T, also after load balancing moved computes and slabs.
// The opening step's potential is the last closing step's.
TEST(ForceRoundsTest, OneRoundPerStepAfterTheFirstCycle) {
  const Molecule mol = ion_box();
  for (const bool pme : {false, true}) {
    const Workload wl(mol, MachineModel::asci_red(), ion_nb(pme));
    const int slabs = 2;
    for (BackendKind backend : kBackends) {
      ParallelOptions o = run_opts(backend, 4, slabs);
      o.lb.kind = LbStrategyKind::kGreedy;
      ParallelSim sim(wl, o);
      RoundCounter counter(sim.backend().entries());
      sim.attach_sink(&counter);
      const std::size_t computes = wl.plan.computes().size();
      const int pme_rounds = pme ? 1 : 0;
      const std::string what = tag(backend, pme);

      sim.run_cycle(3);
      EXPECT_EQ(counter.take(computes, slabs), std::make_pair(4, 4 * pme_rounds)) << what;
      sim.run_cycle(3);
      EXPECT_EQ(counter.take(computes, slabs), std::make_pair(3, 3 * pme_rounds)) << what;
      sim.load_balance();
      sim.run_cycle(2);
      EXPECT_EQ(counter.take(computes, slabs), std::make_pair(2, 2 * pme_rounds)) << what;
      EXPECT_TRUE(sim.last_cycle_complete()) << what;
      sim.detach_sink(&counter);

      // Step records: 4 + 4 + 3. Steps 4 and 8 open cycles on the forces
      // that steps 3 and 7 closed with.
      ASSERT_EQ(sim.step_completion().size(), 11u) << what;
      for (int s : {4, 8}) {
        EXPECT_TRUE(same_bits(sim.potential_terms_at_step(s),
                              sim.potential_terms_at_step(s - 1)))
            << what << " step " << s;
      }
    }
  }
}

// Splitting a run into cycles changes only rounding: two 3-step cycles,
// the second opening on carried forces, track one 6-step cycle step for
// step, positions and potential (the PME part included) alike.
TEST(ForceRoundsTest, SplitCyclesTrackOneLongCycle) {
  const Molecule mol = ion_box();
  for (const bool pme : {false, true}) {
    const Workload wl(mol, MachineModel::asci_red(), ion_nb(pme));
    const ParallelOptions o = run_opts(BackendKind::kSimulated, 4, 2);
    ParallelSim split(wl, o);
    split.run_cycle(3);
    split.run_cycle(3);
    ParallelSim whole(wl, o);
    whole.run_cycle(6);
    // Split records steps 0-3, then 4-7 for times 3-6.
    for (int t = 0; t <= 6; ++t) {
      const double want = whole.potential_at_step(t);
      EXPECT_NEAR(split.potential_at_step(t <= 3 ? t : t + 1), want, 1e-9 * std::fabs(want))
          << (pme ? "pme" : "cutoff") << " time " << t;
    }
    const std::vector<Vec3> got = split.gather_positions();
    const std::vector<Vec3> want = whole.gather_positions();
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_LT(norm(got[a] - want[a]), 1e-9) << (pme ? "pme" : "cutoff") << " atom " << a;
    }
  }
}

// A cycle that did not complete leaves no closing forces to carry. After a
// PE dies mid-cycle (no checkpoint) and load balancing evacuates it, the
// next cycle runs its opening round again.
TEST(ForceRoundsTest, CycleAfterAnIncompleteOneRunsItsOpeningRound) {
  const Molecule mol = ion_box();
  const Workload wl(mol, MachineModel::asci_red(), ion_nb(/*pme=*/false));
  ParallelOptions o = run_opts(BackendKind::kSimulated, 4, 2);
  o.lb.kind = LbStrategyKind::kGreedy;
  double first_cycle = 0.0;
  {
    ParallelSim clean(wl, o);
    clean.run_cycle(3);
    first_cycle = clean.backend().time();
  }
  // The second cycle runs 3 of the first one's 4 rounds, so this lands in it.
  o.fault.failures = {{.pe = 1, .at_time = 1.4 * first_cycle}};
  ParallelSim sim(wl, o);
  sim.run_cycle(3);
  ASSERT_TRUE(sim.last_cycle_complete());
  sim.run_cycle(3);
  ASSERT_FALSE(sim.last_cycle_complete());
  sim.load_balance();
  RoundCounter counter(sim.backend().entries());
  sim.attach_sink(&counter);
  sim.run_cycle(3);
  EXPECT_TRUE(sim.last_cycle_complete());
  EXPECT_EQ(counter.take(wl.plan.computes().size(), 2).first, 4);
  sim.detach_sink(&counter);
}

// Frozen mode has no forces to carry: every cycle runs its opening round.
TEST(ForceRoundsTest, FrozenCyclesKeepTheOpeningRound) {
  const Molecule mol = ion_box();
  for (const bool pme : {false, true}) {
    const Workload wl(mol, MachineModel::asci_red(), ion_nb(pme));
    ParallelOptions o;
    o.num_pes = 4;
    o.pme.slabs = 2;
    ParallelSim sim(wl, o);
    RoundCounter counter(sim.backend().entries());
    sim.attach_sink(&counter);
    const int pme_rounds = pme ? 1 : 0;
    for (int steps : {3, 3, 2}) {
      sim.run_cycle(steps);
      EXPECT_EQ(counter.take(wl.plan.computes().size(), 2),
                std::make_pair(steps + 1, (steps + 1) * pme_rounds))
          << (pme ? "pme" : "cutoff");
    }
    sim.detach_sink(&counter);
  }
}

// An export after a cycle carries the closing forces: the importing sim
// opens its first cycle on them (no opening round) and continues bitwise
// on the uninterrupted run, on every backend, with and without PME.
TEST(ForceRoundsTest, ImportedStateOpensOnCarriedForces) {
  const Molecule mol = ion_box();
  for (const bool pme : {false, true}) {
    const Workload wl(mol, MachineModel::asci_red(), ion_nb(pme));
    for (BackendKind backend : kBackends) {
      const ParallelOptions o = run_opts(backend, 4, 2);
      const std::string what = tag(backend, pme);
      ParallelSim whole(wl, o);
      ParallelSim first(wl, o);
      for (ParallelSim* sim : {&whole, &first}) {
        sim->run_cycle(3);
        sim->run_cycle(3);
      }
      ParallelSim resumed(wl, o);
      resumed.import_state(first.export_state());
      RoundCounter counter(resumed.backend().entries());
      resumed.attach_sink(&counter);
      resumed.run_cycle(3);
      EXPECT_EQ(counter.take(wl.plan.computes().size(), 2),
                std::make_pair(3, pme ? 3 : 0))
          << what;
      resumed.detach_sink(&counter);
      resumed.run_cycle(2);
      whole.run_cycle(3);
      whole.run_cycle(2);

      EXPECT_TRUE(same_bits(resumed.gather_positions(), whole.gather_positions())) << what;
      EXPECT_TRUE(same_bits(resumed.gather_velocities(), whole.gather_velocities()))
          << what;
      EXPECT_TRUE(same_bits(resumed.gather_forces(), whole.gather_forces())) << what;
      ASSERT_EQ(resumed.step_completion().size(), whole.step_completion().size()) << what;
      for (int s = 0; s < static_cast<int>(whole.step_completion().size()); ++s) {
        EXPECT_TRUE(same_bits(resumed.potential_terms_at_step(s),
                              whole.potential_terms_at_step(s)))
            << what << " step " << s;
      }
    }
  }
}

/// Bonded computes none of whose term atoms is in the compute's first
/// planned patch any more, at positions `pos`.
int bonded_computes_off_their_first_patch(const Workload& wl, const std::vector<Vec3>& pos) {
  const Molecule& mol = *wl.mol;
  int off = 0;
  for (const ComputeDesc& d : wl.plan.computes()) {
    if (is_nonbonded(d.kind)) continue;
    bool reads_first = false;
    const auto reads = [&](int atom) {
      reads_first = reads_first || wl.decomp.grid().cell_of(pos[static_cast<std::size_t>(
                                       atom)]) == d.patches[0];
    };
    for (int t : d.terms) {
      const auto u = static_cast<std::size_t>(t);
      switch (d.kind) {
        case ComputeKind::kBonds:
          reads(mol.bonds()[u].a);
          reads(mol.bonds()[u].b);
          break;
        case ComputeKind::kAngles:
          for (int a : {mol.angles()[u].a, mol.angles()[u].b, mol.angles()[u].c}) reads(a);
          break;
        case ComputeKind::kDihedrals: {
          const Dihedral& x = mol.dihedrals()[u];
          for (int a : {x.a, x.b, x.c, x.d}) reads(a);
          break;
        }
        default: {
          const Improper& x = mol.impropers()[u];
          for (int a : {x.a, x.b, x.c, x.d}) reads(a);
          break;
        }
      }
    }
    off += !reads_first;
  }
  return off;
}

// Per-step potential terms after atom migration. A bonded compute whose
// atoms all left its first planned patch must still take the step from a
// patch it reads: the planned patch may be a round ahead or behind, and the
// compute's energy would land in another step's slot, depending on the
// schedule. Two 4-step cycles of the waterbox_ions preset on 4 PEs with 1
// PME slab migrate such atoms, and the third cycle runs after that. Its
// per-step terms must be the same bits on every backend, with and without
// greedy LB, and on the DES at other PE counts and placements.
TEST(ForceRoundsTest, PerStepPotentialIsPlacementAndBackendFreeAfterMigration) {
  const GoldenSpec* spec = find_golden_spec("waterbox_ions");
  ASSERT_NE(spec, nullptr);
  const Molecule mol = spec->make();
  const Workload wl(mol, MachineModel::asci_red(), spec->engine.nonbonded);
  struct Run {
    std::vector<EnergyTerms> terms;
    std::vector<Vec3> migrated_pos;  ///< after the second cycle
  };
  const auto run = [&](BackendKind backend, int pes, LbStrategyKind lb) {
    ParallelOptions o = run_opts(backend, pes, 1);
    o.lb.kind = lb;
    o.dt_fs = spec->engine.dt_fs;
    ParallelSim sim(wl, o);
    Run r;
    for (int c = 0; c < 3; ++c) {
      if (c > 0) sim.load_balance();
      sim.run_cycle(4);
      if (c == 1) r.migrated_pos = sim.gather_positions();
    }
    EXPECT_TRUE(sim.last_cycle_complete());
    for (int s = 0; s < static_cast<int>(sim.step_completion().size()); ++s) {
      r.terms.push_back(sim.potential_terms_at_step(s));
    }
    return r;
  };
  const auto expect_same = [](const Run& got, const Run& ref, const std::string& what) {
    ASSERT_EQ(got.terms.size(), ref.terms.size()) << what;
    for (std::size_t s = 0; s < ref.terms.size(); ++s) {
      EXPECT_TRUE(same_bits(got.terms[s], ref.terms[s]))
          << what << " step " << s << ": bond " << got.terms[s].bond << " vs "
          << ref.terms[s].bond << ", angle " << got.terms[s].angle << " vs "
          << ref.terms[s].angle;
    }
  };

  const Run ref = run(BackendKind::kSimulated, 4, LbStrategyKind::kNone);
  ASSERT_EQ(ref.terms.size(), 15u);
  EXPECT_GT(bonded_computes_off_their_first_patch(wl, ref.migrated_pos), 0);

  for (BackendKind backend : kBackends) {
    for (LbStrategyKind lb : {LbStrategyKind::kNone, LbStrategyKind::kGreedy}) {
      expect_same(run(backend, 4, lb), ref,
                  std::string(backend_name(backend)) +
                      (lb == LbStrategyKind::kNone ? "/no LB" : "/greedy"));
    }
  }
  for (int pes : {2, 3, 8}) {
    for (LbStrategyKind lb : {LbStrategyKind::kNone, LbStrategyKind::kGreedyRefine}) {
      expect_same(run(BackendKind::kSimulated, pes, lb), ref,
                  "sim/" + std::to_string(pes) + " PEs" +
                      (lb == LbStrategyKind::kNone ? "/no LB" : "/refine"));
    }
  }
}

}  // namespace
}  // namespace scalemd
