#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ewald/pme.hpp"
#include "ff/bonded.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "seq/cell_list.hpp"
#include "seq/integrator.hpp"
#include "seq/pairlist.hpp"
#include "topo/exclusions.hpp"
#include "topo/molecule.hpp"
#include "util/thread_pool.hpp"

namespace scalemd {

/// Sequential engine configuration.
struct EngineOptions {
  NonbondedOptions nonbonded;
  double dt_fs = 1.0;
  /// Evaluate non-bonded forces through a skinned Verlet list (rebuilt
  /// automatically when atoms move beyond skin/2) instead of fresh cell
  /// sweeps every step. Identical forces, amortized neighbor search.
  bool use_pairlist = false;
  double pairlist_skin = 1.5;  ///< A
};

/// Reference single-threaded MD engine: cell-list non-bonded evaluation plus
/// full bonded-term evaluation, integrated with velocity Verlet. Serves
/// three roles in the reproduction: the correctness oracle for the parallel
/// decomposition (forces must match), the "ideal time" source for the
/// performance audit (Table 1), and the work-count calibrator for the DES
/// machine models.
class SequentialEngine {
 public:
  /// Copies the molecule's dynamic state; the engine evolves its own copy.
  SequentialEngine(const Molecule& mol, const EngineOptions& opts);

  /// Evaluates all forces and energies at the current positions. Called by
  /// step(); exposed for force-comparison tests. Resets work counters first.
  void compute_forces();

  /// Split evaluation for multiple-timestepping integrators: accumulates
  /// only the non-bonded (slow) or only the bonded (fast) forces into `out`
  /// at the current positions, returning that component's energy and adding
  /// to the engine's work counters.
  EnergyTerms evaluate_nonbonded(std::span<Vec3> out);
  EnergyTerms evaluate_bonded(std::span<Vec3> out);

  /// Advances one velocity-Verlet step (assumes forces are current; the
  /// constructor primes them).
  void step();

  /// Runs `n` steps.
  void run(int n);

  /// Called after every completed step() with the engine and the 1-based
  /// count of steps taken so far, when forces/energies/velocities are all
  /// consistent at the new positions. The validation subsystem
  /// (check::InvariantChecker) attaches through this hook; replaces any
  /// previous observer (empty function detaches).
  using StepObserver = std::function<void(const SequentialEngine&, int step)>;
  void set_step_observer(StepObserver obs) { observer_ = std::move(obs); }

  /// Number of step() calls completed since construction.
  int steps_done() const { return steps_done_; }

  const Molecule& molecule() const { return mol_; }
  std::span<const Vec3> positions() const { return mol_.positions(); }
  /// Mutable coordinate access for the minimizer and external integrators;
  /// callers must invoke compute_forces() after editing positions.
  std::span<Vec3> mutable_positions() { return mol_.positions(); }
  std::span<Vec3> mutable_velocities() { return mol_.velocities(); }
  std::span<const double> masses() const { return masses_; }
  std::span<const Vec3> velocities() const { return mol_.velocities(); }
  std::span<const Vec3> forces() const { return forces_; }

  /// Potential-energy components of the last force evaluation.
  const EnergyTerms& potential() const { return energy_; }
  double kinetic() const;
  double total_energy() const { return potential().total() + kinetic(); }

  /// Work performed by the last force evaluation (pairs, bonded terms).
  const WorkCounters& work() const { return work_; }

  const CellGrid& grid() const { return grid_; }
  const ExclusionTable& exclusions() const { return excl_; }
  const EngineOptions& options() const { return opts_; }

 private:
  /// Non-bonded evaluation paths: {cell sweep, Verlet pairlist} x
  /// {serial scalar-or-tiled, thread-pool tiled}. All four produce
  /// identical WorkCounters and matching forces/energies.
  EnergyTerms eval_cells(const NonbondedContext& ctx, std::span<Vec3> out);
  EnergyTerms eval_cells_mt(const NonbondedContext& ctx, std::span<Vec3> out);
  /// Sorts the atoms into cells_ (tiles gathered for the tiled kernels).
  void layout_cells(const NonbondedContext& ctx);
  /// One task of a cell sweep: cell `task`'s self interactions, or for
  /// task >= cell count neighbor pair task - cell count. Forces are added
  /// into `frc`, indexed in cells_ order.
  EnergyTerms eval_cell_task(const NonbondedContext& ctx, std::size_t task,
                             std::span<Vec3> frc, WorkCounters& work,
                             TileScratch& scratch);
  EnergyTerms eval_pairlist(const NonbondedContext& ctx, std::span<Vec3> out);
  EnergyTerms eval_pairlist_mt(const NonbondedContext& ctx, std::span<Vec3> out);
  /// Full-electrostatics long-range remainder (PME reciprocal + self energy
  /// + exclusion corrections); 0 when full_elec is off. Forces into `out`.
  double evaluate_reciprocal(std::span<Vec3> out);
  void refresh_pairlist_codes();
  ThreadPool& pool();

  Molecule mol_;
  EngineOptions opts_;
  ExclusionTable excl_;
  std::vector<double> charges_;
  std::vector<int> lj_types_;
  std::vector<double> masses_;
  CellGrid grid_;
  VelocityVerlet integrator_;
  std::unique_ptr<VerletList> pairlist_;  // present when options request it
  std::unique_ptr<Pme> pme_;  // present when options.nonbonded.full_elec is on
  std::vector<Vec3> forces_;
  std::vector<std::pair<int, int>> cell_pairs_;  // grid_.neighbor_pairs()
  EnergyTerms energy_;
  WorkCounters work_;
  StepObserver observer_;
  int steps_done_ = 0;

  // --- cell sweep and tiled-kernel machinery --------------------------
  /// The atoms of the current cell sweep in cell order, laid out as the
  /// parallel runtime lays out its patches.
  SetLayout cells_;
  std::vector<Vec3> cell_frc_;  // serial cell sweep: forces in cells_ order
  TileScratch tile_scratch_;
  std::unique_ptr<ThreadPool> pool_;
  /// Per-pool-worker state for NonbondedKernel::kTiledThreads.
  struct NbWorker {
    TileScratch scratch;
    std::vector<Vec3> frc;  // cells_ order (cell path) or global (pairlist)
    WorkCounters work;
  };
  std::vector<NbWorker> nb_workers_;
  std::vector<EnergyTerms> task_energy_;
  /// Exclusion codes parallel to the Verlet list (CSR), rebuilt per
  /// pairlist build — the "bitmask once per pairlist build" path.
  std::vector<std::uint32_t> code_off_;
  std::vector<std::uint8_t> codes_;
  int codes_builds_ = -1;
};

}  // namespace scalemd
