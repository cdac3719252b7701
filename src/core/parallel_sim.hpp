#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/compute_eval.hpp"
#include "core/compute_plan.hpp"
#include "core/decomposition.hpp"
#include "core/work_cache.hpp"
#include "des/fault.hpp"
#include "des/simulator.hpp"
#include "ewald/pme_slab.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "lb/database.hpp"
#include "rts/process_backend.hpp"
#include "rts/reduction.hpp"
#include "rts/reliable.hpp"
#include "topo/exclusions.hpp"
#include "util/random.hpp"

namespace scalemd {

struct LbProblem;

/// Which strategy drives object remapping (ablation-friendly).
enum class LbStrategyKind {
  kNone,          ///< keep the static initial placement
  kRandom,        ///< random placement (floor baseline)
  kGreedyNoComm,  ///< greedy by load only, communication-blind
  kGreedy,        ///< the paper's proxy-aware greedy
  kGreedyRefine,  ///< greedy followed by refinement (the paper's default)
  kDiffusion,     ///< distributed neighbor-diffusion strategy
};

struct LbPolicy {
  LbStrategyKind kind = LbStrategyKind::kGreedyRefine;
  double greedy_overload = 1.10;
  double refine_overload = 1.03;
};

/// A Workload / ParallelOptions combination the runtime cannot run. The
/// Workload and ParallelSim constructors throw it in every build, release
/// included, and so does ParallelSim::sim() off the simulated backend.
class ParallelConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A state blob ParallelSim cannot adopt: truncated or corrupt bytes, or a
/// state that does not fit this sim (another molecule, patch or compute
/// structure, or a PE the machine does not have). import_state and a
/// checkpoint restore throw it before changing anything.
class StateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A force contribution the fixed-point accumulators cannot hold: not
/// finite, or at least 2^62 kcal/mol/A in magnitude (util/fixed_point.hpp).
/// Tasks never throw it; the PE records the failure, and run_cycle throws
/// once the machine is quiet, before atom migration. The sim then holds that
/// cycle's unmigrated end state.
class ForceRangeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A workload bundles everything about the molecular system that is
/// independent of the processor count: decomposition, compute plan and the
/// measured per-object work. Build once, sweep ParallelSim over P.
struct Workload {
  /// Throws ParallelConfigError on invalid full-electrostatics options.
  Workload(const Molecule& molecule, const MachineModel& machine,
           const NonbondedOptions& nonbonded = {},
           const ComputePlanOptions& plan_opts = {});

  const Molecule* mol;
  NonbondedOptions nonbonded;
  Decomposition decomp;
  /// Unsplit per-object costs from a probe kernel pass; drives splitting.
  MeasuredCosts measured;
  ComputePlan plan;
  WorkCache work;
};

/// Placement knobs for the parallel PME slab objects. Active only when the
/// workload's NonbondedOptions::full_elec is enabled; the grid geometry and
/// spline order come from there so the parallel path can never drift from
/// the sequential reference physics.
struct ParallelPmeOptions {
  /// Number of PME slab objects. The slab count partitions the gather, the
  /// reciprocal-energy sum and the exclusion-correction work, so it is part
  /// of the numerics contract: hold it fixed while sweeping PE counts, LB
  /// strategies and backends and trajectories stay bitwise identical.
  int slabs = 4;
  /// 0 (default): slabs start round-robin across all PEs and migrate under
  /// load balancing like any other object. > 0: slabs are pinned round-robin
  /// onto the last `dedicated_ranks` PEs and excluded from LB — the
  /// dedicated-PME-ranks ablation (see EXPERIMENTS.md).
  int dedicated_ranks = 0;
};

struct ParallelOptions {
  int num_pes = 1;
  MachineModel machine = MachineModel::asci_red();
  /// Which machine runs the message-driven runtime: the discrete-event
  /// model (kSimulated, the default) or real worker threads (kThreaded).
  /// The threaded backend requires numeric mode and excludes the DES-only
  /// layers (faults, reliable delivery, checkpointing).
  BackendKind backend = BackendKind::kSimulated;
  /// Worker threads for the threaded backend (0 = one per hardware thread,
  /// clamped to num_pes). Ignored by the simulated backend.
  int threads = 0;
  /// Process-backend knobs (worker count, heartbeat, chaos kill). Ignored
  /// by the other backends. The process backend requires numeric mode like
  /// the threaded one, but DOES support checkpoint_every: checkpoints are
  /// serialized to checkpoint_path through the wire layer, and a worker
  /// killed mid-cycle triggers a real restore-and-replay.
  ProcessOptions process;
  /// On-disk checkpoint file for the process backend.
  std::string checkpoint_path = "scalemd_checkpoint.bin";
  /// Optional precomputed initial patch placement (one home PE per patch).
  /// When set (and sized to the workload's patch count), the constructor
  /// adopts it instead of re-running RCB — the serve layer's topology cache
  /// shares one RCB result across identical-topology jobs. The vector must
  /// be what rcb_patch_map would produce for this workload and PE count;
  /// anything else still runs (placement never changes trajectories) but
  /// forfeits the paper's locality-seeded starting point.
  std::shared_ptr<const std::vector<int>> initial_patch_home;
  LbPolicy lb;
  /// Parallel PME slab placement (used when the workload enables full_elec).
  ParallelPmeOptions pme;
  /// Use the single-packing multicast of section 4.2.3.
  bool optimized_multicast = true;
  /// Execute real force math and integration (tests / short runs). When
  /// false, task costs come from the WorkCache and no numerics run.
  bool numeric = false;
  double dt_fs = 1.0;
  /// Message sizing.
  int bytes_per_atom_coord = 24;
  int bytes_per_atom_force = 24;
  int msg_header_bytes = 32;

  // --- resilience ------------------------------------------------------
  /// Chaos schedule for the simulated machine (empty = fault-free).
  FaultPlan fault;
  /// Route runtime messages through the reliable-delivery layer
  /// (dedup + ack/timeout retry). Pass-through when the plan is empty.
  bool reliable = false;
  ReliableOptions reliable_opts;
  /// Coordinated in-memory checkpoint every N run_cycle calls (0 = off).
  /// With a valid checkpoint, a cycle stalled by a PE failure triggers
  /// restore + evacuation + replay instead of a hung run.
  int checkpoint_every = 0;

  // --- defect injection (fuzzer self-test only) ------------------------
  /// HIDDEN: every compute and PME slab adds its double forces straight into
  /// the home patch's force, in the order the tasks run (message-ARRIVAL
  /// order; simulated backend only, where that order is deterministic),
  /// instead of through the fixed-point accumulators. Double addition
  /// rounds, so trajectories then depend on the message schedule, and the
  /// cross-backend and chaos-equality oracles must flag it.
  /// `scalemd-fuzz --self-test` flips this flag to prove the fuzzing harness
  /// still catches and shrinks it. Never set it anywhere else.
  bool debug_fold_arrival_order = false;
};

/// The parallel NAMD reproduction: home patches, proxy patches and compute
/// objects wired into the discrete-event machine, with measurement-based
/// load balancing. One instance = one machine configuration (P processors of
/// one MachineModel) running one workload.
class ParallelSim {
 public:
  /// Throws ParallelConfigError, naming the first broken rule, when the
  /// combination cannot run:
  /// - the threaded and process backends execute for real, so they need
  ///   numeric mode;
  /// - kTiledThreads runs only in the sequential engine (use kTiled: the
  ///   runtime already runs computes on every PE at once);
  /// - fault plans and reliable delivery model DES timers, so they need the
  ///   simulated backend; checkpoints need the simulated or process backend;
  /// - full-electrostatics options must pass full_elec_error();
  /// - pme.slabs must be at least 1 and pme.dedicated_ranks not negative.
  ParallelSim(const Workload& workload, const ParallelOptions& opts);
  ~ParallelSim();

  /// Runs the paper's benchmark protocol: a measurement cycle under the
  /// static initial placement, the full LB (strategy per options), a second
  /// measurement cycle, a refine-only LB, then a timed cycle. Returns
  /// steady-state seconds per step of the timed cycle.
  double run_benchmark(int measure_steps = 3, int timed_steps = 5);

  /// Runs one pipelined cycle of `steps` timesteps and quiesces. The cycle
  /// records steps + 1 step entries (step 0 through the closing half-kick)
  /// and evaluates forces once per step: in numeric mode it opens on the
  /// forces the last cycle closed with. A fresh sim, a cycle after an
  /// incomplete one, and frozen mode run an opening force round as well,
  /// steps + 1 rounds in all. In numeric mode, atoms that left their patch
  /// cube migrate afterwards. Throws ParallelConfigError when steps < 1, and
  /// ForceRangeError when a force left the fixed-point range during the
  /// cycle.
  void run_cycle(int steps);

  /// Applies the configured strategy (greedy and/or refine) using loads
  /// measured since the last call; models object-migration messages.
  void load_balance(bool refine_only = false);

  // --- results & instrumentation -------------------------------------
  /// The execution machine, whichever kind is active.
  ExecBackend& backend() { return *exec_; }
  const ExecBackend& backend() const { return *exec_; }

  /// The DES machine. Throws ParallelConfigError on the other backends, in
  /// every build; backend-agnostic callers should use backend() instead.
  Simulator& sim() { return *des_or_throw(); }
  const Simulator& sim() const { return *des_or_throw(); }

  /// Completion time of each global step so far, in the backend's clock
  /// (virtual seconds simulated, wall-clock seconds threaded).
  const std::vector<double>& step_completion() const { return step_completion_; }

  /// step_completion()[s], or 0.0 when `s` is out of range — never UB.
  double step_completion_at(int s) const;

  /// Steady-state s/step over the last `steps` completed steps: the
  /// difference of completion times, which leaves out the cycle's step 0
  /// (its opening force round, or only the opening half-kick when the cycle
  /// opens on carried forces).
  /// Out-of-range requests clamp: fewer than two recorded steps give 0.0,
  /// and `steps` is clamped to the recorded span.
  double seconds_per_step_tail(int steps) const;

  /// Attaches an additional trace sink (event log, summary, ...). Detach
  /// any sink whose lifetime ends before this ParallelSim's.
  void attach_sink(TraceSink* sink);
  void detach_sink(const TraceSink* sink);

  /// Called at the end of every run_cycle(), after the machine has quiesced
  /// and (in numeric mode) atoms have migrated, with the completed cycle's
  /// step count. The validation subsystem (check::InvariantChecker) attaches
  /// through this hook; replaces any previous observer.
  using CycleObserver = std::function<void(const ParallelSim&, int steps)>;
  void set_cycle_observer(CycleObserver obs) { cycle_observer_ = std::move(obs); }

  /// Ideal per-step times by category from the work cache (for audits and
  /// speedup denominators).
  double ideal_nonbonded_seconds() const;
  double ideal_bonded_seconds() const;
  double ideal_integration_seconds() const;

  // --- state access for tests ----------------------------------------
  const std::vector<int>& patch_home() const { return patch_home_; }
  const std::vector<int>& compute_pe() const { return compute_pe_; }
  int proxy_count() const;
  /// Max remote PEs any single patch's coordinates are multicast to.
  int max_proxies_per_patch() const;

  /// Numeric mode: state gathered by global atom id.
  std::vector<Vec3> gather_positions() const;
  std::vector<Vec3> gather_velocities() const;
  std::vector<Vec3> gather_forces() const;

  /// Numeric mode: potential energy accumulated by computes at step s
  /// (global step index). Folded in canonical compute-id order at cycle
  /// end, so the value is bitwise identical across backends, placements
  /// and thread counts. Out-of-range steps give zero terms.
  EnergyTerms potential_terms_at_step(int s) const;
  double potential_at_step(int s) const;
  /// Reduction results per round (numeric: sum over patches of local
  /// kinetic energy; frozen: patch count).
  const std::vector<double>& reduction_results() const { return reduction_totals_; }

  int total_steps() const { return global_steps_; }
  const LoadDatabase& load_database() const { return *db_; }
  const ParallelOptions& options() const { return opts_; }
  const Molecule& molecule() const { return *mol_; }
  int patch_count() const;

  // --- resilience ------------------------------------------------------
  /// True when every patch finished the last run_cycle's final step. A
  /// false value after run_cycle means work was lost to faults and not
  /// recovered (no checkpoint, or the restart cap was hit); the invariant
  /// checker uses this to tell "stalled by fault" from a runtime bug.
  bool last_cycle_complete() const;

  /// The encoded sim state (wire-encoded, raw IEEE bits) — the blob every
  /// checkpoint keeps: in memory on the DES, on disk on the process backend.
  /// Requires a quiesced machine (between run_cycle calls). The serve layer
  /// preempts jobs with this: export, destroy the sim, later import into a
  /// fresh ParallelSim built from the same workload and options.
  std::vector<std::uint8_t> export_state() const;
  /// Adopts a blob produced by export_state() on a compatible ParallelSim
  /// and rebuilds the derived state, dataflow and reducer around it. The
  /// decode is strict: a blob that is malformed or does not fit this sim
  /// throws StateError and leaves the sim untouched. Unlike a fault
  /// restore, this counts no restart and charges no lost time: resuming
  /// from an imported state continues the run exactly where the exporting
  /// sim stopped, bitwise.
  void import_state(const std::vector<std::uint8_t>& blob);

  int checkpoints_taken() const { return checkpoints_taken_; }
  int restarts() const { return restarts_; }
  /// Virtual seconds of lost work re-executed across all restarts (the
  /// restart latency the audit reports).
  double restart_latency() const { return restart_lost_time_; }
  /// Reliable-delivery layer, if enabled (nullptr otherwise).
  const ReliableComm* reliable() const { return reliable_.get(); }

  /// True when the workload runs full electrostatics and this sim therefore
  /// hosts parallel PME slab objects.
  bool pme_enabled() const { return pme_plan_ != nullptr; }
  /// Home PE of every PME slab object (empty when PME is off).
  const std::vector<int>& slab_pe() const { return slab_pe_; }

 private:
  struct PatchRt;
  struct ProxyRt;
  struct ComputeRt;
  struct PmeSlabRt;
  struct SimState;

  Simulator* des_or_throw() const;
  void build_initial_placement();
  void rebuild_dataflow();
  void rebuild_reducer();
  void publish_coords(ExecContext& ctx, int patch);
  /// kTiled: lays out the patch's cluster tile again from its current atoms
  /// and positions (no-op for the other kernels).
  void gather_tile(int patch);
  TileView tile_of(int patch) const;
  void on_recv_coords(ExecContext& ctx, int patch, int pe);
  void run_compute(ExecContext& ctx, int compute);
  void complete_patch_on_pe(ExecContext& ctx, int patch, int pe);
  /// `from_proxy` is the contributing proxy's index, whose accumulator the
  /// patch adds (-1: a PME share, already added, or a contribution-less
  /// patch).
  void on_contribution(ExecContext& ctx, int patch, int from_proxy);
  void advance(ExecContext& ctx, int patch);
  void migrate_atoms();
  /// Rebuilds what follows from the patches' atom ids: atom_loc_, the
  /// patches' masses and the bonded computes' patch dependencies.
  void refresh_atom_index();
  // --- parallel PME pipeline (see the "Parallel PME" section in the .cpp) --
  /// Initial slab placement: round-robin over all PEs, or pinned onto the
  /// last `pme.dedicated_ranks` PEs.
  void pme_place_slabs();
  /// Patch-side: one atoms message per slab, sent alongside the coordinate
  /// multicast every force round.
  void publish_pme_atoms(ExecContext& ctx, int patch);
  /// Slab phase 1 trigger: buffers the patch's positions (`wire_pos` when
  /// the message crossed a worker boundary, else read from the replica);
  /// when all patches deposited, spreads + 2D FFTs + sends forward blocks.
  void on_pme_atoms(ExecContext& ctx, int slab, int patch, int step,
                    std::vector<Vec3>* wire_pos);
  void pme_spread_and_transpose(ExecContext& ctx, int slab);
  /// Slab phase 2: collects forward transpose blocks; when all S arrived,
  /// z-FFT + influence convolution (energy partial) + inverse z-FFT, then
  /// sends backward blocks.
  void on_pme_fwd(ExecContext& ctx, int slab, int src,
                  const std::vector<double>& block);
  void pme_convolve_and_return(ExecContext& ctx, int slab);
  /// Slab phase 3: collects backward blocks; when all S arrived, inverse
  /// 2D FFT + force gather + this slab's exclusion-correction and
  /// self-energy shares, then one force message per patch.
  void on_pme_bwd(ExecContext& ctx, int slab, int src,
                  const std::vector<double>& block);
  void pme_gather_and_send(ExecContext& ctx, int slab);
  /// Patch-side: adds one slab's force share; counts as a contribution.
  void on_pme_force(ExecContext& ctx, int patch, const std::vector<Vec3>& frc);
  /// Modeled DES cost of one slab task phase (identical in numeric and
  /// frozen mode, so frozen-mode benchmarks price PME realistically).
  double pme_phase_cost(int slab, int phase) const;
  int proxy_index(int patch, int pe) const;
  /// Modeled size of a message carrying `n` items of `item_bytes` each.
  std::size_t msg_bytes(std::size_t n, std::size_t item_bytes) const {
    return static_cast<std::size_t>(opts_.msg_header_bytes) + n * item_bytes;
  }
  /// Applies the machine's multiplicative task-time noise to a cost.
  double noisy(double cost);
  /// The injected arrival-order defect is armed (see
  /// ParallelOptions::debug_fold_arrival_order).
  bool fold_arrival() const { return opts_.debug_fold_arrival_order && des_ != nullptr; }
  /// Routes through the reliable layer when enabled, else a raw send.
  void rsend(ExecContext& ctx, int dest, TaskMsg msg);
  /// One quiesced cycle attempt (the pre-resilience run_cycle body).
  void attempt_cycle(int steps);
  void take_checkpoint();
  void restore_checkpoint();
  /// True when a checkpoint exists to restore from (in memory for the DES
  /// backend, on disk for the process backend).
  bool have_checkpoint() const { return !ckpt_.empty() || ckpt_on_disk_; }
  /// Strict decode of an export_state() blob into a staging record, checked
  /// against this sim; throws StateError and changes nothing on a bad blob.
  SimState decode_state(const std::vector<std::uint8_t>& blob) const;
  /// Adopts a decoded state: rebuilds the derived state, then the reducer
  /// and the dataflow (evacuating failed PEs when there are any). Shared by
  /// the fault restore (which also books restart accounting) and
  /// import_state (which must not).
  void apply_state(SimState s);
  /// Process-backend wire plumbing: per-entry decoders for the messages
  /// that cross worker boundaries, plus the end-of-run state flush/merge.
  void setup_process_wire();
  std::vector<std::uint8_t> flush_worker_state(int worker) const;
  void merge_worker_state(const std::vector<std::uint8_t>& blob);
  /// Re-homes a failed PE's patches and computes onto survivors and
  /// rebuilds the reducer and the dataflow. Records kEvacuation. Callers
  /// make sure at least one PE survives.
  void evacuate_failed_pes(const std::vector<int>& dead);
  /// Load-balancer input for the migratable computes (measured loads,
  /// current PEs, patch dependencies); object_compute maps each object back
  /// to its compute id.
  LbProblem lb_problem(std::vector<int>& object_compute) const;
  /// Per-atom `field` of every patch, by global atom id.
  std::vector<Vec3> gather(std::vector<Vec3> PatchRt::*field) const;

  const Workload* wl_;
  ParallelOptions opts_;
  const Molecule* mol_;
  ExclusionTable excl_;                 // numeric mode
  std::vector<double> charges_;
  std::vector<int> lj_types_;
  std::unique_ptr<NonbondedContext> nb_ctx_;
  // kTiled (numeric mode): one cluster tile per patch. A patch's tile is
  // laid out once per force round where the round's coordinates land
  // (publish_coords on the home, the coords decoder on a remote process
  // worker) and shared by every compute reading the patch that round; its
  // storage is reused from round to round. Derived state: never
  // checkpointed, exported or flushed.
  std::vector<ClusterTile> tiles_;
  // One compute scratch per PE (numeric mode): under the threaded backend
  // each PE's worker runs computes concurrently, and the scratch must not
  // be shared.
  struct PeScratch {
    TileScratch tile;
    std::vector<ComputePatch> patches;  ///< the running compute's patches
    /// The running compute's forces on each dependency patch, in double;
    /// every compute on the PE reuses them.
    std::vector<std::vector<Vec3>> frc;
    /// A force on this PE left the fixed-point range this cycle (see
    /// ForceRangeError).
    bool force_range_error = false;
  };
  std::vector<PeScratch> pe_scratch_;

  std::unique_ptr<ExecBackend> exec_;
  Simulator* des_ = nullptr;  ///< exec_ downcast when simulated, else null
  ProcessBackend* proc_ = nullptr;  ///< exec_ downcast when process, else null
  MultiSink sinks_;
  std::unique_ptr<LoadDatabase> db_;

  // Entry ids.
  EntryId e_advance_, e_coords_, e_forces_, e_self_, e_pair_, e_bonded_intra_,
      e_bonded_inter_, e_reduction_, e_migrate_, e_checkpoint_;
  // Parallel PME entries (registered only when the workload enables
  // full_elec; see the "Parallel PME" section in the .cpp).
  EntryId e_pme_atoms_{}, e_pme_tr_fwd_{}, e_pme_tr_bwd_{}, e_pme_force_{};

  std::vector<PatchRt> patches_;
  std::vector<ProxyRt> proxies_;
  std::vector<std::vector<int>> patch_proxy_ids_;  // patch -> proxy indices
  std::vector<ComputeRt> computes_;
  std::vector<int> patch_home_;
  std::vector<int> compute_pe_;
  std::vector<std::pair<int, int>> atom_loc_;  // global atom -> (patch, index)

  std::unique_ptr<Reducer> reducer_;
  std::vector<double> reduction_totals_;
  CycleObserver cycle_observer_;
  Rng noise_rng_{0xC0FFEE};

  int cycle_target_ = 0;       // per-cycle steps
  /// The running cycle opens on the forces the last one closed with: it runs
  /// no round 0, and advance() kicks step 0 with the carried frc.
  bool carried_ = false;
  int global_steps_ = 0;       // completed steps across cycles
  int step_base_ = 0;          // global index of the current cycle's step 0
  std::vector<int> steps_done_counter_;
  std::vector<double> step_completion_;
  /// Latest advance() completion seen per global step. Under the process
  /// backend each worker only sees its own patches' advances, so workers
  /// flush (counter delta, latest advance time) per step and the parent
  /// reconstructs step_completion_ as the max once the summed counter
  /// reaches active_patches_.
  std::vector<double> step_last_advance_;
  /// Guards the cross-patch step bookkeeping above: under the threaded
  /// backend, advance() for different patches runs on different workers.
  std::mutex progress_mu_;
  /// Per-(compute, local step) potential terms for the running cycle,
  /// indexed compute * (cycle_target_ + 1) + step. Disjoint slots (no
  /// sharing), written by assignment (idempotent under fault replay),
  /// folded into potential_per_step_ in compute-id order at cycle end.
  std::vector<EnergyTerms> potential_scratch_;
  std::vector<EnergyTerms> potential_per_step_;
  int active_patches_ = 0;

  // --- parallel PME state (null / empty when full_elec is off) ---------
  std::unique_ptr<PmeSlabPlan> pme_plan_;
  std::vector<PmeSlabRt> pme_slabs_;
  std::vector<int> slab_pe_;  ///< home PE of each slab (an LB object)
  /// Per-(slab, local step) reciprocal + correction + self energy partial,
  /// indexed slab * (cycle_target_ + 1) + step; written by assignment,
  /// folded into potential_per_step_.elec in slab order at cycle end.
  std::vector<double> pme_scratch_;

  // Resilience state.
  std::unique_ptr<ReliableComm> reliable_;
  std::vector<std::uint8_t> ckpt_;  ///< DES: the last checkpoint's state blob
  bool ckpt_on_disk_ = false;  ///< process backend: checkpoint lives on disk
  double ckpt_taken_at_ = 0.0;  ///< backend time of the last checkpoint
  std::vector<int> cycles_since_ckpt_;  // step counts of cycles to replay
  int checkpoints_taken_ = 0;
  int restarts_ = 0;
  double restart_lost_time_ = 0.0;
};

}  // namespace scalemd
