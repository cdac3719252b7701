// Quickstart: build a small solvated system, run a short NVE simulation with
// the sequential engine, and print an energy log — the "hello world" of the
// scalemd library. See examples/apoa1_scaling.cpp for the parallel path.
//
// Usage: quickstart [--kernel scalar|tiled|tiled+threads] [--threads N]
//                   [--check]
//        quickstart --backend=sim|threads|process [--pes N] [--threads N]
//                   [--workers N] [--full-elec] [--kernel K] [--check]
//        quickstart --backend=process --kill-worker W [--kill-after N]
//                   [--checkpoint-every N] [--checkpoint-path FILE] [--check]
//        quickstart --pes N [--fault-seed S | --fault-plan FILE]
//                   [--checkpoint-every N] [--kernel K] [--check]
//
// --kernel picks the non-bonded kernel in every form; without it each run
// uses the library default (tiled). scalar is the reference loop the other
// kernels are tested against. tiled+threads runs only in the sequential
// engine: the --backend and --pes forms reject it with an error.
//
// --check attaches the physics-invariant checker (src/check/) to the run and
// reports any violated invariant (energy drift, net force/momentum, ...).
//
// The --backend form runs the waterbox preset through the parallel runtime
// on the chosen execution backend: `sim` replays the discrete-event machine
// model (virtual time), `threads` maps the PEs onto real worker threads
// (wall-clock time, --threads N workers, 0 = all hardware threads), and
// `process` forks --workers N real OS processes that host the PEs and talk
// over checksummed wire frames (src/rts/wire.*). All backends produce
// bitwise-identical trajectories — that equivalence is pinned by
// tests/test_backend_diff.cpp and tests/test_process_backend.cpp.
//
// --full-elec switches the backend demo to a charged salty-water preset and
// arms full electrostatics: erfc-screened direct space plus the parallel
// PME reciprocal solve (slab objects exchanging transpose messages in the
// runtime; see tests/test_pme_parallel.cpp for the bitwise contract).
//
// With --backend=process, --kill-worker W SIGKILLs worker W mid-run (after
// --kill-after N routed frames) to demonstrate real crash recovery: the
// heartbeat detector declares the worker dead, its PEs are evacuated, and
// the run restarts from the last on-disk checkpoint (--checkpoint-every N
// cycles, written to --checkpoint-path). The recovered trajectory is
// bitwise identical to a fault-free run.
//
// The second form runs the waterbox preset on the simulated parallel machine
// with the fault-tolerant runtime armed: --fault-seed S injects the generic
// seeded chaos mix (drops, duplicates, latency spikes), --fault-plan FILE
// loads an explicit schedule (see EXPERIMENTS.md for the schema, including
// scheduled PE failures), and --checkpoint-every N takes a coordinated
// checkpoint every N cycles (default 1) so a killed PE triggers
// restore + evacuation + replay instead of a hung run. The run prints the
// recovery-metrics table and exits non-zero on any invariant violation or
// unrecovered cycle.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/invariants.hpp"
#include "core/parallel_sim.hpp"
#include "des/fault.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "gen/presets.hpp"
#include "gen/test_systems.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "seq/minimize.hpp"
#include "trace/audit.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--kernel scalar|tiled|tiled+threads] [--threads N]"
               " [--check]\n"
               "       %s --backend=sim|threads|process [--pes N] [--threads N]"
               " [--workers N] [--full-elec] [--kernel K] [--check]\n"
               "       %s --backend=process --kill-worker W [--kill-after N]"
               " [--checkpoint-every N] [--checkpoint-path FILE] [--check]\n"
               "       %s --pes N [--fault-seed S | --fault-plan FILE]"
               " [--checkpoint-every N] [--kernel K] [--check]\n",
               prog, prog, prog, prog);
  return 1;
}

/// Process-backend knobs for the backend demo; inert on sim/threads.
struct ProcessDemo {
  int workers = 2;
  int kill_worker = -1;           ///< >= 0 arms the one-shot SIGKILL
  std::uint64_t kill_after = 10;  ///< routed frames before the kill fires
  int checkpoint_every = 0;       ///< cycles between disk checkpoints
  std::string checkpoint_path;
};

/// The backend demo: waterbox on the parallel runtime — DES, real threads,
/// or forked worker processes (optionally with a chaos kill + recovery).
int run_parallel(scalemd::BackendKind backend, int pes, int threads,
                 scalemd::NonbondedKernel kernel, const ProcessDemo& proc,
                 bool full_elec, bool check) {
  using namespace scalemd;

  Molecule mol;
  if (full_elec) {
    // Net-neutral salty water: bare +-1 ions make the reciprocal sum earn
    // its keep. Same preset as the "waterbox_ions" golden.
    TestSystemOptions sys;
    sys.kind = TestSystemKind::kWaterBox;
    sys.box = {16.0, 16.0, 16.0};
    sys.ion_pairs = 4;
    sys.temperature = 300.0;
    sys.seed = 11;
    mol = make_test_system(sys);
    mol.suggested_patch_size = 8.0;
  } else {
    mol = make_water_box({16.0, 16.0, 16.0}, /*seed=*/11);
    mol.assign_velocities(300.0, /*seed=*/101);
    mol.suggested_patch_size = 8.0;
  }
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  nb.kernel = kernel;
  if (full_elec) {
    nb.full_elec.enabled = true;
    nb.full_elec.alpha = 0.46;  // erfc(alpha * cutoff) ~ 1e-2 of the screen
    nb.full_elec.grid_x = nb.full_elec.grid_y = nb.full_elec.grid_z = 16;
    nb.full_elec.order = 4;
  }

  const Workload workload(mol, MachineModel::asci_red(), nb);
  ParallelOptions opts;
  opts.num_pes = pes;
  opts.numeric = true;
  opts.dt_fs = 1.0;
  opts.backend = backend;
  opts.threads = threads;
  opts.lb.kind = LbStrategyKind::kGreedyRefine;
  if (backend == BackendKind::kProcess) {
    opts.process.workers = proc.workers;
    opts.process.kill_worker = proc.kill_worker;
    opts.process.kill_after_frames = proc.kill_after;
    opts.checkpoint_every = proc.checkpoint_every;
    opts.checkpoint_path = proc.checkpoint_path;
  }
  ParallelSim sim(workload, opts);
  std::printf("system: %s, %d atoms on %d PEs, backend %s, kernel %s\n",
              full_elec ? "waterbox+ions" : "waterbox", mol.atom_count(), pes,
              backend_name(backend), kernel_name(kernel));
  if (full_elec) {
    std::printf("full electrostatics: PME %dx%dx%d order %d, %d slab "
                "object(s) in the runtime\n",
                nb.full_elec.grid_x, nb.full_elec.grid_y, nb.full_elec.grid_z,
                nb.full_elec.order, opts.pme.slabs);
  }
  if (backend == BackendKind::kProcess) {
    std::printf("workers: %d forked processes", proc.workers);
    if (proc.kill_worker >= 0) {
      std::printf(", SIGKILL worker %d after %llu frames, checkpoint every "
                  "%d cycle(s) -> %s",
                  proc.kill_worker,
                  static_cast<unsigned long long>(proc.kill_after),
                  proc.checkpoint_every, proc.checkpoint_path.c_str());
    }
    std::printf("\n");
  }

  InvariantOptions iopts;
  iopts.check_energy = false;  // a handful of steps; drift bound is for runs
  if (full_elec) {
    // PME mesh interpolation breaks exact force antisymmetry at the
    // interpolation-error scale; rounding-level bounds would fire on
    // correct physics (same rationale as the fuzz harness).
    iopts.net_force_rel = 1e-3;
    iopts.momentum_rel = 1e-2;
  }
  InvariantChecker checker(iopts);
  if (check) checker.attach(sim);

  constexpr int kCycles = 3;
  constexpr int kSteps = 2;
  for (int c = 0; c < kCycles; ++c) {
    if (c > 0) sim.load_balance();  // greedy once, then refine
    sim.run_cycle(kSteps);
  }

  std::printf("%s time: %.6f s for %d steps (%.3f ms/step tail)\n",
              sim.backend().wall_clock() ? "wall-clock" : "virtual",
              sim.backend().time(), sim.total_steps(),
              sim.seconds_per_step_tail(kSteps) * 1e3);

  bool ok = true;
  if (backend == BackendKind::kProcess) {
    std::printf("recovery: %d checkpoint(s) taken, %d restart(s)\n",
                sim.checkpoints_taken(), sim.restarts());
    if (!sim.last_cycle_complete()) {
      std::printf("UNRECOVERED: the last cycle did not complete\n");
      ok = false;
    } else if (proc.kill_worker >= 0 && sim.restarts() == 0) {
      std::printf("NOTE: the kill never fired (run too short for %llu "
                  "frames?)\n",
                  static_cast<unsigned long long>(proc.kill_after));
      ok = false;
    }
  }

  if (check) {
    std::printf("invariants: %llu checks",
                static_cast<unsigned long long>(checker.checks_run()));
    if (checker.ok()) {
      std::printf(", all passed\n");
    } else {
      std::printf(", %zu VIOLATIONS\n%s", checker.log().size(),
                  checker.log().render().c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

/// The chaos demo: waterbox on the simulated machine, resilient runtime on.
int run_chaos(int pes, scalemd::NonbondedKernel kernel,
              const scalemd::FaultPlan& plan, int checkpoint_every, bool check) {
  using namespace scalemd;

  Molecule mol = make_water_box({16.0, 16.0, 16.0}, /*seed=*/11);
  mol.assign_velocities(300.0, /*seed=*/101);
  mol.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  nb.kernel = kernel;
  std::printf("system: waterbox, %d atoms on %d simulated PEs, kernel %s\n",
              mol.atom_count(), pes, kernel_name(kernel));
  std::printf("fault plan: seed %llu, drop %.3f, dup %.3f, delay %.3f, "
              "%zu slowdowns, %zu failures\n",
              static_cast<unsigned long long>(plan.seed), plan.drop_prob,
              plan.dup_prob, plan.delay_prob, plan.slowdowns.size(),
              plan.failures.size());

  const Workload workload(mol, MachineModel::asci_red(), nb);
  ParallelOptions opts;
  opts.num_pes = pes;
  opts.numeric = true;
  opts.dt_fs = 1.0;
  opts.fault = plan;
  opts.reliable = true;
  opts.checkpoint_every = checkpoint_every;
  ParallelSim sim(workload, opts);

  InvariantOptions iopts;
  iopts.check_energy = false;  // a handful of steps; drift bound is for runs
  InvariantChecker checker(iopts);
  if (check) checker.attach(sim);

  constexpr int kCycles = 3;
  constexpr int kSteps = 2;
  for (int c = 0; c < kCycles; ++c) sim.run_cycle(kSteps);

  const ResilienceStats rs = resilience_stats(
      sim.sim().fault_stats(),
      sim.reliable() != nullptr ? &sim.reliable()->stats() : nullptr,
      sim.checkpoints_taken(), sim.restarts(), sim.restart_latency());
  std::printf("\n%s", render_resilience(rs).c_str());
  std::printf("virtual time: %.6f s for %d steps\n", sim.sim().time(),
              sim.total_steps());

  bool ok = true;
  if (!sim.last_cycle_complete()) {
    std::printf("UNRECOVERED: the last cycle did not complete (work lost to "
                "faults; no checkpoint or restart cap hit)\n");
    ok = false;
  }
  if (check) {
    std::printf("invariants: %llu checks",
                static_cast<unsigned long long>(checker.checks_run()));
    if (checker.ok()) {
      std::printf(", all passed\n");
    } else {
      std::printf(", %zu VIOLATIONS\n%s", checker.log().size(),
                  checker.log().render().c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

/// Runs a parallel demo, turning a rejected configuration (for example
/// tiled+threads) into an error message and exit code 1.
template <class Demo>
int run_guarded(const Demo& demo) {
  try {
    return demo();
  } catch (const scalemd::ParallelConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;

  NonbondedKernel kernel = NonbondedOptions{}.kernel;
  int threads = 0;  // 0 = let the engine pick
  bool check = false;
  int pes = 0;  // > 0 selects the parallel chaos demo
  int checkpoint_every = 1;
  bool have_plan = false;
  bool have_backend = false;
  BackendKind backend = BackendKind::kSimulated;
  FaultPlan plan;
  ProcessDemo proc;
  bool have_ckpt_path = false;
  bool full_elec = false;
  for (int i = 1; i < argc; ++i) {
    // --backend takes either "--backend=threads" or "--backend threads".
    const char* backend_arg = nullptr;
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend_arg = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend_arg = argv[++i];
    }
    if (backend_arg != nullptr) {
      if (!backend_from_name(backend_arg, backend)) {
        std::fprintf(stderr, "unknown backend '%s' (want sim|threads)\n",
                     backend_arg);
        return 1;
      }
      have_backend = true;
      continue;
    }
    if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      if (!kernel_from_name(argv[++i], kernel)) {
        std::fprintf(stderr, "unknown kernel '%s' (want scalar|tiled|tiled+threads)\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--full-elec") == 0) {
      full_elec = true;
    } else if (std::strcmp(argv[i], "--pes") == 0 && i + 1 < argc) {
      pes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      plan = FaultPlan::chaos(
          static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10)));
      have_plan = true;
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      FaultPlanParseError err;
      if (!parse_fault_plan(argv[++i], plan, err)) {
        std::fprintf(stderr, "error: %s\n", err.render().c_str());
        return 1;
      }
      have_plan = true;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 && i + 1 < argc) {
      checkpoint_every = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      proc.workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-worker") == 0 && i + 1 < argc) {
      proc.kill_worker = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-after") == 0 && i + 1 < argc) {
      proc.kill_after =
          static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--checkpoint-path") == 0 && i + 1 < argc) {
      proc.checkpoint_path = argv[++i];
      have_ckpt_path = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (proc.kill_worker >= 0 &&
      (!have_backend || backend != BackendKind::kProcess)) {
    std::fprintf(stderr,
                 "--kill-worker needs --backend=process (it SIGKILLs a real "
                 "forked worker)\n");
    return 1;
  }
  if (have_backend) {
    if (have_plan) {
      std::fprintf(stderr,
                   "--backend and fault injection are mutually exclusive: the "
                   "resilient runtime runs on the simulated machine\n");
      return 1;
    }
    if (backend == BackendKind::kProcess &&
        (proc.kill_worker >= 0 || have_ckpt_path)) {
      // Crash recovery needs a checkpoint to restart from; default to one
      // per cycle at a predictable path.
      proc.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
      if (!have_ckpt_path) proc.checkpoint_path = "quickstart.ckpt";
    }
    return run_guarded([&] {
      return run_parallel(backend, pes > 0 ? pes : 8, threads, kernel, proc,
                          full_elec, check);
    });
  }
  if (full_elec) {
    std::fprintf(stderr,
                 "--full-elec needs --backend=... (it demos the parallel PME "
                 "pipeline)\n");
    return 1;
  }
  if (pes > 0 || have_plan) {
    if (pes <= 0) pes = 8;
    return run_guarded(
        [&] { return run_chaos(pes, kernel, plan, checkpoint_every, check); });
  }

  // A ~3000-atom solvated chain (deterministic for a given seed).
  Molecule mol = small_solvated_chain(3000, /*seed=*/7);
  mol.assign_velocities(300.0, /*seed=*/42);
  std::printf("system: %s, %d atoms, box %.1f x %.1f x %.1f A\n", mol.name.c_str(),
              mol.atom_count(), mol.box.x, mol.box.y, mol.box.z);
  std::printf("topology: %zu bonds, %zu angles, %zu dihedrals, %zu impropers\n",
              mol.bonds().size(), mol.angles().size(), mol.dihedrals().size(),
              mol.impropers().size());

  EngineOptions opts;
  opts.nonbonded.cutoff = 10.0;
  opts.nonbonded.switch_dist = 8.5;
  opts.nonbonded.kernel = kernel;
  opts.nonbonded.threads = threads;
  opts.dt_fs = 0.5;
  std::printf("non-bonded kernel: %s\n", kernel_name(kernel));
  SequentialEngine engine(mol, opts);

  // Relax the synthetic starting structure before dynamics.
  const MinimizeResult min = minimize(engine, 300);
  std::printf("minimized %d steps: %.3g -> %.3g kcal/mol (max |F| %.1f)\n",
              min.steps, min.initial_energy, min.final_energy, min.max_force);

  InvariantChecker checker;
  if (check) checker.attach(engine);

  std::printf("\n%6s %14s %14s %14s\n", "step", "potential", "kinetic", "total");
  for (int block = 0; block <= 10; ++block) {
    std::printf("%6d %14.3f %14.3f %14.3f\n", block * 5, engine.potential().total(),
                engine.kinetic(), engine.total_energy());
    if (block < 10) engine.run(5);
  }

  std::printf("\nlast-step work: %llu pairs tested, %llu pairs inside cutoff\n",
              static_cast<unsigned long long>(engine.work().pairs_tested),
              static_cast<unsigned long long>(engine.work().pairs_computed));
  if (check) {
    std::printf("invariants: %llu checks",
                static_cast<unsigned long long>(checker.checks_run()));
    if (checker.ok()) {
      std::printf(", all passed\n");
    } else {
      std::printf(", %zu VIOLATIONS\n%s", checker.log().size(),
                  checker.log().render().c_str());
      return 1;
    }
  }
  return 0;
}
