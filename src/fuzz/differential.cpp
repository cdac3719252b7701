#include "fuzz/differential.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "check/des_invariants.hpp"
#include "check/invariants.hpp"
#include "check/violation_report.hpp"
#include "core/parallel_sim.hpp"
#include "gen/test_systems.hpp"
#include "serve/scheduler.hpp"

namespace scalemd {

namespace {

struct RunOutcome {
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
  double end_time = 0.0;
  bool complete = false;
  /// A cycle threw ForceRangeError (an exploding system); the run stopped
  /// there. Every leg of a scenario must agree on it.
  bool force_range = false;
  ViolationLog physics;  ///< InvariantChecker findings
  ViolationLog machine;  ///< DesInvariantSink findings (DES runs only)
};

std::string violations_detail(const std::string& run, const ViolationLog& log) {
  std::string out;
  for (const ViolationRecord& r : log.records()) {
    out += "[" + run + "] " + violation_one_line(r) + "\n";
  }
  return out;
}

ParallelOptions base_parallel_options(const ScenarioSpec& spec) {
  ParallelOptions opts;
  opts.num_pes = spec.num_pes;
  opts.numeric = true;
  opts.dt_fs = spec.dt_fs;
  opts.lb.kind = spec.lb;
  opts.pme.slabs = spec.pme_slabs;
  opts.pme.dedicated_ranks = spec.pme_dedicated;
  opts.debug_fold_arrival_order = spec.inject_defect;
  return opts;
}

RunOutcome run_scenario(const Workload& workload, const ScenarioSpec& spec,
                        const ParallelOptions& opts, bool apply_lb) {
  ParallelSim sim(workload, opts);
  InvariantOptions iopts;
  iopts.check_energy = false;  // a handful of steps; the drift bound is for runs
  if (spec.full_elec) {
    // PME mesh interpolation breaks exact force antisymmetry: the net force
    // residual sits at the interpolation-error scale (~1e-4 of sum |F| on a
    // 16^3 / order-4 grid), not at rounding, and the momentum drift
    // integrates it. Loosened bounds still catch sign/assembly bugs, which
    // blow past them immediately.
    iopts.net_force_rel = 1e-3;
    iopts.momentum_rel = 1e-2;
  }
  InvariantChecker checker(iopts);
  checker.attach(sim);
  RunOutcome out;
  DesInvariantSink machine_sink(&out.machine);
  const bool des = opts.backend == BackendKind::kSimulated;
  if (des) sim.attach_sink(&machine_sink);

  for (int c = 0; c < spec.cycles && !out.force_range; ++c) {
    if (c > 0 && apply_lb && spec.lb != LbStrategyKind::kNone) {
      sim.load_balance();
    }
    try {
      sim.run_cycle(spec.steps);
    } catch (const ForceRangeError&) {
      out.force_range = true;
    }
  }

  out.positions = sim.gather_positions();
  out.velocities = sim.gather_velocities();
  out.end_time = sim.backend().time();
  out.complete = sim.last_cycle_complete();
  out.physics = checker.log();
  if (des) sim.detach_sink(&machine_sink);
  return out;
}

/// First bitwise difference between two state arrays, or "" when identical.
std::string first_bitwise_diff(const RunOutcome& got, const RunOutcome& ref) {
  if (got.force_range != ref.force_range) {
    return std::string("ForceRangeError in ") + (got.force_range ? "this run" : "the reference") +
           " only";
  }
  if (got.positions.size() != ref.positions.size()) {
    return "atom count mismatch: " + std::to_string(got.positions.size()) +
           " vs " + std::to_string(ref.positions.size());
  }
  const auto diff_at = [](const char* what, std::size_t i, double g, double r) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s[%zu]: %.17g vs %.17g", what, i, g, r);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < ref.positions.size(); ++i) {
    const Vec3& g = got.positions[i];
    const Vec3& r = ref.positions[i];
    if (g.x != r.x) return diff_at("pos.x", i, g.x, r.x);
    if (g.y != r.y) return diff_at("pos.y", i, g.y, r.y);
    if (g.z != r.z) return diff_at("pos.z", i, g.z, r.z);
  }
  for (std::size_t i = 0; i < ref.velocities.size(); ++i) {
    const Vec3& g = got.velocities[i];
    const Vec3& r = ref.velocities[i];
    if (g.x != r.x) return diff_at("vel.x", i, g.x, r.x);
    if (g.y != r.y) return diff_at("vel.y", i, g.y, r.y);
    if (g.z != r.z) return diff_at("vel.z", i, g.z, r.z);
  }
  return "";
}

/// Max relative deviation (array-scale) between two position/velocity sets.
double max_rel_deviation(const std::vector<Vec3>& got,
                         const std::vector<Vec3>& ref) {
  double scale = 1.0;
  for (const Vec3& v : ref) {
    scale = std::max({scale, std::fabs(v.x), std::fabs(v.y), std::fabs(v.z)});
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, norm(got[i] - ref[i]) / scale);
  }
  return worst;
}

/// Scores one run's own oracles; fills `verdict` and returns true on failure.
bool score_run(const std::string& label, const RunOutcome& run,
               FuzzVerdict& verdict) {
  if (!run.machine.empty()) {
    verdict.ok = false;
    verdict.oracle = "des-invariant:" + run.machine.records().front().term;
    verdict.detail = violations_detail(label, run.machine);
    return true;
  }
  if (!run.physics.empty()) {
    verdict.ok = false;
    verdict.oracle = "invariant:" + run.physics.records().front().term;
    verdict.detail = violations_detail(label, run.physics);
    return true;
  }
  return false;
}

}  // namespace

FuzzVerdict evaluate_scenario(const ScenarioSpec& spec) {
  FuzzVerdict verdict;

  TestSystemOptions sys;
  sys.kind = spec.kind;
  sys.box = {spec.box, spec.box, spec.box};
  sys.chain_beads = spec.chain_beads;
  sys.temperature = 300.0;
  sys.seed = spec.seed;
  const Molecule mol = make_test_system(sys);

  NonbondedOptions nb;
  nb.kernel = spec.kernel;
  const double patch = mol.suggested_patch_size;
  nb.cutoff = std::clamp(patch - 1.0, 3.5, 6.5);
  nb.switch_dist = nb.cutoff - 1.0;
  if (spec.full_elec) {
    // Fixed splitting/grid: the axis varies placement and slab structure,
    // not PME accuracy, and a 16^3 grid covers the whole box range.
    nb.full_elec.enabled = true;
    nb.full_elec.alpha = 0.46;
    nb.full_elec.grid_x = nb.full_elec.grid_y = nb.full_elec.grid_z = 16;
    nb.full_elec.order = 4;
  }
  const Workload workload(mol, MachineModel::asci_red(), nb);

  // --- A: clean simulated run (the reference for both comparisons) -------
  const ParallelOptions clean_opts = base_parallel_options(spec);
  const RunOutcome clean = run_scenario(workload, spec, clean_opts, true);
  if (score_run("clean", clean, verdict)) return verdict;
  if (!clean.complete) {
    verdict.ok = false;
    verdict.oracle = "clean-incomplete";
    verdict.detail = "[clean] fault-free run did not finish its last cycle";
    return verdict;
  }

  // --- B: same scenario on real threads; must match A bitwise ------------
  ParallelOptions threaded_opts = base_parallel_options(spec);
  threaded_opts.backend = BackendKind::kThreaded;
  threaded_opts.threads = spec.threads;
  const RunOutcome threaded = run_scenario(workload, spec, threaded_opts, true);
  if (score_run("threaded", threaded, verdict)) return verdict;
  const std::string backend_diff = first_bitwise_diff(threaded, clean);
  if (!backend_diff.empty()) {
    verdict.ok = false;
    verdict.oracle = "backend-divergence";
    verdict.detail = "[threaded vs clean] " + backend_diff;
    return verdict;
  }

  // --- B': same scenario on forked worker processes; must match A bitwise.
  // State crosses the wire as raw bits and fixed-point force sums ignore the
  // summation order, so out-of-process execution is held to the same standard
  // as in-process threads.
  if (spec.process_workers > 0) {
    ParallelOptions process_opts = base_parallel_options(spec);
    process_opts.backend = BackendKind::kProcess;
    process_opts.process.workers = spec.process_workers;
    const RunOutcome process = run_scenario(workload, spec, process_opts, true);
    if (score_run("process", process, verdict)) return verdict;
    if (!process.complete) {
      verdict.ok = false;
      verdict.oracle = "process-incomplete";
      verdict.detail = "[process] run did not finish its last cycle";
      return verdict;
    }
    const std::string process_diff = first_bitwise_diff(process, clean);
    if (!process_diff.empty()) {
      verdict.ok = false;
      verdict.oracle = "process-divergence";
      verdict.detail = "[process vs clean] " + process_diff;
      return verdict;
    }
  }

  // --- B'': alternate PME slab placement; must match A bitwise -----------
  // Dedicated ranks (or spreading slabs back out) only move slab objects
  // between PEs; the reciprocal sums and the force accumulators are placement-
  // free, so flipping the policy must not move a single bit.
  if (spec.full_elec) {
    ParallelOptions placed_opts = base_parallel_options(spec);
    placed_opts.pme.dedicated_ranks = spec.pme_dedicated > 0 ? 0 : 1;
    const RunOutcome placed = run_scenario(workload, spec, placed_opts, true);
    if (score_run("pme-placement", placed, verdict)) return verdict;
    const std::string pme_diff = first_bitwise_diff(placed, clean);
    if (!pme_diff.empty()) {
      verdict.ok = false;
      verdict.oracle = "pme-divergence";
      verdict.detail = "[pme-placement vs clean] " + pme_diff;
      return verdict;
    }
  }

  // --- C: chaos run with recovery armed; must converge back to A ---------
  if (spec.has_faults()) {
    ParallelOptions chaos_opts = base_parallel_options(spec);
    chaos_opts.lb.kind = LbStrategyKind::kNone;  // evacuation owns remapping
    chaos_opts.reliable = true;
    chaos_opts.checkpoint_every = spec.checkpoint_every;
    chaos_opts.fault.seed = Rng::derive(spec.seed, "faults");
    chaos_opts.fault.drop_prob = spec.drop_prob;
    chaos_opts.fault.dup_prob = spec.dup_prob;
    chaos_opts.fault.delay_prob = spec.delay_prob;
    chaos_opts.fault.delay_max = spec.delay_max;
    for (const ScenarioFailure& f : spec.failures) {
      chaos_opts.fault.failures.push_back({f.pe, f.at_frac * clean.end_time});
    }
    const RunOutcome chaos = run_scenario(workload, spec, chaos_opts, false);
    if (score_run("chaos", chaos, verdict)) return verdict;
    if (!chaos.complete) {
      verdict.ok = false;
      verdict.oracle = "chaos-incomplete";
      verdict.detail = "[chaos] run did not recover to completion";
      return verdict;
    }
    if (spec.failures.empty()) {
      // Placement never changed: dedup + retry must reproduce A bit-for-bit.
      const std::string diff = first_bitwise_diff(chaos, clean);
      if (!diff.empty()) {
        verdict.ok = false;
        verdict.oracle = "chaos-divergence";
        verdict.detail = "[chaos vs clean] " + diff;
        return verdict;
      }
    } else {
      // Evacuation re-homes objects, changing summation grouping: compare to
      // the same tolerance the chaos soak uses.
      if (chaos.force_range != clean.force_range) {
        verdict.ok = false;
        verdict.oracle = "chaos-divergence";
        verdict.detail = "[chaos vs clean] ForceRangeError in one run only";
        return verdict;
      }
      const double dp = max_rel_deviation(chaos.positions, clean.positions);
      const double dv = max_rel_deviation(chaos.velocities, clean.velocities);
      if (dp > 1e-9 || dv > 1e-9) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "rel deviation pos=%.3e vel=%.3e exceeds 1e-9", dp, dv);
        verdict.ok = false;
        verdict.oracle = "chaos-divergence";
        verdict.detail = std::string("[chaos vs clean] ") + buf;
        return verdict;
      }
    }
  }

  // --- D: the spec as a replica batch through the serve layer ------------
  // Each replica (derived seed, so a genuinely different system) is run
  // solo first, then the whole set goes through the BatchScheduler with
  // mixed priorities and forced preemption. Scheduling, preemption through
  // export/import_state and shared topology artifacts must all be
  // trajectory-invisible: every job bitwise equals its solo run.
  if (spec.serve_jobs > 0) {
    ScenarioSpec base = spec;
    base.drop_prob = base.dup_prob = base.delay_prob = base.delay_max = 0.0;
    base.failures.clear();
    base.checkpoint_every = 0;
    base.process_workers = 0;
    base.serve_jobs = 0;
    base.serve_workers = 1;
    base.serve_preempt_every = 0;
    base.inject_defect = false;

    BatchSpec bs;
    JobSpec root;
    root.name = "replica";
    root.scenario = base;
    root.replicas = spec.serve_jobs;
    bs.jobs.push_back(root);
    std::vector<JobSpec> jobs = expand_batch(bs);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].priority = static_cast<int>(k % 3);
    }

    ServeOptions sopts;
    sopts.workers = spec.serve_workers;
    sopts.preempt_every = spec.serve_preempt_every;
    sopts.seed = spec.seed;
    BatchScheduler sched(sopts);

    // Solo references first, sharing the scheduler's cache so the scheduled
    // runs exercise the artifact-hit path too.
    std::vector<JobResult> solo;
    for (const JobSpec& job : jobs) {
      solo.push_back(run_job_alone(job, &sched.cache()));
      sched.submit(job);
    }
    const ServeReport served = sched.run();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const JobResult& got = served.results[k];
      const std::string tag = "[serve " + jobs[k].name + "] ";
      if (!got.complete && got.error.empty()) {
        verdict.ok = false;
        verdict.oracle = "serve-incomplete";
        verdict.detail = tag + "job did not run to completion";
        return verdict;
      }
      RunOutcome a, b;
      a.positions = got.positions;
      a.velocities = got.velocities;
      a.force_range = !got.error.empty();
      b.positions = solo[k].positions;
      b.velocities = solo[k].velocities;
      b.force_range = !solo[k].error.empty();
      const std::string diff = first_bitwise_diff(a, b);
      if (!diff.empty()) {
        verdict.ok = false;
        verdict.oracle = "serve-divergence";
        verdict.detail = tag + diff;
        return verdict;
      }
    }
  }
  return verdict;
}

}  // namespace scalemd
