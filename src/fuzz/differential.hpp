#pragma once

#include <string>

#include "fuzz/scenario.hpp"

namespace scalemd {

/// Outcome of running one scenario through the differential harness. On
/// failure, `oracle` is a stable identity string — the shrinker only accepts
/// a smaller spec when the SAME oracle re-fires, and a repro file records it
/// as the expected outcome:
///
///   "invariant:<term>"      physics/runtime invariant (InvariantChecker)
///   "des-invariant:<term>"  DES machine invariant (DesInvariantSink)
///   "clean-incomplete"      fault-free run failed to finish its last cycle
///   "backend-divergence"    simulated vs threaded state not bit-identical
///   "process-incomplete"    forked-process run failed to finish its last cycle
///   "process-divergence"    simulated vs forked-process state not bit-identical
///   "chaos-incomplete"      faulted run did not recover to completion
///   "chaos-divergence"      recovered state does not match the clean run
///   "serve-incomplete"      a batch-scheduled job did not run to completion
///   "serve-divergence"      a batch-scheduled job's state not bit-identical
///                           to the same job run alone
struct FuzzVerdict {
  bool ok = true;
  std::string oracle;  ///< empty when ok
  std::string detail;  ///< first offending location / violation one-liners
};

/// Runs `spec` three ways and scores every oracle:
///  A. clean run on the simulated (DES) backend, with the spec's LB strategy
///     applied between cycles, physics invariants and DES invariants armed;
///  B. the same scenario on the threaded backend — state must match A
///     bitwise (fixed-point force sums make trajectories backend-independent);
///  B'. (only when spec.process_workers > 0) the same scenario on the
///     forked-process backend — again bitwise against A;
///  C. (only when the spec schedules faults) a chaos run on the DES backend
///     with the reliable layer and checkpointing armed; it must complete and
///     recover to A's state — bitwise without PE failures, to 1e-9 relative
///     when evacuation changed the placement;
///  D. (only when spec.serve_jobs > 0) the spec expanded into serve_jobs
///     fault-free replica jobs with derived seeds and mixed priorities,
///     scheduled by the serve-layer BatchScheduler on serve_workers workers
///     with forced preemption every serve_preempt_every slices — every job
///     must complete and match its run_job_alone reference bitwise.
/// Deterministic: same spec, same verdict, every time.
FuzzVerdict evaluate_scenario(const ScenarioSpec& spec);

}  // namespace scalemd
