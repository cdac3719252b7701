#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_sim.hpp"
#include "des/fault.hpp"
#include "ff/nonbonded.hpp"
#include "gen/test_systems.hpp"

namespace scalemd {

/// One scheduled PE failure, with its firing time expressed as a *fraction*
/// of the scenario's fault-free end time (virtual seconds). The differential
/// executor measures the clean run first and converts fractions to absolute
/// times, so a spec replays identically however long the run happens to be.
struct ScenarioFailure {
  int pe = 0;
  double at_frac = 0.5;  ///< in (0, 1)
};

/// Everything one fuzz case varies: the generated system, the machine shape,
/// the runtime configuration and the fault schedule. A spec is pure data —
/// serialize/parse round-trip exactly — and evaluating it is deterministic,
/// which is what makes shrinking and repro files possible.
struct ScenarioSpec {
  std::uint64_t seed = 1;  ///< system geometry + velocity + fault seed
  TestSystemKind kind = TestSystemKind::kWaterBox;
  double box = 12.0;       ///< cubic box edge, Angstrom
  int chain_beads = 16;    ///< kSolvatedChain only

  int num_pes = 4;
  int threads = 2;         ///< threaded-backend worker count
  /// When > 0, the differential harness additionally runs the clean scenario
  /// on the forked-process backend with this many workers and requires the
  /// result to match the DES reference bitwise (oracle "process-divergence").
  /// 0 skips the leg — fork-per-case is expensive, so generation arms it on
  /// only a fraction of the campaign.
  int process_workers = 0;
  LbStrategyKind lb = LbStrategyKind::kNone;
  NonbondedKernel kernel = NonbondedOptions{}.kernel;
  double dt_fs = 1.0;
  int cycles = 2;          ///< run_cycle calls
  int steps = 2;           ///< timesteps per cycle

  // --- fault schedule (all zero / empty = fault-free scenario) ---------
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  double delay_max = 0.0;
  std::vector<ScenarioFailure> failures;
  int checkpoint_every = 0;  ///< required >= 1 whenever failures exist

  // --- serve axis (all zero = no multi-job serve leg) -------------------
  /// When > 0, the differential harness additionally expands this spec into
  /// `serve_jobs` fault-free replica jobs (derived seeds, mixed priorities)
  /// and runs them through the BatchScheduler on `serve_workers` workers
  /// with forced preemption every `serve_preempt_every` slices; every job's
  /// trajectory must match its solo run bitwise (oracle "serve-divergence").
  /// Like the process axis, generation arms it on a fraction of the
  /// campaign; 0 skips the leg.
  int serve_jobs = 0;
  int serve_workers = 1;
  int serve_preempt_every = 0;

  // --- full-electrostatics axis (off = cutoff electrostatics only) ------
  /// When set, every leg of the differential harness runs with the PME
  /// reciprocal stage armed (erfc-screened direct space + slab-decomposed
  /// reciprocal solve in the parallel runtime), and one extra clean DES run
  /// with the alternate slab placement policy must match the reference
  /// bitwise (oracle "pme-divergence"). The backend/process legs then also
  /// cross the PME transpose and force-return wire paths for free.
  bool full_elec = false;
  int pme_slabs = 4;      ///< reciprocal slab count (part of the numerics)
  int pme_dedicated = 0;  ///< dedicated PME ranks (placement policy only)

  /// Arms ParallelOptions::debug_fold_arrival_order on every run of this
  /// spec: DES forces are summed in double in task-execution order instead
  /// of in fixed point. Set only by --self-test (and recorded in its repro
  /// files as `defect arrival-order`, so they replay the defective build
  /// path byte-for-byte).
  bool inject_defect = false;

  bool has_message_faults() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
  }
  bool has_faults() const { return has_message_faults() || !failures.empty(); }
};

/// Draws a random valid spec: case `index` of the campaign keyed by
/// `master_seed`. Pure — same (seed, index) always yields the same spec.
ScenarioSpec generate_scenario(std::uint64_t master_seed, int index);

/// "" when `spec` is runnable; otherwise the first broken structural rule
/// (PE counts, fault/checkpoint coupling, ranges). Both the parser and the
/// shrinker gate on this.
std::string validate_scenario(const ScenarioSpec& spec);

/// Line-oriented text form ("key value" per line, # comments). Full
/// precision: parse(serialize(spec)) == spec bit-for-bit.
std::string serialize_scenario(const ScenarioSpec& spec);

/// Outcome of applying one text directive to a spec.
enum class DirectiveStatus {
  kApplied,     ///< consumed (blank/comment-only lines count as applied)
  kUnknownKey,  ///< not a scenario key; `reason` holds the key itself
  kBadValue,    ///< recognized key, malformed value; `reason` explains
};

/// Parses one raw line of the scenario schema ("key value...", optional
/// `#` comment) and applies it to `spec`. This is the single-directive core
/// that parse_scenario loops over; layered schemas reuse it so their error
/// reporting can add context a lone scenario parser cannot know — the serve
/// batch parser (src/serve/job.*) wraps it to tag every error with the
/// enclosing job's index and name, fixing the old assumption that a spec
/// file only ever holds one job.
DirectiveStatus apply_scenario_directive(const std::string& raw,
                                         ScenarioSpec& spec,
                                         std::string& reason);

/// Parses serialize_scenario's schema. Returns true and fills `spec` on
/// success; false with a located error (reusing the fault-plan error type:
/// file, 1-based line, reason) otherwise. `spec` is untouched on failure.
bool parse_scenario(const std::string& text, const std::string& file,
                    ScenarioSpec& spec, FaultPlanParseError& error);

const char* lb_strategy_name(LbStrategyKind kind);

}  // namespace scalemd
