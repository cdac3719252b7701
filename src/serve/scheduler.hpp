#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_sim.hpp"
#include "serve/job.hpp"
#include "serve/topo_cache.hpp"
#include "util/vec3.hpp"

namespace scalemd {

/// Timestamp source for the serve layer. Scheduling decisions NEVER read it —
/// they depend only on the round counter and the scheduler's seeded Rng — so
/// swapping the wall clock for the virtual one changes event timestamps and
/// nothing else. That is what makes the scheduler testable: under the virtual
/// source a whole batch run is bit-reproducible, interleaving included.
class TickSource {
 public:
  virtual ~TickSource() = default;
  virtual double now() = 0;
};

/// Deterministic tick source: every read advances time by a fixed quantum.
class VirtualTickSource : public TickSource {
 public:
  explicit VirtualTickSource(double quantum = 1.0) : quantum_(quantum) {}
  double now() override { return quantum_ * static_cast<double>(reads_++); }

 private:
  double quantum_;
  std::uint64_t reads_ = 0;
};

/// Wall-clock tick source for the CLI and benchmarks.
class WallTickSource : public TickSource {
 public:
  double now() override;
};

struct ServeOptions {
  /// Concurrent job slots; slices of the resident jobs run on a ThreadPool
  /// of this size (serve jobs use the DES backend, so each slot is one
  /// independent single-threaded simulation).
  int workers = 2;
  /// run_cycle calls per scheduling slice — the preemption granularity.
  int slice_cycles = 1;
  /// Force-preempt a job after this many consecutive slices (0 = never).
  /// Preemption goes through the checkpoint machinery: export_state, tear
  /// the sim down, import_state into a fresh sim when rescheduled.
  int preempt_every = 0;
  /// Additionally preempt each resident job with this probability per round,
  /// drawn from the scheduler's own Rng (seeded below) in job-index order.
  double preempt_prob = 0.0;
  /// Seed for every scheduling decision the scheduler randomizes.
  std::uint64_t seed = 1;
  /// Priority boost per round spent waiting. Any value >= 1 guarantees no
  /// starvation: a waiting job's effective priority eventually exceeds any
  /// fixed priority. 0 restores strict priority (starvation possible).
  int aging = 1;
  /// Share Workload/placement artifacts across same-topology jobs.
  bool use_cache = true;
  /// Timestamp source; nullptr = scheduler-owned VirtualTickSource.
  TickSource* ticks = nullptr;
};

enum class JobEventKind {
  kSubmitted,
  kStarted,    ///< first slice granted
  kSlice,      ///< a slice of cycles completed
  kPreempted,  ///< checkpointed and evicted
  kResumed,    ///< restored from checkpoint into a fresh sim
  kCompleted,
};

const char* job_event_kind_name(JobEventKind kind);

/// One progress record; the stream of these (and the optional callback) is
/// how a caller watches a batch run.
struct JobEvent {
  JobEventKind kind = JobEventKind::kSubmitted;
  int job = -1;             ///< submit index
  std::string name;
  int round = -1;           ///< scheduling round (-1 for kSubmitted)
  double at = 0.0;          ///< TickSource timestamp
  int cycles_done = 0;      ///< job progress at emission
};

struct JobResult {
  std::string name;
  int job = -1;          ///< submit index
  int priority = 0;
  bool complete = false;
  int cycles = 0;        ///< cycles actually run
  int steps = 0;         ///< timesteps actually run
  int preemptions = 0;   ///< checkpoint/evict/resume round-trips
  bool cache_hit = false;  ///< topology artifacts came from the shared cache
  int completion_round = -1;
  int completion_seq = -1;  ///< position in the batch completion order
  /// Final per-atom state, gathered by global atom id — directly comparable
  /// (bitwise) against a solo run of the same JobSpec.
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
  /// Set when a cycle threw ForceRangeError: its message. The job stops
  /// there, incomplete, with that cycle's end state above.
  std::string error;
};

struct ServeReport {
  std::vector<JobResult> results;    ///< submit order
  std::vector<int> completion_order; ///< submit indices, completion order
  int rounds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::int64_t total_steps = 0;      ///< sum over jobs
  double wall_seconds = 0.0;         ///< TickSource span of run()
};

/// Priority + round-robin batch scheduler over the checkpoint machinery.
///
/// Each round it (1) force-preempts resident jobs that exhausted their slice
/// quantum and coin-flip preempts per preempt_prob, (2) picks the
/// `workers` best jobs by effective priority — base priority plus
/// aging x rounds-waited, ties broken resident-first then FIFO by enqueue
/// round and submit order, (3) preempts deselected residents through
/// export_state, restores newly selected jobs through import_state, and
/// (4) runs one slice of every resident job concurrently on the ThreadPool,
/// applying results in submit order afterwards so the run is deterministic.
///
/// Determinism contract: with a fixed options.seed and the (default)
/// virtual tick source, the whole run — job interleaving, preemption points,
/// completion order, every trajectory byte — is reproducible. Trajectories
/// are additionally *schedule-independent*: preempted or not, cached or not,
/// 1 worker or 8, every job ends bitwise identical to run_job_alone on the
/// same spec (the canonical-fold property extended to the serve layer).
class BatchScheduler {
 public:
  explicit BatchScheduler(const ServeOptions& opts);
  ~BatchScheduler();

  /// Enqueues one job. Throws std::invalid_argument with validate_job's
  /// reason when the job is not servable. Returns the submit index.
  int submit(const JobSpec& job);
  /// expand_batch + submit for every resulting job.
  void submit_batch(const BatchSpec& batch);

  /// Progress callback, invoked on the calling thread for every event
  /// emitted during run() (and for kSubmitted at submit time).
  void set_progress(std::function<void(const JobEvent&)> progress);

  /// Runs every submitted job to completion and reports. Jobs submitted
  /// after a run() enter the next run().
  ServeReport run();

  const std::vector<JobEvent>& events() const { return events_; }
  TopologyCache& cache() { return cache_; }

 private:
  struct Pending;  // per-job scheduling state (scheduler.cpp)

  void emit(JobEventKind kind, int job, int round, int cycles_done);

  ServeOptions opts_;
  std::unique_ptr<TickSource> owned_ticks_;
  TickSource* ticks_;
  TopologyCache cache_;
  std::vector<Pending> jobs_;
  std::vector<JobEvent> events_;
  std::function<void(const JobEvent&)> progress_;
};

/// Serial reference: runs one job start-to-finish with no scheduler in the
/// loop (fresh sim, no preemption). Uses `cache` for topology artifacts when
/// given, else builds them locally. The serve differential oracles compare
/// BatchScheduler output against this bitwise.
JobResult run_job_alone(const JobSpec& job, TopologyCache* cache = nullptr);

}  // namespace scalemd
