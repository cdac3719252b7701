#include "serve/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace scalemd {

double WallTickSource::now() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

const char* job_event_kind_name(JobEventKind kind) {
  switch (kind) {
    case JobEventKind::kSubmitted: return "submitted";
    case JobEventKind::kStarted:   return "started";
    case JobEventKind::kSlice:     return "slice";
    case JobEventKind::kPreempted: return "preempted";
    case JobEventKind::kResumed:   return "resumed";
    case JobEventKind::kCompleted: return "completed";
  }
  return "unknown";
}

namespace {

ParallelOptions job_options(const ScenarioSpec& s) {
  ParallelOptions o;
  o.num_pes = s.num_pes;
  o.numeric = true;
  o.dt_fs = s.dt_fs;
  o.lb.kind = s.lb;
  return o;
}

}  // namespace

struct BatchScheduler::Pending {
  JobSpec spec;
  JobResult result;

  // Topology artifacts (acquired lazily on first start). `own_cache` stands
  // in for the shared cache when options disable sharing, so the build path
  // is one piece of code either way.
  std::shared_ptr<const TopologyCache::Entry> entry;
  std::shared_ptr<const std::vector<int>> placement;
  std::unique_ptr<TopologyCache> own_cache;

  std::unique_ptr<ParallelSim> sim;      ///< non-null = resident this round
  std::vector<std::uint8_t> saved;       ///< checkpoint blob while evicted
  bool started = false;
  bool done = false;
  /// True once a cycle has run in the *current* sim instance — LB needs a
  /// populated load database, so it is re-armed from scratch after every
  /// restore. Placement never changes trajectories, so skipping LB on the
  /// first post-restore cycle cannot break bitwise equality with a solo run.
  bool lb_armed = false;
  int cycles_done = 0;
  int consecutive = 0;   ///< slices since last (re)start, for preempt_every
  int queue_round = 0;   ///< round this job last became waiting (FIFO/aging)
};

BatchScheduler::BatchScheduler(const ServeOptions& opts)
    : opts_(opts), ticks_(opts.ticks) {
  if (ticks_ == nullptr) {
    owned_ticks_ = std::make_unique<VirtualTickSource>();
    ticks_ = owned_ticks_.get();
  }
  opts_.workers = std::max(1, opts_.workers);
  opts_.slice_cycles = std::max(1, opts_.slice_cycles);
}

BatchScheduler::~BatchScheduler() = default;

void BatchScheduler::emit(JobEventKind kind, int job, int round,
                          int cycles_done) {
  JobEvent e;
  e.kind = kind;
  e.job = job;
  e.name = jobs_[static_cast<std::size_t>(job)].spec.name;
  e.round = round;
  e.at = ticks_->now();
  e.cycles_done = cycles_done;
  events_.push_back(e);
  if (progress_) progress_(events_.back());
}

int BatchScheduler::submit(const JobSpec& job) {
  const std::string bad = validate_job(job);
  if (!bad.empty()) {
    throw std::invalid_argument("job '" + job.name + "': " + bad);
  }
  const int index = static_cast<int>(jobs_.size());
  Pending p;
  p.spec = job;
  p.result.name = job.name;
  p.result.job = index;
  p.result.priority = job.priority;
  jobs_.push_back(std::move(p));
  emit(JobEventKind::kSubmitted, index, -1, 0);
  return index;
}

void BatchScheduler::submit_batch(const BatchSpec& batch) {
  for (const JobSpec& job : expand_batch(batch)) submit(job);
}

void BatchScheduler::set_progress(std::function<void(const JobEvent&)> p) {
  progress_ = std::move(p);
}

ServeReport BatchScheduler::run() {
  const double t0 = ticks_->now();
  Rng rng(Rng::derive(opts_.seed, "serve-schedule"));
  ThreadPool pool(opts_.workers);
  ServeReport report;

  const auto preempt = [&](int j, int round) {
    Pending& p = jobs_[static_cast<std::size_t>(j)];
    p.saved = p.sim->export_state();
    p.sim.reset();
    p.consecutive = 0;
    p.queue_round = round;
    ++p.result.preemptions;
    emit(JobEventKind::kPreempted, j, round, p.cycles_done);
  };

  const auto start_or_resume = [&](int j, int round) {
    Pending& p = jobs_[static_cast<std::size_t>(j)];
    if (!p.entry) {
      TopologyCache* c = &cache_;
      if (!opts_.use_cache) {
        p.own_cache = std::make_unique<TopologyCache>();
        c = p.own_cache.get();
      }
      bool hit = false;
      p.entry = c->acquire(p.spec.scenario, &hit);
      p.placement =
          c->acquire_placement(p.spec.scenario, p.spec.scenario.num_pes);
      p.result.cache_hit = hit;
    }
    ParallelOptions o = job_options(p.spec.scenario);
    o.initial_patch_home = p.placement;
    p.sim = std::make_unique<ParallelSim>(*p.entry->workload, o);
    p.lb_armed = false;
    if (!p.saved.empty()) {
      p.sim->import_state(p.saved);
      p.saved.clear();
      emit(JobEventKind::kResumed, j, round, p.cycles_done);
    } else {
      p.started = true;
      emit(JobEventKind::kStarted, j, round, 0);
    }
  };

  int done_count = 0;
  for (const Pending& p : jobs_) {
    if (p.done) ++done_count;  // completed in an earlier run()
  }

  int round = 0;
  while (done_count < static_cast<int>(jobs_.size())) {
    // 1. Quantum expiry and chaos preemption, in submit order. Decisions
    //    depend only on the round state and the seeded Rng — never on time.
    for (int j = 0; j < static_cast<int>(jobs_.size()); ++j) {
      Pending& p = jobs_[static_cast<std::size_t>(j)];
      if (!p.sim) continue;
      const bool force =
          opts_.preempt_every > 0 && p.consecutive >= opts_.preempt_every;
      const bool coin = !force && opts_.preempt_prob > 0.0 &&
                        rng.uniform() < opts_.preempt_prob;
      if (force || coin) preempt(j, round);
    }

    // 2. Pick the `workers` best jobs: effective priority (base + aging per
    //    round waited), resident-first among equals (cheap continuation),
    //    then FIFO by enqueue round and submit order.
    std::vector<int> eligible;
    for (int j = 0; j < static_cast<int>(jobs_.size()); ++j) {
      if (!jobs_[static_cast<std::size_t>(j)].done) eligible.push_back(j);
    }
    std::sort(eligible.begin(), eligible.end(), [&](int a, int b) {
      const Pending& pa = jobs_[static_cast<std::size_t>(a)];
      const Pending& pb = jobs_[static_cast<std::size_t>(b)];
      const int ea = pa.spec.priority +
                     (pa.sim ? 0 : opts_.aging * (round - pa.queue_round));
      const int eb = pb.spec.priority +
                     (pb.sim ? 0 : opts_.aging * (round - pb.queue_round));
      if (ea != eb) return ea > eb;
      const int ra = pa.sim ? 0 : 1, rb = pb.sim ? 0 : 1;
      if (ra != rb) return ra < rb;
      if (pa.queue_round != pb.queue_round) {
        return pa.queue_round < pb.queue_round;
      }
      return a < b;
    });
    if (static_cast<int>(eligible.size()) > opts_.workers) {
      eligible.resize(static_cast<std::size_t>(opts_.workers));
    }
    const std::vector<int>& selected = eligible;

    // 3. Evict residents that lost their slot; seat the winners.
    for (int j = 0; j < static_cast<int>(jobs_.size()); ++j) {
      Pending& p = jobs_[static_cast<std::size_t>(j)];
      if (p.sim && std::find(selected.begin(), selected.end(), j) ==
                       selected.end()) {
        preempt(j, round);
      }
    }
    for (int j : selected) {
      if (!jobs_[static_cast<std::size_t>(j)].sim) start_or_resume(j, round);
    }

    // 4. One slice per resident, concurrently. Each task owns its job's
    //    state exclusively; results are applied in deterministic (selected)
    //    order below, so pool scheduling cannot leak into the outcome.
    pool.run(selected.size(), [&](std::size_t task, int /*worker*/) {
      Pending& p = jobs_[static_cast<std::size_t>(selected[task])];
      const ScenarioSpec& s = p.spec.scenario;
      for (int k = 0; k < opts_.slice_cycles && p.cycles_done < s.cycles;
           ++k) {
        if (p.lb_armed && s.lb != LbStrategyKind::kNone) p.sim->load_balance();
        try {
          p.sim->run_cycle(s.steps);
        } catch (const ForceRangeError& e) {
          p.result.error = e.what();  // deterministic: the job ends here
          break;
        }
        p.lb_armed = true;
        ++p.cycles_done;
      }
      ++p.consecutive;
    });

    for (int j : selected) {
      Pending& p = jobs_[static_cast<std::size_t>(j)];
      emit(JobEventKind::kSlice, j, round, p.cycles_done);
      if (p.cycles_done >= p.spec.scenario.cycles || !p.result.error.empty()) {
        p.result.complete = p.result.error.empty() && p.sim->last_cycle_complete();
        p.result.cycles = p.cycles_done;
        p.result.steps = p.cycles_done * p.spec.scenario.steps;
        p.result.positions = p.sim->gather_positions();
        p.result.velocities = p.sim->gather_velocities();
        p.result.completion_round = round;
        p.result.completion_seq =
            static_cast<int>(report.completion_order.size());
        report.completion_order.push_back(j);
        p.sim.reset();
        p.entry.reset();
        p.placement.reset();
        p.own_cache.reset();
        p.done = true;
        ++done_count;
        emit(JobEventKind::kCompleted, j, round, p.cycles_done);
      }
    }
    ++round;
  }

  report.rounds = round;
  report.cache_hits = cache_.hits();
  report.cache_misses = cache_.misses();
  for (Pending& p : jobs_) {
    report.total_steps += p.result.steps;
    report.results.push_back(p.result);
  }
  report.wall_seconds = ticks_->now() - t0;
  return report;
}

JobResult run_job_alone(const JobSpec& job, TopologyCache* cache) {
  TopologyCache local;
  TopologyCache& c = cache ? *cache : local;
  bool hit = false;
  const std::shared_ptr<const TopologyCache::Entry> entry =
      c.acquire(job.scenario, &hit);
  const std::shared_ptr<const std::vector<int>> placement =
      c.acquire_placement(job.scenario, job.scenario.num_pes);

  ParallelOptions o = job_options(job.scenario);
  o.initial_patch_home = placement;
  ParallelSim sim(*entry->workload, o);
  JobResult r;
  for (; r.cycles < job.scenario.cycles; ++r.cycles) {
    if (r.cycles > 0 && job.scenario.lb != LbStrategyKind::kNone) {
      sim.load_balance();
    }
    try {
      sim.run_cycle(job.scenario.steps);
    } catch (const ForceRangeError& e) {
      r.error = e.what();
      break;
    }
  }

  r.name = job.name;
  r.priority = job.priority;
  r.complete = r.error.empty() && sim.last_cycle_complete();
  r.steps = r.cycles * job.scenario.steps;
  r.cache_hit = hit;
  r.positions = sim.gather_positions();
  r.velocities = sim.gather_velocities();
  return r;
}

}  // namespace scalemd
