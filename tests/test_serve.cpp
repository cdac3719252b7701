// The serve-layer property suite (ctest label: serve).
//
// Contract under test (src/serve/): the BatchScheduler is (1) deterministic —
// fixed seed + virtual ticks reproduce the entire run, events and all — and
// (2) trajectory-invisible — every job's final state is bitwise identical to
// the same JobSpec run alone, regardless of worker count, preemption through
// the checkpoint machinery, or the shared derived-topology cache. Plus the
// scheduling-policy properties: FIFO within a priority class, priority
// ordering, and no starvation under aging.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "util/random.hpp"

namespace scalemd {
namespace {

JobSpec make_job(const std::string& name, std::uint64_t seed, int priority,
                 int cycles = 2, int steps = 2) {
  JobSpec job;
  job.name = name;
  job.priority = priority;
  job.scenario.seed = seed;
  job.scenario.box = 10.0;
  job.scenario.num_pes = 2;
  job.scenario.cycles = cycles;
  job.scenario.steps = steps;
  return job;
}

void expect_state_bitwise(const JobResult& got, const JobResult& ref,
                          const std::string& what) {
  ASSERT_EQ(got.positions.size(), ref.positions.size()) << what;
  ASSERT_EQ(got.velocities.size(), ref.velocities.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.positions.data(), ref.positions.data(),
                           got.positions.size() * sizeof(Vec3)))
      << what << ": positions differ";
  EXPECT_EQ(0, std::memcmp(got.velocities.data(), ref.velocities.data(),
                           got.velocities.size() * sizeof(Vec3)))
      << what << ": velocities differ";
}

// ---------------------------------------------------------------------------
// Batch schema: round-trip, located errors with job context, expansion.
// ---------------------------------------------------------------------------

BatchSpec sample_batch() {
  BatchSpec batch;
  JobSpec a = make_job("alpha", 42, 2, 3, 2);
  a.scenario.lb = LbStrategyKind::kGreedyRefine;
  a.scenario.kernel = NonbondedKernel::kTiled;
  a.scenario.dt_fs = 0.5;
  batch.jobs.push_back(a);
  JobSpec b = make_job("beta", 7, 0);
  b.replicas = 3;
  b.scenario.kind = TestSystemKind::kSolvatedChain;
  b.scenario.chain_beads = 10;
  batch.jobs.push_back(b);
  return batch;
}

TEST(ServeBatchTest, SerializeParseRoundTripsExactly) {
  const BatchSpec batch = sample_batch();
  const std::string text = serialize_batch(batch);
  BatchSpec parsed;
  BatchParseError err;
  ASSERT_TRUE(parse_batch(text, "rt", parsed, err)) << err.render();
  EXPECT_EQ(serialize_batch(parsed), text);
  ASSERT_EQ(parsed.jobs.size(), 2u);
  EXPECT_EQ(parsed.jobs[0].name, "alpha");
  EXPECT_EQ(parsed.jobs[0].priority, 2);
  EXPECT_EQ(parsed.jobs[1].replicas, 3);
  EXPECT_EQ(parsed.jobs[1].scenario.kind, TestSystemKind::kSolvatedChain);
}

TEST(ServeBatchTest, ErrorsCarryJobIndexNameAndLocation) {
  const std::string text =
      "job first\n"
      "cycles 2\n"
      "end\n"
      "\n"
      "job second\n"
      "cycles 2\n"
      "dt bogus\n"
      "end\n";
  BatchSpec batch;
  BatchParseError err;
  ASSERT_FALSE(parse_batch(text, "batch.txt", batch, err));
  EXPECT_EQ(err.file, "batch.txt");
  EXPECT_EQ(err.line, 7);
  EXPECT_EQ(err.job_index, 1);
  EXPECT_EQ(err.job_name, "second");
  EXPECT_EQ(err.render().rfind("batch.txt:7: job 1 'second': ", 0), 0u)
      << err.render();
}

// A job that names no kernel (examples/serve_sweep.txt names none) runs the
// library's default kernel, like every other entry point.
TEST(ServeBatchTest, JobsWithoutAKernelLineGetTheLibraryDefault) {
  BatchSpec batch;
  BatchParseError err;
  ASSERT_TRUE(parse_batch("job plain\ncycles 2\nend\njob ref\nkernel scalar\nend\n",
                          "k.txt", batch, err))
      << err.render();
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_EQ(batch.jobs[0].scenario.kernel, NonbondedOptions{}.kernel);
  EXPECT_EQ(batch.jobs[1].scenario.kernel, NonbondedKernel::kScalar);
}

TEST(ServeBatchTest, ValidationErrorsAtEndStillNameTheJob) {
  // pes out of range is only detectable when the block closes.
  const std::string text =
      "job solo\n"
      "pes 99\n"
      "end\n";
  BatchSpec batch;
  BatchParseError err;
  ASSERT_FALSE(parse_batch(text, "v.txt", batch, err));
  EXPECT_EQ(err.job_index, 0);
  EXPECT_EQ(err.job_name, "solo");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.reason.find("pes"), std::string::npos);
}

TEST(ServeBatchTest, StructuralErrorsAreLocated) {
  BatchSpec batch;
  BatchParseError err;
  ASSERT_FALSE(parse_batch("cycles 2\n", "s.txt", batch, err));
  EXPECT_EQ(err.job_index, -1);
  ASSERT_FALSE(parse_batch("job a\njob b\nend\n", "s.txt", batch, err));
  EXPECT_NE(err.reason.find("nested"), std::string::npos);
  ASSERT_FALSE(parse_batch("job a\ncycles 2\n", "s.txt", batch, err));
  EXPECT_NE(err.reason.find("unterminated"), std::string::npos);
  EXPECT_EQ(err.job_name, "a");
  ASSERT_FALSE(parse_batch("", "s.txt", batch, err));
  EXPECT_GE(err.line, 1);
  // Serve/fault axes are the batch's business, not a job's.
  ASSERT_FALSE(parse_batch("job a\nserve-jobs 4\nend\n", "s.txt", batch, err));
  EXPECT_NE(err.reason.find("serve"), std::string::npos);
  ASSERT_FALSE(
      parse_batch("job a\ndrop 0.1\ncheckpoint 1\nend\n", "s.txt", batch, err));
  EXPECT_NE(err.reason.find("fault-free"), std::string::npos);
}

TEST(ServeBatchTest, ExpandDerivesReplicaSeedsAndNames) {
  BatchSpec batch;
  JobSpec base = make_job("equil", 99, 3);
  base.replicas = 3;
  batch.jobs.push_back(base);
  batch.jobs.push_back(make_job("single", 5, 1));

  const std::vector<JobSpec> jobs = expand_batch(batch);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].name, "equil#0");
  EXPECT_EQ(jobs[0].scenario.seed, 99u);  // replica 0 keeps the base seed
  EXPECT_EQ(jobs[1].name, "equil#1");
  EXPECT_EQ(jobs[1].scenario.seed, Rng::derive(99, std::uint64_t{1}));
  EXPECT_EQ(jobs[2].scenario.seed, Rng::derive(99, std::uint64_t{2}));
  EXPECT_NE(jobs[1].scenario.seed, jobs[2].scenario.seed);
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(j.replicas, 1);
    EXPECT_TRUE(validate_job(j).empty());
  }
  EXPECT_EQ(jobs[0].priority, 3);
  EXPECT_EQ(jobs[3].name, "single");  // un-replicated jobs keep their name
}

TEST(ServeBatchTest, SubmitRejectsUnservableJobs) {
  BatchScheduler sched(ServeOptions{});
  JobSpec bad = make_job("bad", 1, 0);
  bad.scenario.drop_prob = 0.1;
  EXPECT_THROW(sched.submit(bad), std::invalid_argument);
  JobSpec nameless = make_job("", 1, 0);
  EXPECT_THROW(sched.submit(nameless), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scheduling-policy properties. Scheduling runs on tiny systems: the
// policies are system-independent, so the fastest valid scenario will do.
// ---------------------------------------------------------------------------

TEST(ServeSchedulerTest, FifoWithinAPriorityClass) {
  ServeOptions opts;
  opts.workers = 1;
  BatchScheduler sched(opts);
  for (int j = 0; j < 4; ++j) {
    sched.submit(make_job("job" + std::to_string(j), 40 + j, /*priority=*/1));
  }
  const ServeReport report = sched.run();
  ASSERT_EQ(report.completion_order.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(report.completion_order[static_cast<std::size_t>(j)], j)
        << "equal-priority jobs must complete in submit order";
  }
}

TEST(ServeSchedulerTest, HigherPriorityRunsFirst) {
  ServeOptions opts;
  opts.workers = 1;
  opts.aging = 0;  // strict priority
  BatchScheduler sched(opts);
  sched.submit(make_job("low", 1, 0));
  sched.submit(make_job("mid", 2, 5));
  sched.submit(make_job("high", 3, 9));
  const ServeReport report = sched.run();
  ASSERT_EQ(report.completion_order.size(), 3u);
  EXPECT_EQ(report.completion_order[0], 2);
  EXPECT_EQ(report.completion_order[1], 1);
  EXPECT_EQ(report.completion_order[2], 0);
}

TEST(ServeSchedulerTest, AgingPreventsStarvationUnderPriorityMix) {
  // One worker, three long high-priority jobs, one short low-priority job.
  // With aging, the low job's effective priority overtakes the fixed gap and
  // it completes long before the high-priority backlog drains; with strict
  // priority it necessarily finishes last.
  const auto run_mix = [](int aging) {
    ServeOptions opts;
    opts.workers = 1;
    opts.preempt_every = 1;  // preemptible quanta, else residents never yield
    opts.aging = aging;
    BatchScheduler sched(opts);
    for (int j = 0; j < 3; ++j) {
      sched.submit(
          make_job("high" + std::to_string(j), 10 + j, /*priority=*/6,
                   /*cycles=*/4, /*steps=*/1));
    }
    sched.submit(make_job("low", 77, /*priority=*/0, /*cycles=*/1,
                          /*steps=*/1));
    return sched.run();
  };

  const ServeReport aged = run_mix(/*aging=*/2);
  const JobResult& low_aged = aged.results[3];
  EXPECT_TRUE(low_aged.complete);
  EXPECT_LT(low_aged.completion_seq, 3)
      << "with aging the starved job must overtake part of the backlog";

  const ServeReport strict = run_mix(/*aging=*/0);
  EXPECT_EQ(strict.results[3].completion_seq, 3)
      << "strict priority runs the low job last";
}

TEST(ServeSchedulerTest, FixedSeedReproducesTheEntireRun) {
  const auto run_once = [] {
    ServeOptions opts;
    opts.workers = 2;
    opts.preempt_every = 2;
    opts.preempt_prob = 0.4;  // chaos preemption, seeded
    opts.seed = 1234;
    BatchScheduler sched(opts);
    for (int j = 0; j < 5; ++j) {
      sched.submit(make_job("job" + std::to_string(j), 50 + j, j % 3));
    }
    const ServeReport report = sched.run();
    return std::make_pair(report, sched.events());
  };

  const auto [r1, e1] = run_once();
  const auto [r2, e2] = run_once();

  EXPECT_EQ(r1.completion_order, r2.completion_order);
  EXPECT_EQ(r1.rounds, r2.rounds);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].kind, e2[i].kind) << "event " << i;
    EXPECT_EQ(e1[i].job, e2[i].job) << "event " << i;
    EXPECT_EQ(e1[i].round, e2[i].round) << "event " << i;
    EXPECT_EQ(e1[i].at, e2[i].at) << "event " << i;
    EXPECT_EQ(e1[i].cycles_done, e2[i].cycles_done) << "event " << i;
  }
  for (std::size_t j = 0; j < r1.results.size(); ++j) {
    expect_state_bitwise(r1.results[j], r2.results[j],
                         "rerun of " + r1.results[j].name);
  }
}

// ---------------------------------------------------------------------------
// Trajectory invisibility: preemption, worker count and the artifact cache
// must not change a single bit of any job's final state.
// ---------------------------------------------------------------------------

TEST(ServeSchedulerTest, PreemptedJobResumesBitwiseEqual) {
  // A job with LB armed (the restore path re-arms LB from scratch) and one
  // without, forced through a checkpoint/evict/resume on every slice.
  JobSpec with_lb = make_job("lb", 42, 0, /*cycles=*/3);
  with_lb.scenario.lb = LbStrategyKind::kGreedyRefine;
  with_lb.scenario.num_pes = 4;
  const JobSpec plain = make_job("plain", 43, 0, /*cycles=*/3);

  ServeOptions opts;
  opts.workers = 1;  // forces interleaving: preempted jobs requeue
  opts.preempt_every = 1;
  BatchScheduler sched(opts);
  sched.submit(with_lb);
  sched.submit(plain);
  const ServeReport report = sched.run();

  int preemptions = 0;
  for (const JobResult& r : report.results) {
    EXPECT_TRUE(r.complete) << r.name;
    preemptions += r.preemptions;
  }
  EXPECT_GT(preemptions, 0) << "test must actually exercise preemption";

  expect_state_bitwise(report.results[0], run_job_alone(with_lb),
                       "preempted lb job vs solo");
  expect_state_bitwise(report.results[1], run_job_alone(plain),
                       "preempted plain job vs solo");
}

// Case 87 of the seed-1 fuzz campaign fans out into replicas; the second
// starts with forces near 1e21 kcal/mol/A, past what the fixed-point force
// accumulators hold. That job alone must stop, with the ForceRangeError
// message and the state it stopped in exactly as when it runs solo.
TEST(ServeSchedulerTest, ForceRangeErrorEndsOnlyThatJob) {
  JobSpec root;
  root.name = "clash";
  root.scenario = generate_scenario(1, 87);
  root.scenario.serve_jobs = 0;
  root.scenario.serve_workers = 1;
  root.scenario.serve_preempt_every = 0;
  root.replicas = 2;
  ASSERT_EQ(validate_job(root), "");
  BatchSpec batch;
  batch.jobs.push_back(root);
  const std::vector<JobSpec> jobs = expand_batch(batch);
  ASSERT_EQ(jobs.size(), 2u);

  ServeOptions opts;
  opts.workers = 1;
  opts.preempt_every = 1;
  BatchScheduler sched(opts);
  for (const JobSpec& job : jobs) sched.submit(job);
  const ServeReport report = sched.run();
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].complete);
  EXPECT_EQ(report.results[0].error, "");
  EXPECT_FALSE(report.results[1].complete);
  EXPECT_NE(report.results[1].error.find("fixed-point range"), std::string::npos)
      << report.results[1].error;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const JobResult solo = run_job_alone(jobs[k]);
    EXPECT_EQ(report.results[k].error, solo.error) << jobs[k].name;
    EXPECT_EQ(report.results[k].cycles, solo.cycles) << jobs[k].name;
    expect_state_bitwise(report.results[k], solo, jobs[k].name + " vs solo");
  }
}

TEST(ServeSchedulerTest, CacheHitIsBitwiseIdenticalToMiss) {
  const JobSpec job = make_job("cached", 42, 0, 2, 3);

  TopologyCache shared;
  const JobResult miss = run_job_alone(job, &shared);
  EXPECT_FALSE(miss.cache_hit);
  const JobResult hit = run_job_alone(job, &shared);
  EXPECT_TRUE(hit.cache_hit);
  expect_state_bitwise(hit, miss, "cache hit vs miss");
  EXPECT_GT(shared.hits(), 0u);
  EXPECT_GT(shared.misses(), 0u);

  // Scheduler with the cache disabled vs enabled: same bits.
  const auto run_sched = [&](bool use_cache) {
    ServeOptions opts;
    opts.workers = 2;
    opts.use_cache = use_cache;
    BatchScheduler sched(opts);
    sched.submit(job);
    JobSpec sibling = job;  // same topology: the cached run shares artifacts
    sibling.name = "sibling";
    sibling.scenario.dt_fs = 0.5;
    sched.submit(sibling);
    return sched.run();
  };
  const ServeReport cached = run_sched(true);
  const ServeReport uncached = run_sched(false);
  EXPECT_GT(cached.cache_hits, 0u);
  EXPECT_EQ(uncached.cache_hits, 0u);
  for (std::size_t j = 0; j < cached.results.size(); ++j) {
    expect_state_bitwise(cached.results[j], uncached.results[j],
                         "cached vs uncached " + cached.results[j].name);
  }
}

// ---------------------------------------------------------------------------
// The acceptance matrix: one 8-job sweep, run solo, through the scheduler on
// {1, 2, 4} workers, and with forced mid-job preemption — all bitwise equal.
// ---------------------------------------------------------------------------

std::vector<JobSpec> acceptance_sweep() {
  std::vector<JobSpec> jobs;
  const LbStrategyKind lbs[] = {LbStrategyKind::kNone, LbStrategyKind::kGreedy,
                                LbStrategyKind::kGreedyRefine,
                                LbStrategyKind::kNone};
  for (int j = 0; j < 8; ++j) {
    JobSpec job = make_job("sweep" + std::to_string(j),
                           /*seed=*/j < 4 ? 42 : 1000 + j, j % 3,
                           /*cycles=*/2 + j % 2, /*steps=*/2);
    job.scenario.box = 10.0 + 2.0 * (j % 2);
    job.scenario.num_pes = j % 2 == 0 ? 2 : 4;
    job.scenario.lb = lbs[j % 4];
    job.scenario.kernel =
        j % 2 == 0 ? NonbondedKernel::kScalar : NonbondedKernel::kTiled;
    if (j >= 6) {
      job.scenario.kind = TestSystemKind::kSolvatedChain;
      job.scenario.chain_beads = 10;
    }
    jobs.push_back(job);
  }
  return jobs;
}

class ServeMatrixTest : public testing::TestWithParam<int> {};

TEST_P(ServeMatrixTest, SweepMatchesSoloRunsBitwise) {
  const int workers = GetParam();
  const std::vector<JobSpec> jobs = acceptance_sweep();

  TopologyCache shared;
  std::vector<JobResult> solo;
  for (const JobSpec& job : jobs) solo.push_back(run_job_alone(job, &shared));

  ServeOptions opts;
  opts.workers = workers;
  BatchScheduler sched(opts);
  for (const JobSpec& job : jobs) sched.submit(job);
  const ServeReport report = sched.run();

  ASSERT_EQ(report.results.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_TRUE(report.results[j].complete) << jobs[j].name;
    expect_state_bitwise(report.results[j], solo[j],
                         jobs[j].name + " on " + std::to_string(workers) +
                             " workers vs solo");
  }
}

TEST_P(ServeMatrixTest, SweepWithForcedPreemptionMatchesSoloRunsBitwise) {
  const int workers = GetParam();
  const std::vector<JobSpec> jobs = acceptance_sweep();

  std::vector<JobResult> solo;
  for (const JobSpec& job : jobs) solo.push_back(run_job_alone(job));

  ServeOptions opts;
  opts.workers = workers;
  opts.preempt_every = 1;   // checkpoint/evict/resume after every slice
  opts.preempt_prob = 0.3;  // plus seeded chaos preemption
  opts.seed = 777;
  BatchScheduler sched(opts);
  for (const JobSpec& job : jobs) sched.submit(job);
  const ServeReport report = sched.run();

  int preemptions = 0;
  for (const JobResult& r : report.results) preemptions += r.preemptions;
  EXPECT_GT(preemptions, 0);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_TRUE(report.results[j].complete) << jobs[j].name;
    expect_state_bitwise(report.results[j], solo[j],
                         jobs[j].name + " preempted on " +
                             std::to_string(workers) + " workers vs solo");
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ServeMatrixTest, testing::Values(1, 2, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "workers" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace scalemd
