// scalemd-serve: the multi-simulation service CLI. Reads a batch spec file
// (see src/serve/job.hpp for the schema), expands replicas, schedules every
// job across the worker slots with priority + round-robin + preemption, and
// writes one scalemd-bench JSON v1 artifact with a record per job plus batch
// summary records (jobs/hour, aggregate steps/sec, cache hit rate).
//
//   scalemd-serve examples/serve_sweep.txt --workers 4 --out SERVE.json
//
// Flags:
//   --workers N     concurrent job slots (default 2)
//   --slice N       run_cycle calls per scheduling slice (default 1)
//   --preempt N     force-preempt a job after N consecutive slices (default 0)
//   --seed S        scheduler decision seed (default 1)
//   --no-cache      disable the shared derived-topology artifact cache
//   --virtual-time  deterministic tick source instead of the wall clock
//                   (timestamps and throughput figures become synthetic)
//   --out PATH      artifact path (default SERVE_<batch-stem>.json)
//   --quiet         suppress the per-event progress stream

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "perf/bench_runner.hpp"
#include "perf/report.hpp"
#include "serve/scheduler.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BATCH.txt [--workers N] [--slice N] [--preempt N]\n"
               "       [--seed S] [--no-cache] [--virtual-time] [--out PATH]\n"
               "       [--quiet]\n",
               argv0);
  return 2;
}

std::string batch_stem(const std::string& path) {
  std::string stem = path;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem.erase(0, slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);
  return stem.empty() ? "batch" : stem;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;

  std::string batch_path;
  std::string out;
  ServeOptions sopts;
  bool quiet = false;
  bool virtual_time = false;

  for (int i = 1; i < argc; ++i) {
    const auto next_val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--workers") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      sopts.workers = std::atoi(v);
    } else if (std::strcmp(argv[i], "--slice") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      sopts.slice_cycles = std::atoi(v);
    } else if (std::strcmp(argv[i], "--preempt") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      sopts.preempt_every = std::atoi(v);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      sopts.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      sopts.use_cache = false;
    } else if (std::strcmp(argv[i], "--virtual-time") == 0) {
      virtual_time = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      out = v;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return usage(argv[0]);
    } else if (batch_path.empty()) {
      batch_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (batch_path.empty()) return usage(argv[0]);
  if (sopts.workers < 1 || sopts.slice_cycles < 1 || sopts.preempt_every < 0) {
    std::fprintf(stderr, "invalid --workers/--slice/--preempt value\n");
    return 2;
  }

  std::ifstream in(batch_path);
  if (!in) {
    std::fprintf(stderr, "scalemd-serve: cannot open '%s'\n",
                 batch_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  BatchSpec batch;
  BatchParseError perr;
  if (!parse_batch(text.str(), batch_path, batch, perr)) {
    std::fprintf(stderr, "scalemd-serve: %s\n", perr.render().c_str());
    return 2;
  }

  try {
    WallTickSource wall;
    if (!virtual_time) sopts.ticks = &wall;  // default member = virtual
    BatchScheduler sched(sopts);
    if (!quiet) {
      sched.set_progress([](const JobEvent& e) {
        std::printf("[%12.3f] round %3d  %-9s %-24s cycles %d\n", e.at,
                    e.round, job_event_kind_name(e.kind), e.name.c_str(),
                    e.cycles_done);
        std::fflush(stdout);
      });
    }
    sched.submit_batch(batch);
    const ServeReport report = sched.run();

    int complete = 0;
    for (const JobResult& r : report.results) complete += r.complete ? 1 : 0;
    const double secs = report.wall_seconds > 0.0 ? report.wall_seconds : 1e-9;
    const double jobs_per_hour = 3600.0 * complete / secs;
    const double steps_per_sec = static_cast<double>(report.total_steps) / secs;
    const std::uint64_t lookups = report.cache_hits + report.cache_misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(report.cache_hits) / lookups : 0.0;

    std::printf("batch %s: %d/%zu jobs complete in %.3fs over %d rounds\n",
                batch_path.c_str(), complete, report.results.size(), secs,
                report.rounds);
    std::printf("  %.1f jobs/hour, %.0f steps/sec aggregate, "
                "cache hit rate %.0f%% (%llu/%llu)\n",
                jobs_per_hour, steps_per_sec, 100.0 * hit_rate,
                static_cast<unsigned long long>(report.cache_hits),
                static_cast<unsigned long long>(lookups));
    for (const JobResult& r : report.results) {
      if (!r.error.empty()) std::printf("  job %s stopped: %s\n", r.name.c_str(), r.error.c_str());
    }

    perf::BenchRunner runner;
    for (const JobResult& r : report.results) {
      runner.record_value("serve/job/" + r.name, "steps",
                          static_cast<double>(r.steps))
          .param("priority", r.priority)
          .param("complete", r.complete ? 1 : 0)
          .param("preemptions", r.preemptions)
          .param("cache_hit", r.cache_hit ? 1 : 0)
          .param("completion_seq", r.completion_seq);
    }
    runner.record_value("serve/summary/jobs_per_hour", "jobs/hour",
                        jobs_per_hour);
    runner.record_value("serve/summary/steps_per_sec", "steps/s",
                        steps_per_sec);
    runner.record_value("serve/summary/cache_hit_rate", "ratio", hit_rate);
    runner
        .record_value("serve/summary/batch_seconds", "seconds",
                      report.wall_seconds)
        .param("jobs", static_cast<double>(report.results.size()))
        .param("workers", sopts.workers)
        .param("rounds", report.rounds);

    perf::BenchReport artifact = perf::make_report("serve");
    artifact.benchmarks = runner.take_records();
    if (out.empty()) out = "SERVE_" + batch_stem(batch_path) + ".json";
    perf::save_report(artifact, out);
    std::printf("wrote %s (%zu records)\n", out.c_str(),
                artifact.benchmarks.size());

    return complete == static_cast<int>(report.results.size()) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scalemd-serve: %s\n", e.what());
    return 1;
  }
}
