// bench_compare: the noise-aware regression gate over two scalemd-bench
// artifacts, or over two files of perfbench result lines (one run per line,
// one workload per file; see load_perfbench_runs).
//
//   bench_compare baseline.json candidate.json [--rel-min F] [--mad-k F]
//                 [--bounds BENCHMARK.json] [--allow-missing]
//   bench_compare parent.jsonl change.jsonl --bounds BENCHMARK.json
//
// A benchmark regresses only when candidate_median - baseline_median exceeds
// max(rel_min * baseline_median, mad_k * baseline_MAD): the relative floor
// (default 5%) absorbs calibration drift, the MAD term (default 3x) scales
// the gate with the baseline's own measured noise. Deterministic records
// have MAD 0, so any delta beyond the relative floor is flagged. `--bounds`
// gives every metric the benchmark file names its own relative floor: its
// `end_to_end[].bound` (peak_rss_mb 0.10, the timings 0.25); the others
// keep rel_min.
//
// Exit codes: 0 = no confirmed regressions; 1 = regressions (each offender
// named on stderr); 2 = usage or unreadable/invalid input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "perf/compare.hpp"
#include "perf/report.hpp"

namespace {

/// A scalemd-bench artifact, or else a file of perfbench result lines. When
/// the file is neither, both reasons are reported.
scalemd::perf::BenchReport load_input(const std::string& path) {
  using scalemd::perf::BenchSchemaError;
  try {
    return scalemd::perf::load_report(path);
  } catch (const BenchSchemaError& as_report) {
    try {
      return scalemd::perf::load_perfbench_runs(path);
    } catch (const BenchSchemaError& as_runs) {
      throw BenchSchemaError(std::string(as_report.what()) +
                             "; read as perfbench runs: " + as_runs.what());
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s baseline.json candidate.json [--rel-min F] "
               "[--mad-k F] [--bounds BENCHMARK.json] [--allow-missing]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd::perf;

  std::vector<std::string> paths;
  std::string bounds_path;
  CompareOptions opts;
  for (int i = 1; i < argc; ++i) {
    const auto next_val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--rel-min") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      opts.rel_min = std::atof(v);
    } else if (std::strcmp(argv[i], "--mad-k") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      opts.mad_k = std::atof(v);
    } else if (std::strcmp(argv[i], "--bounds") == 0) {
      if ((v = next_val()) == nullptr) return usage(argv[0]);
      bounds_path = v;
    } else if (std::strcmp(argv[i], "--allow-missing") == 0) {
      opts.allow_missing = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return usage(argv[0]);

  try {
    if (!bounds_path.empty()) opts.rel_min_of = load_bounds(bounds_path);
    const BenchReport baseline = load_input(paths[0]);
    const BenchReport candidate = load_input(paths[1]);
    const CompareResult result = compare_reports(baseline, candidate, opts);
    std::printf("%s", render_comparison(result).c_str());
    if (result.failed) {
      for (const std::string& name : result.offenders()) {
        std::fprintf(stderr, "REGRESSION: %s\n", name.c_str());
      }
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  return 0;
}
