#pragma once

// The versioned BENCH_<suite>.json artifact: schema magic + version,
// environment provenance, and one BenchRecord per benchmark. Schema
// evolution is additive-only — tests/perf/bench_schema_v1.json pins the
// v1 field set, and tests/test_perf.cpp enforces that emitted reports stay
// a superset of it.

#include <stdexcept>
#include <string>
#include <vector>

#include "perf/bench_runner.hpp"
#include "perf/env.hpp"

namespace scalemd::perf {

inline constexpr const char* kBenchSchemaName = "scalemd-bench";
inline constexpr int kBenchSchemaVersion = 1;

/// Thrown by from_json/load_report on a wrong magic, an unsupported schema
/// version, or structurally invalid content.
class BenchSchemaError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct BenchReport {
  std::string suite;
  BenchEnvironment environment;
  std::vector<BenchRecord> benchmarks;

  /// Appends `other`'s records; the receiving report's suite/environment
  /// win (suites merged into one artifact share one process environment).
  void merge(BenchReport other);

  const BenchRecord* find(const std::string& name) const;

  JsonValue to_json() const;
  static BenchReport from_json(const JsonValue& v);
};

/// A report for `suite` with the current environment captured.
BenchReport make_report(const std::string& suite);

void save_report(const BenchReport& report, const std::string& path);
BenchReport load_report(const std::string& path);

/// Loads a file of perfbench result lines, one run per line, all runs of one
/// workload (`perfbench/run.py` ends its output with one such line). Lines
/// that do not start with '{' are skipped, so whole run outputs load too.
/// Each end-to-end metric (step_ms, table_s, setup_s, peak_rss_mb) becomes a
/// record whose samples are the runs' values, and the runs' failed-operation
/// counts become the deterministic record `failed_ops`. Throws
/// BenchSchemaError naming the line when a result line does not parse or
/// lacks a field, and when the file holds no result line.
BenchReport load_perfbench_runs(const std::string& path);

}  // namespace scalemd::perf
