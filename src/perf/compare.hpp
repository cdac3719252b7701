#pragma once

// Noise-aware regression gating between two BENCH_*.json artifacts. All
// recorded metrics are time-like (lower is better); a candidate regresses a
// benchmark only when its median exceeds the baseline median by more than
// max(rel_min * baseline_median, mad_k * baseline_MAD) — the relative floor
// absorbs calibration-level drift, the MAD term scales the gate with the
// measured noise of the baseline itself.

#include <map>
#include <string>
#include <vector>

#include "perf/report.hpp"

namespace scalemd::perf {

struct CompareOptions {
  double rel_min = 0.05;  ///< minimum relative delta to flag (5%)
  /// Per-benchmark relative floors that replace rel_min for the benchmarks
  /// they name (load_bounds reads them from a BENCHMARK.json).
  std::map<std::string, double> rel_min_of;
  double mad_k = 3.0;     ///< noise gate: baseline MADs a delta must exceed
  /// When false (default), a baseline benchmark missing from the candidate
  /// is itself a failure — silently dropped coverage must not pass a gate.
  bool allow_missing = false;
};

struct BenchDelta {
  enum class Verdict { kOk, kImproved, kRegressed, kMissing, kNew };

  std::string name;
  double base_median = 0.0;
  double cand_median = 0.0;
  double base_mad = 0.0;
  double delta = 0.0;      ///< cand_median - base_median
  double threshold = 0.0;  ///< the gate the delta was held against
  Verdict verdict = Verdict::kOk;
};

struct CompareResult {
  std::vector<BenchDelta> deltas;
  bool failed = false;  ///< any regression (or missing benchmark, per options)

  /// Names of the offending benchmarks, for error messages and CI logs.
  std::vector<std::string> offenders() const;
};

/// The end-to-end bounds of a repository benchmark file (BENCHMARK.json:
/// `end_to_end[]` entries with `name` and `bound`), by metric name. Throws
/// BenchSchemaError naming the file when it is missing or malformed.
std::map<std::string, double> load_bounds(const std::string& path);

CompareResult compare_reports(const BenchReport& baseline,
                              const BenchReport& candidate,
                              const CompareOptions& opts = {});

/// Human-readable comparison table plus a PASS/FAIL verdict line.
std::string render_comparison(const CompareResult& result);

}  // namespace scalemd::perf
