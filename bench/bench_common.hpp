#pragma once

// Shared helpers for the table/figure bench binaries: each binary rebuilds
// one table or figure of the paper and prints the reproduced values next to
// the published ones. Absolute times come from a calibrated machine model
// (see EXPERIMENTS.md); the claim under test is the *shape* of each result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "perf/bench_runner.hpp"
#include "perf/report.hpp"
#include "perf/suites.hpp"
#include "util/table.hpp"

namespace scalemd::bench {

/// Flags every bench binary shares. `--json [path]` / `--out <path>` switch
/// on machine-readable output in the scalemd-bench report schema (stdout
/// unless a path is given); `--reps`/`--warmup` configure the BenchRunner
/// for the wall-clock binaries (ignored by deterministic model sweeps).
/// Unrecognized arguments land in `passthrough` (argv[0] first) for the
/// binary's own flags.
struct CommonArgs {
  perf::BenchOptions bench;  ///< reps / warmup
  bool json = false;
  std::string out;  ///< empty with json=true means stdout
  std::vector<char*> passthrough;
  bool error = false;  ///< a flag was missing its value
};

inline CommonArgs parse_common_args(int argc, char** argv) {
  CommonArgs a;
  a.passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const auto next_val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--reps") == 0) {
      const char* v = next_val();
      if (v == nullptr) { a.error = true; break; }
      a.bench.reps = std::atoi(v);
    } else if (std::strcmp(argv[i], "--warmup") == 0) {
      const char* v = next_val();
      if (v == nullptr) { a.error = true; break; }
      a.bench.warmup = std::atoi(v);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = next_val();
      if (v == nullptr) { a.error = true; break; }
      a.out = v;
      a.json = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      a.json = true;
      // Optional path operand: bare --json prints the report to stdout.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        a.out = argv[++i];
      }
    } else {
      a.passthrough.push_back(argv[i]);
    }
  }
  if (a.error) {
    std::fprintf(stderr,
                 "usage: [--reps N] [--warmup N] [--json [path]] [--out path]\n");
  }
  return a;
}

/// Writes the report if --json/--out was given. Returns a main()-ready exit
/// code (I/O failure only).
inline int emit_report(const CommonArgs& a, const perf::BenchReport& report) {
  if (!a.json) return 0;
  if (a.out.empty()) {
    std::printf("%s\n", report.to_json().dump().c_str());
    return 0;
  }
  try {
    perf::save_report(report, a.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("wrote %s\n", a.out.c_str());
  return 0;
}

/// Keeps a benchmarked result alive so the optimizer cannot drop the call.
inline volatile double keep_sink;
inline void keep(double v) { keep_sink = v; }

/// Times `fn` through `runner` ("seconds_per_call"), each sample averaging
/// enough back-to-back calls to span ~2 ms, so sub-microsecond bodies rise
/// above clock jitter.
inline perf::BenchRecord& time_calibrated(perf::BenchRunner& runner,
                                          const std::string& name,
                                          const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double est =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const int batch =
      static_cast<int>(std::clamp(std::ceil(2e-3 / std::max(est, 1e-9)), 1.0, 1e6));
  return runner.time_batch(name, "seconds_per_call", batch, fn).param("batch", batch);
}

/// Prints one line per record: name, median and unit.
inline void print_records(const std::vector<perf::BenchRecord>& records) {
  for (const perf::BenchRecord& r : records) {
    std::printf("%-52s %12.4g %s\n", r.name.c_str(), r.median, r.unit.c_str());
  }
}

/// Published (processors -> s/step) reference series for one paper table.
using PaperSeries = std::map<int, double>;

inline const PaperSeries kPaperTable2{{1, 57.1},     {4, 14.7},    {8, 7.31},
                                      {32, 1.9},     {64, 0.964},  {128, 0.493},
                                      {256, 0.259},  {512, 0.152}, {768, 0.102},
                                      {1024, 0.0822},{1536, 0.0645},{2048, 0.0573}};

inline const PaperSeries kPaperTable3{{2, 74.2},     {4, 37.8},    {8, 19.3},
                                      {32, 4.91},    {64, 2.49},   {128, 1.26},
                                      {256, 0.653},  {512, 0.352}, {768, 0.246},
                                      {1024, 0.192}, {1536, 0.141},{2048, 0.119}};

inline const PaperSeries kPaperTable4{{1, 1.47},   {2, 0.759},  {4, 0.384},
                                      {8, 0.196},  {32, 0.071}, {64, 0.0358},
                                      {128, 0.0299},{256, 0.0300}};

inline const PaperSeries kPaperTable5{{4, 10.7},  {8, 5.28},   {16, 2.64},
                                      {32, 1.35}, {64, 0.688}, {128, 0.356},
                                      {256, 0.185}};

inline const PaperSeries kPaperTable6{{1, 24.4}, {2, 12.5},  {4, 6.30}, {8, 3.18},
                                      {16, 1.60},{32, 0.860},{64, 0.411},
                                      {80, 0.349}};

/// Renders a scaling table with a side-by-side paper column.
inline std::string render_with_paper(const std::vector<ScalingRow>& rows,
                                     const PaperSeries& paper, bool gflops) {
  std::vector<std::string> header{"Processors", "Time (s/step)", "Speedup"};
  if (gflops) header.push_back("GFLOPS");
  header.push_back("paper s/step");
  header.push_back("paper speedup");
  Table t(std::move(header));
  const double paper_base =
      paper.empty() ? 1.0 : paper.begin()->second * paper.begin()->first;
  for (const ScalingRow& r : rows) {
    std::vector<std::string> row{std::to_string(r.pes),
                                 fmt_sig(r.seconds_per_step, 3),
                                 fmt_sig(r.speedup, r.speedup < 10 ? 2 : 3)};
    if (gflops) row.push_back(fmt_sig(r.gflops, 3));
    const auto it = paper.find(r.pes);
    if (it != paper.end()) {
      row.push_back(fmt_sig(it->second, 3));
      row.push_back(fmt_sig(paper_base / it->second, 3));
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

/// Clips a processor ladder by SCALEMD_BENCH_SCALE < 1 (smoke runs).
inline std::vector<int> maybe_clip(std::vector<int> pes) {
  return perf::clip_ladder(std::move(pes), bench_scale_from_env());
}

}  // namespace scalemd::bench
