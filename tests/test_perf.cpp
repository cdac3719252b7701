// Unit tests for the continuous-benchmarking subsystem (src/perf): the JSON
// model, the BenchRunner's robust statistics, the versioned report schema,
// and the noise-aware regression gate. Also pins the v1 schema against
// tests/perf/bench_schema_v1.json — evolution must stay additive-only.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "perf/bench_runner.hpp"
#include "perf/compare.hpp"
#include "perf/env.hpp"
#include "perf/json.hpp"
#include "perf/report.hpp"
#include "perf/suites.hpp"

#ifndef SCALEMD_TEST_DATA_DIR
#define SCALEMD_TEST_DATA_DIR "tests"
#endif

namespace scalemd::perf {
namespace {

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"a\\n\\\"b\\\"\"").as_string(), "a\n\"b\"");
}

TEST(JsonTest, NestedRoundTripPreservesOrderAndValues) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", JsonValue::array());
  JsonValue arr = JsonValue::array();
  arr.push_back(1.5);
  arr.push_back("two");
  arr.push_back(JsonValue());
  obj.set("alpha", std::move(arr));
  obj.set("flag", false);

  const JsonValue back = JsonValue::parse(obj.dump());
  ASSERT_TRUE(back.is_object());
  // Insertion order survives the round trip (diffable artifacts).
  EXPECT_EQ(back.members()[0].first, "zeta");
  EXPECT_EQ(back.members()[1].first, "alpha");
  EXPECT_DOUBLE_EQ(back.at("alpha").items()[0].as_number(), 1.5);
  EXPECT_EQ(back.at("alpha").items()[1].as_string(), "two");
  EXPECT_TRUE(back.at("alpha").items()[2].is_null());
  EXPECT_EQ(back.at("flag").as_bool(), false);
}

TEST(JsonTest, ShortestRoundTripNumbers) {
  JsonValue v(0.1);
  EXPECT_DOUBLE_EQ(JsonValue::parse(v.dump()).as_number(), 0.1);
  JsonValue tiny(5.0e-324);  // denormal min survives
  EXPECT_DOUBLE_EQ(JsonValue::parse(tiny.dump()).as_number(), 5.0e-324);
}

TEST(JsonTest, NonFiniteSerializesAsNull) {
  JsonValue v(std::nan(""));
  EXPECT_EQ(v.dump(), "null\n");
}

TEST(JsonTest, ParseErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos)
        << "message was: " << e.what();
  }
  EXPECT_THROW(JsonValue::parse("[1, 2] trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(JsonValue::parse(""), JsonError);
}

TEST(JsonTest, KindMismatchThrows) {
  const JsonValue num(1.0);
  EXPECT_THROW(num.as_string(), JsonError);
  EXPECT_THROW(num.at("k"), JsonError);
  JsonValue obj = JsonValue::object();
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), JsonError);
}

// --- BenchRecord / BenchRunner --------------------------------------------

TEST(BenchRecordTest, FinalizeComputesRobustStats) {
  BenchRecord rec;
  rec.samples = {3.0, 1.0, 2.0, 100.0, 2.5};
  rec.finalize();
  EXPECT_DOUBLE_EQ(rec.min, 1.0);
  EXPECT_DOUBLE_EQ(rec.median, 2.5);
  // |dev from 2.5| = {0.5, 1.5, 0.5, 97.5, 0} -> MAD 0.5: outlier-immune.
  EXPECT_DOUBLE_EQ(rec.mad, 0.5);
}

TEST(BenchRunnerTest, TimeCollectsRequestedReps) {
  BenchRunner runner({.reps = 4, .warmup = 2});
  int calls = 0;
  const BenchRecord& rec =
      runner.time("t", "seconds", [&calls] { ++calls; });
  EXPECT_EQ(calls, 6);  // 2 warmup + 4 timed
  EXPECT_EQ(rec.reps, 4);
  EXPECT_EQ(rec.warmup, 2);
  EXPECT_EQ(rec.samples.size(), 4u);
  EXPECT_FALSE(rec.deterministic);
  EXPECT_GE(rec.min, 0.0);
}

TEST(BenchRunnerTest, RecordValueIsDeterministicSingleSample) {
  BenchRunner runner;
  const BenchRecord& rec =
      runner.record_value("v", "virtual_seconds", 1.25).param("pes", 8);
  EXPECT_TRUE(rec.deterministic);
  EXPECT_DOUBLE_EQ(rec.median, 1.25);
  EXPECT_DOUBLE_EQ(rec.mad, 0.0);
  ASSERT_EQ(rec.params.size(), 1u);
  EXPECT_EQ(rec.params[0].first, "pes");
}

TEST(BenchRecordTest, JsonRoundTripRederivesStats) {
  BenchRecord rec;
  rec.name = "x";
  rec.metric = "seconds_per_eval";
  rec.samples = {2.0, 1.0, 3.0};
  rec.reps = 3;
  rec.finalize();
  rec.param("atoms", 42).label("kernel", "tiled");

  JsonValue j = rec.to_json();
  // A hand-edited median must not survive the round trip: stats are
  // rederived from samples on load.
  j.set("median", 999.0);
  const BenchRecord back = BenchRecord::from_json(j);
  EXPECT_EQ(back.name, "x");
  EXPECT_DOUBLE_EQ(back.median, 2.0);
  EXPECT_DOUBLE_EQ(back.min, 1.0);
  ASSERT_EQ(back.params.size(), 1u);
  EXPECT_DOUBLE_EQ(back.params[0].second, 42.0);
  ASSERT_EQ(back.labels.size(), 1u);
  EXPECT_EQ(back.labels[0].second, "tiled");
}

// --- Report schema ---------------------------------------------------------

TEST(BenchReportTest, SaveLoadRoundTrip) {
  BenchReport report = make_report("unit");
  BenchRunner runner;
  runner.record_value("a/x", "s", 1.0);
  runner.record_samples("a/y", "s", {0.2, 0.1, 0.3});
  report.benchmarks = runner.take_records();

  const std::string path = testing::TempDir() + "scalemd_report.json";
  save_report(report, path);
  const BenchReport back = load_report(path);
  EXPECT_EQ(back.suite, "unit");
  ASSERT_EQ(back.benchmarks.size(), 2u);
  EXPECT_EQ(back.benchmarks[0].name, "a/x");
  EXPECT_TRUE(back.benchmarks[0].deterministic);
  EXPECT_DOUBLE_EQ(back.benchmarks[1].median, 0.2);
  EXPECT_EQ(back.environment.compiler, report.environment.compiler);
  std::remove(path.c_str());
}

TEST(BenchReportTest, RejectsWrongMagicAndNewerVersion) {
  JsonValue j = make_report("x").to_json();
  j.set("schema", "not-scalemd");
  EXPECT_THROW(BenchReport::from_json(j), BenchSchemaError);
  JsonValue j2 = make_report("x").to_json();
  j2.set("schema_version", kBenchSchemaVersion + 1);
  EXPECT_THROW(BenchReport::from_json(j2), BenchSchemaError);
}

// perfbench result lines: one run per line, the run's other output skipped.
std::string perfbench_line(double step_ms, double failed, double peak_rss_mb = 58) {
  return "{\"correct\": true,\"attempted\": 6,\"failed\": " + std::to_string(failed) +
         ",\"metrics\": {\"step_ms\": {\"value\": " + std::to_string(step_ms) +
         ",\"unit\": \"ms\"},\"table_s\": {\"value\": " + std::to_string(step_ms / 200) +
         ",\"unit\": \"s\"},\"setup_s\": {\"value\": 2.5,\"unit\": \"s\"},"
         "\"peak_rss_mb\": {\"value\": " + std::to_string(peak_rss_mb) +
         ",\"unit\": \"MB\"}}}\n";
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

TEST(BenchReportTest, PerfbenchRunsLoadAsOneRecordPerMetric) {
  const std::string path = testing::TempDir() + "scalemd_runs.jsonl";
  write_file(path, "step_ms 230.0 ms median less steal\n" + perfbench_line(230.0, 0) +
                       "operations: 6 attempted, 0 failed; correct: yes\n" +
                       perfbench_line(190.0, 1) + "\n" + perfbench_line(210.0, 0));
  const BenchReport runs = load_perfbench_runs(path);
  std::remove(path.c_str());
  ASSERT_EQ(runs.benchmarks.size(), 5u);
  const BenchRecord* step = runs.find("step_ms");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->samples, (std::vector<double>{230.0, 190.0, 210.0}));
  EXPECT_DOUBLE_EQ(step->median, 210.0);
  EXPECT_EQ(step->unit, "ms");
  EXPECT_FALSE(step->deterministic);
  ASSERT_NE(runs.find("table_s"), nullptr);
  EXPECT_DOUBLE_EQ(runs.find("table_s")->median, 1.05);
  EXPECT_DOUBLE_EQ(runs.find("setup_s")->median, 2.5);
  EXPECT_DOUBLE_EQ(runs.find("peak_rss_mb")->median, 58.0);
  const BenchRecord* failed = runs.find("failed_ops");
  ASSERT_NE(failed, nullptr);
  EXPECT_TRUE(failed->deterministic);
  EXPECT_EQ(failed->samples, (std::vector<double>{0.0, 1.0, 0.0}));
  EXPECT_DOUBLE_EQ(failed->median, 0.0);

  // The parent's runs against themselves pass the benchmark's own bound.
  CompareOptions bound;
  bound.rel_min = 0.25;
  EXPECT_FALSE(compare_reports(runs, runs, bound).failed);
}

// The repository benchmark's own bounds gate each metric: 12% more memory
// fails peak_rss_mb's 10%, while 12% more step time stays inside its 25%.
TEST(BenchReportTest, BoundsFileGatesEachMetricAtItsOwnBound) {
  CompareOptions opts;
  opts.rel_min_of = load_bounds(std::string(SCALEMD_TEST_DATA_DIR) + "/../BENCHMARK.json");
  EXPECT_DOUBLE_EQ(opts.rel_min_of.at("peak_rss_mb"), 0.10);
  EXPECT_DOUBLE_EQ(opts.rel_min_of.at("step_ms"), 0.25);

  const std::string base_path = testing::TempDir() + "scalemd_bounds_parent.jsonl";
  const std::string cand_path = testing::TempDir() + "scalemd_bounds_change.jsonl";
  const auto runs_of = [](double step_ms, double peak_rss_mb) {
    std::string text;
    for (double jitter : {-1.0, 0.0, 1.0}) {
      text += perfbench_line(step_ms + jitter, 0, peak_rss_mb + jitter / 10);
    }
    return text;
  };
  write_file(base_path, runs_of(200.0, 58.0));
  write_file(cand_path, runs_of(200.0 * 1.12, 58.0 * 1.12));
  const BenchReport parent = load_perfbench_runs(base_path);
  const BenchReport change = load_perfbench_runs(cand_path);
  std::remove(base_path.c_str());
  std::remove(cand_path.c_str());

  const CompareResult r = compare_reports(parent, change, opts);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.offenders(), (std::vector<std::string>{"peak_rss_mb"}));

  // A file without end-to-end bounds is named in the error.
  const std::string bad = testing::TempDir() + "scalemd_no_bounds.json";
  write_file(bad, "{\"workloads\": []}\n");
  EXPECT_THROW(load_bounds(bad), BenchSchemaError);
  std::remove(bad.c_str());
}

TEST(BenchReportTest, MalformedPerfbenchLineThrowsNamingItsLine) {
  const std::string path = testing::TempDir() + "scalemd_bad_runs.jsonl";
  write_file(path, perfbench_line(200.0, 0) + "cycle ms/step\n{\"failed\": 0, \"metrics\": {\n");
  try {
    load_perfbench_runs(path);
    ADD_FAILURE() << "no BenchSchemaError";
  } catch (const BenchSchemaError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3:"), std::string::npos) << e.what();
  }
  // A result line without a field is malformed too.
  write_file(path, "{\"failed\": 0, \"metrics\": {}}\n");
  EXPECT_THROW(load_perfbench_runs(path), BenchSchemaError);
  write_file(path, "no runs here\n");
  EXPECT_THROW(load_perfbench_runs(path), BenchSchemaError);
  std::remove(path.c_str());
}

TEST(BenchReportTest, MergeAppendsRecordsKeepsReceiverIdentity) {
  BenchReport a = make_report("smoke");
  BenchRunner ra;
  ra.record_value("a", "s", 1.0);
  a.benchmarks = ra.take_records();

  BenchReport b = make_report("paper");
  BenchRunner rb;
  rb.record_value("b", "s", 2.0);
  b.benchmarks = rb.take_records();

  a.merge(std::move(b));
  EXPECT_EQ(a.suite, "smoke");
  ASSERT_EQ(a.benchmarks.size(), 2u);
  EXPECT_NE(a.find("b"), nullptr);
  EXPECT_EQ(a.find("nope"), nullptr);
}

TEST(BenchEnvironmentTest, CaptureFillsCoreFields) {
  const BenchEnvironment env = capture_environment();
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_GE(env.hardware_threads, 1);
  // Tolerant from_json: absent members keep defaults rather than throwing.
  const BenchEnvironment sparse =
      BenchEnvironment::from_json(JsonValue::object());
  EXPECT_EQ(sparse.git_sha, "unknown");
}

// --- Schema stability: additive-only vs the checked-in v1 reference --------

std::set<std::string> member_keys(const JsonValue& obj) {
  std::set<std::string> keys;
  for (const auto& [k, v] : obj.members()) keys.insert(k);
  return keys;
}

void expect_superset(const JsonValue& emitted, const JsonValue& reference,
                     const std::string& where) {
  for (const std::string& key : member_keys(reference)) {
    EXPECT_NE(emitted.find(key), nullptr)
        << "schema regression: v1 field '" << where << "." << key
        << "' missing from emitted reports (schema evolution must be "
           "additive-only; bump schema_version for removals)";
  }
}

TEST(BenchSchemaTest, EmittedReportsStayFieldCompatibleWithV1) {
  const BenchReport v1 = load_report(std::string(SCALEMD_TEST_DATA_DIR) +
                                     "/perf/bench_schema_v1.json");
  ASSERT_EQ(v1.benchmarks.size(), 2u);  // the reference itself still loads

  const JsonValue ref = JsonValue::parse(
      [&] {
        std::FILE* f = std::fopen((std::string(SCALEMD_TEST_DATA_DIR) +
                                   "/perf/bench_schema_v1.json")
                                      .c_str(),
                                  "rb");
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
        std::fclose(f);
        return text;
      }());

  // Emit a real report with one wall-clock and one deterministic record.
  BenchReport report = make_report("schema-check");
  BenchRunner runner({.reps = 2, .warmup = 0});
  runner.time("w", "seconds_per_eval", [] {}).param("atoms", 1).label("kernel", "k");
  runner.record_value("d", "virtual_seconds_per_step", 1.0).param("pes", 1);
  report.benchmarks = runner.take_records();
  const JsonValue emitted = report.to_json();

  expect_superset(emitted, ref, "report");
  expect_superset(emitted.at("environment"), ref.at("environment"),
                  "environment");
  for (const JsonValue& emitted_rec : emitted.at("benchmarks").items()) {
    for (const JsonValue& ref_rec : ref.at("benchmarks").items()) {
      expect_superset(emitted_rec, ref_rec, "benchmark");
    }
  }
  EXPECT_EQ(emitted.at("schema").as_string(), ref.at("schema").as_string());
  EXPECT_EQ(emitted.at("schema_version").as_number(),
            ref.at("schema_version").as_number());
}

// --- The regression gate ---------------------------------------------------

BenchReport report_with(const std::string& name, std::vector<double> samples,
                        bool deterministic = false) {
  BenchReport r = make_report("gate");
  BenchRecord rec;
  rec.name = name;
  rec.deterministic = deterministic;
  rec.samples = std::move(samples);
  rec.reps = static_cast<int>(rec.samples.size());
  rec.finalize();
  r.benchmarks.push_back(std::move(rec));
  return r;
}

TEST(CompareTest, IdenticalReportsPass) {
  const BenchReport a = report_with("x", {1.0, 1.1, 0.9});
  const CompareResult res = compare_reports(a, a);
  EXPECT_FALSE(res.failed);
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, BenchDelta::Verdict::kOk);
}

TEST(CompareTest, TwoFoldSlowdownFailsNamingTheBenchmark) {
  const BenchReport base = report_with("forces/tiled", {1.0, 1.05, 0.95});
  const BenchReport slow = report_with("forces/tiled", {2.0, 2.1, 1.9});
  const CompareResult res = compare_reports(base, slow);
  EXPECT_TRUE(res.failed);
  ASSERT_EQ(res.offenders().size(), 1u);
  EXPECT_EQ(res.offenders()[0], "forces/tiled");
  EXPECT_NE(render_comparison(res).find("forces/tiled"), std::string::npos);
  EXPECT_NE(render_comparison(res).find("FAIL"), std::string::npos);
}

TEST(CompareTest, MadGateAbsorbsNoisyBaselines) {
  // Baseline is noisy: median 1.0, MAD 0.2 -> gate max(5%, 3*0.2) = 0.6.
  const BenchReport base = report_with("n", {1.0, 1.2, 0.8, 1.25, 0.75});
  // +40% is inside the noise gate -> OK despite exceeding the 5% floor.
  const BenchReport cand = report_with("n", {1.4, 1.4, 1.4, 1.4, 1.4});
  const CompareResult res = compare_reports(base, cand);
  EXPECT_FALSE(res.failed);
  EXPECT_EQ(res.deltas[0].verdict, BenchDelta::Verdict::kOk);
}

TEST(CompareTest, DeterministicRecordsGetTheTightGate) {
  // Deterministic: MAD 0, so anything beyond the 5% floor is real.
  const BenchReport base = report_with("d", {1.0}, /*deterministic=*/true);
  const BenchReport cand = report_with("d", {1.08}, /*deterministic=*/true);
  EXPECT_TRUE(compare_reports(base, cand).failed);
  const BenchReport close = report_with("d", {1.03}, /*deterministic=*/true);
  EXPECT_FALSE(compare_reports(base, close).failed);
}

TEST(CompareTest, ImprovementIsFlaggedNotFailed) {
  const BenchReport base = report_with("i", {2.0, 2.0, 2.0});
  const BenchReport fast = report_with("i", {1.0, 1.0, 1.0});
  const CompareResult res = compare_reports(base, fast);
  EXPECT_FALSE(res.failed);
  EXPECT_EQ(res.deltas[0].verdict, BenchDelta::Verdict::kImproved);
}

TEST(CompareTest, MissingBenchmarkFailsUnlessAllowed) {
  const BenchReport base = report_with("gone", {1.0});
  BenchReport cand = make_report("gate");  // empty candidate
  EXPECT_TRUE(compare_reports(base, cand).failed);
  CompareOptions allow;
  allow.allow_missing = true;
  EXPECT_FALSE(compare_reports(base, cand, allow).failed);
}

TEST(CompareTest, NewBenchmarkIsInformational) {
  BenchReport base = make_report("gate");
  const BenchReport cand = report_with("fresh", {1.0});
  const CompareResult res = compare_reports(base, cand);
  EXPECT_FALSE(res.failed);
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, BenchDelta::Verdict::kNew);
}

TEST(CompareTest, CustomThresholdsApply) {
  const BenchReport base = report_with("t", {1.0, 1.0, 1.0});
  const BenchReport cand = report_with("t", {1.2, 1.2, 1.2});
  CompareOptions loose;
  loose.rel_min = 0.25;
  EXPECT_FALSE(compare_reports(base, cand, loose).failed);
  CompareOptions tight;
  tight.rel_min = 0.10;
  EXPECT_TRUE(compare_reports(base, cand, tight).failed);
}

// --- Suites ---------------------------------------------------------------

TEST(SuiteTest, SmokeSuiteProducesSchemaValidSelfConsistentReport) {
  SuiteOptions opts;
  opts.reps = 2;
  opts.warmup = 0;
  opts.threads = 2;
  opts.scale = 0.02;  // tiny box: keep the unit suite fast
  const BenchReport report = run_smoke_suite(opts);
  EXPECT_EQ(report.suite, "smoke");
  EXPECT_GE(report.benchmarks.size(), 5u);
  EXPECT_NE(report.find("forces/scalar"), nullptr);
  EXPECT_NE(report.find("runtime/sim_step"), nullptr);
  EXPECT_TRUE(report.find("runtime/sim_step")->deterministic);

  // Round-trips through the serialized form.
  const BenchReport back = BenchReport::from_json(
      JsonValue::parse(report.to_json().dump()));
  EXPECT_EQ(back.benchmarks.size(), report.benchmarks.size());

  // The gate on an identical run passes...
  EXPECT_FALSE(compare_reports(report, back).failed);
  // ...and flags every benchmark after an injected 2x slowdown.
  BenchReport slow = back;
  for (BenchRecord& rec : slow.benchmarks) {
    for (double& s : rec.samples) s *= 2.0;
    rec.finalize();
  }
  const CompareResult res = compare_reports(report, slow);
  EXPECT_TRUE(res.failed);
  // Every deterministic record has MAD 0, so 2x must always trip its gate.
  // Wall-clock records at this tiny scale may have a noise gate wide enough
  // to absorb 2x — that is the gate doing its job, not a miss.
  const auto offenders = res.offenders();
  for (const BenchRecord& rec : report.benchmarks) {
    if (!rec.deterministic) continue;
    EXPECT_NE(std::find(offenders.begin(), offenders.end(), rec.name),
              offenders.end())
        << "deterministic benchmark " << rec.name << " escaped the gate";
  }
}

TEST(SuiteTest, UnknownSuiteThrows) {
  EXPECT_THROW(run_suite("nope", SuiteOptions{}), std::invalid_argument);
  const auto names = suite_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "smoke"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "paper"), names.end());
}

TEST(SuiteTest, ClipLadderKeepsAtLeastTwo) {
  EXPECT_EQ(clip_ladder({1, 2, 4, 8}, 1.0).size(), 4u);
  EXPECT_EQ(clip_ladder({1, 2, 4, 8}, 0.01).size(), 2u);
  EXPECT_EQ(clip_ladder({1}, 0.01).size(), 1u);  // can't keep more than exist
}

}  // namespace
}  // namespace scalemd::perf
