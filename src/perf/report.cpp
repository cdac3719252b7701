#include "perf/report.hpp"

#include <fstream>
#include <sstream>

namespace scalemd::perf {

void BenchReport::merge(BenchReport other) {
  for (BenchRecord& r : other.benchmarks) {
    benchmarks.push_back(std::move(r));
  }
}

const BenchRecord* BenchReport::find(const std::string& name) const {
  for (const BenchRecord& r : benchmarks) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

JsonValue BenchReport::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("schema", kBenchSchemaName);
  v.set("schema_version", kBenchSchemaVersion);
  v.set("suite", suite);
  v.set("environment", environment.to_json());
  JsonValue arr = JsonValue::array();
  for (const BenchRecord& r : benchmarks) arr.push_back(r.to_json());
  v.set("benchmarks", std::move(arr));
  return v;
}

BenchReport BenchReport::from_json(const JsonValue& v) {
  try {
    const std::string& magic = v.at("schema").as_string();
    if (magic != kBenchSchemaName) {
      throw BenchSchemaError("not a " + std::string(kBenchSchemaName) +
                             " artifact (schema: \"" + magic + "\")");
    }
    const int version = static_cast<int>(v.at("schema_version").as_number());
    if (version > kBenchSchemaVersion) {
      throw BenchSchemaError("schema_version " + std::to_string(version) +
                             " is newer than supported version " +
                             std::to_string(kBenchSchemaVersion));
    }
    BenchReport report;
    report.suite = v.at("suite").as_string();
    report.environment = BenchEnvironment::from_json(v.at("environment"));
    for (const JsonValue& b : v.at("benchmarks").items()) {
      report.benchmarks.push_back(BenchRecord::from_json(b));
    }
    return report;
  } catch (const JsonError& e) {
    throw BenchSchemaError(std::string("malformed bench report: ") + e.what());
  }
}

BenchReport make_report(const std::string& suite) {
  BenchReport report;
  report.suite = suite;
  report.environment = capture_environment();
  return report;
}

void save_report(const BenchReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_report: cannot open " + path);
  os << report.to_json().dump();
  if (!os) throw std::runtime_error("save_report: write failed for " + path);
}

BenchReport load_report(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_report: cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return BenchReport::from_json(JsonValue::parse(buf.str()));
  } catch (const JsonError& e) {
    throw BenchSchemaError(path + ": " + e.what());
  }
}

BenchReport load_perfbench_runs(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_perfbench_runs: cannot open " + path);
  constexpr const char* kEndToEnd[] = {"step_ms", "table_s", "setup_s", "peak_rss_mb"};
  BenchReport report;
  report.suite = "perfbench";
  for (const char* name : kEndToEnd) {
    BenchRecord r;
    r.name = name;
    r.metric = "median in run";
    report.benchmarks.push_back(std::move(r));
  }
  BenchRecord failed;
  failed.name = "failed_ops";
  failed.metric = "count";
  failed.unit = "ops";
  failed.deterministic = true;

  std::string line;
  for (int lineno = 1; std::getline(is, line); ++lineno) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] != '{') continue;
    try {
      const JsonValue run = JsonValue::parse(line);
      const JsonValue& metrics = run.at("metrics");
      for (BenchRecord& r : report.benchmarks) {
        const JsonValue& m = metrics.at(r.name);
        r.samples.push_back(m.at("value").as_number());
        r.unit = m.at("unit").as_string();
      }
      failed.samples.push_back(run.at("failed").as_number());
    } catch (const JsonError& e) {
      throw BenchSchemaError(path + ":" + std::to_string(lineno) +
                             ": not a perfbench result line: " + e.what());
    }
  }
  if (failed.samples.empty()) throw BenchSchemaError(path + ": no perfbench result line");
  report.benchmarks.push_back(std::move(failed));
  for (BenchRecord& r : report.benchmarks) r.finalize();
  return report;
}

}  // namespace scalemd::perf
