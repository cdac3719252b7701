#include "perf/compare.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "perf/json.hpp"
#include "util/table.hpp"

namespace scalemd::perf {

std::vector<std::string> CompareResult::offenders() const {
  std::vector<std::string> names;
  for (const BenchDelta& d : deltas) {
    if (d.verdict == BenchDelta::Verdict::kRegressed ||
        d.verdict == BenchDelta::Verdict::kMissing) {
      names.push_back(d.name);
    }
  }
  return names;
}

std::map<std::string, double> load_bounds(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw BenchSchemaError("load_bounds: cannot open " + path);
  std::ostringstream text;
  text << is.rdbuf();
  std::map<std::string, double> bounds;
  try {
    const JsonValue doc = JsonValue::parse(text.str());
    for (const JsonValue& m : doc.at("end_to_end").items()) {
      bounds[m.at("name").as_string()] = m.at("bound").as_number();
    }
  } catch (const JsonError& e) {
    throw BenchSchemaError(path + ": not a benchmark file with end-to-end bounds: " +
                           e.what());
  }
  return bounds;
}

CompareResult compare_reports(const BenchReport& baseline,
                              const BenchReport& candidate,
                              const CompareOptions& opts) {
  CompareResult result;
  for (const BenchRecord& base : baseline.benchmarks) {
    BenchDelta d;
    d.name = base.name;
    d.base_median = base.median;
    d.base_mad = base.mad;
    const BenchRecord* cand = candidate.find(base.name);
    if (cand == nullptr) {
      d.verdict = BenchDelta::Verdict::kMissing;
      result.failed = result.failed || !opts.allow_missing;
      result.deltas.push_back(d);
      continue;
    }
    d.cand_median = cand->median;
    d.delta = cand->median - base.median;
    const auto own = opts.rel_min_of.find(base.name);
    const double rel_min = own != opts.rel_min_of.end() ? own->second : opts.rel_min;
    d.threshold = std::max(rel_min * std::fabs(base.median), opts.mad_k * base.mad);
    if (d.delta > d.threshold) {
      d.verdict = BenchDelta::Verdict::kRegressed;
      result.failed = true;
    } else if (d.delta < -d.threshold) {
      d.verdict = BenchDelta::Verdict::kImproved;
    } else {
      d.verdict = BenchDelta::Verdict::kOk;
    }
    result.deltas.push_back(d);
  }
  for (const BenchRecord& cand : candidate.benchmarks) {
    if (baseline.find(cand.name) == nullptr) {
      BenchDelta d;
      d.name = cand.name;
      d.cand_median = cand.median;
      d.verdict = BenchDelta::Verdict::kNew;
      result.deltas.push_back(d);
    }
  }
  return result;
}

namespace {

const char* verdict_name(BenchDelta::Verdict v) {
  switch (v) {
    case BenchDelta::Verdict::kOk: return "ok";
    case BenchDelta::Verdict::kImproved: return "improved";
    case BenchDelta::Verdict::kRegressed: return "REGRESSED";
    case BenchDelta::Verdict::kMissing: return "MISSING";
    case BenchDelta::Verdict::kNew: return "new";
  }
  return "?";
}

std::string fmt_pct(double frac) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (frac >= 0 ? "+" : "") << 100.0 * frac << "%";
  return os.str();
}

}  // namespace

std::string render_comparison(const CompareResult& result) {
  Table t({"benchmark", "base median", "cand median", "delta", "gate", "verdict"});
  for (const BenchDelta& d : result.deltas) {
    std::string delta_s = "-";
    std::string gate_s = "-";
    if (d.verdict != BenchDelta::Verdict::kMissing &&
        d.verdict != BenchDelta::Verdict::kNew) {
      delta_s = d.base_median != 0.0 ? fmt_pct(d.delta / std::fabs(d.base_median))
                                     : fmt_sig(d.delta, 3);
      gate_s = d.base_median != 0.0
                   ? fmt_pct(d.threshold / std::fabs(d.base_median))
                   : fmt_sig(d.threshold, 3);
    }
    t.add_row({d.name, fmt_sig(d.base_median, 4), fmt_sig(d.cand_median, 4),
               delta_s, gate_s, verdict_name(d.verdict)});
  }
  std::ostringstream os;
  os << t.render();
  if (result.failed) {
    os << "FAIL:";
    for (const std::string& name : result.offenders()) os << ' ' << name;
    os << '\n';
  } else {
    os << "PASS: no confirmed regressions\n";
  }
  return os.str();
}

}  // namespace scalemd::perf
