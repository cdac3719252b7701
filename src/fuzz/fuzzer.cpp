#include "fuzz/fuzzer.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace scalemd {

namespace {

/// The `expect` directive is transparent to parse_scenario; the replayer
/// reads it separately so a repro file is one self-contained artifact.
std::string extract_expected_oracle(const std::string& text) {
  std::istringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string key, oracle;
    if ((line >> key) && key == "expect" && (line >> oracle)) return oracle;
  }
  return "";
}

std::string comment_block(const std::string& text) {
  std::string out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) out += "#   " + line + "\n";
  return out;
}

}  // namespace

std::string render_repro(const FuzzFailure& failure) {
  std::string out;
  out += "# scalemd-fuzz repro (case " + std::to_string(failure.case_index) +
         ")\n";
  out += "# oracle: " + failure.oracle + "\n";
  std::istringstream detail(failure.detail);
  std::string line;
  while (std::getline(detail, line)) out += "# " + line + "\n";
  out += "# original spec before shrinking:\n";
  out += comment_block(serialize_scenario(failure.original));
  out += serialize_scenario(failure.shrunk);
  out += "expect " + failure.oracle + "\n";
  return out;
}

bool replay_repro(const std::string& text, const std::string& file,
                  std::string& message) {
  ScenarioSpec spec;
  FaultPlanParseError error;
  if (!parse_scenario(text, file, spec, error)) {
    message = "repro does not parse: " + error.render();
    return false;
  }
  const std::string expected = extract_expected_oracle(text);
  if (expected.empty()) {
    message = "repro has no 'expect <oracle>' line";
    return false;
  }
  const FuzzVerdict v = evaluate_scenario(spec);
  if (v.ok) {
    message = "expected oracle '" + expected +
              "' did not fire: the scenario now passes";
    return false;
  }
  if (v.oracle != expected) {
    message = "expected oracle '" + expected + "' but got '" + v.oracle +
              "':\n" + v.detail;
    return false;
  }
  message = "reproduced '" + expected + "':\n" + v.detail;
  return true;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport report;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < opts.cases; ++i) {
    if (opts.time_budget_s > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      if (elapsed.count() >= opts.time_budget_s) break;
    }
    ScenarioSpec spec = generate_scenario(opts.seed, i);
    spec.inject_defect = opts.inject_defect;
    const FuzzVerdict v = evaluate_scenario(spec);
    ++report.cases_run;
    if (opts.verbose) {
      std::fprintf(stderr, "case %d: %s\n", i,
                   v.ok ? "ok" : v.oracle.c_str());
    }
    if (v.ok) continue;

    FuzzFailure failure;
    failure.case_index = i;
    failure.original = spec;
    const ShrinkResult shrunk = shrink_scenario(spec, v, opts.shrink_evals);
    failure.shrunk = shrunk.spec;
    failure.oracle = shrunk.verdict.oracle;
    failure.detail = shrunk.verdict.detail;
    failure.shrink_evals = shrunk.evals;

    if (!opts.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opts.out_dir, ec);
      const std::string path =
          opts.out_dir + "/repro-case" + std::to_string(i) + ".txt";
      std::ofstream f(path);
      if (f) {
        f << render_repro(failure);
        if (f.good()) failure.repro_path = path;
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

int run_self_test(std::uint64_t seed, int max_cases, std::string& message) {
  // The defect sums forces in double, in the order the DES runs the tasks,
  // instead of through the fixed-point accumulators: clean-DES trajectories
  // then round differently from the threaded ones and depend on
  // message-arrival order, so the backend-divergence / chaos-divergence
  // oracles must catch it in a small campaign. Repros stay in memory: the round-trip through
  // render_repro / replay_repro is itself part of what is being tested.
  FuzzOptions opts;
  opts.cases = max_cases;
  opts.seed = seed;
  opts.inject_defect = true;
  opts.out_dir = "";
  const FuzzReport report = run_fuzz(opts);

  if (report.failures.empty()) {
    message = "self-test FAILED: injected arrival-order defect (double force sums "
              "in execution order) survived " +
              std::to_string(report.cases_run) + " cases undetected";
    return 1;
  }
  const FuzzFailure& failure = report.failures.front();
  if (failure.oracle != "backend-divergence" &&
      failure.oracle != "chaos-divergence") {
    message = "self-test FAILED: defect was caught by unexpected oracle '" +
              failure.oracle + "'\n" + failure.detail;
    return 1;
  }
  // The shrunk spec must be no larger than the original on the axes the
  // shrinker works: total steps and faults.
  const int orig_steps = failure.original.cycles * failure.original.steps;
  const int shrunk_steps = failure.shrunk.cycles * failure.shrunk.steps;
  if (shrunk_steps > orig_steps ||
      failure.shrunk.failures.size() > failure.original.failures.size()) {
    message = "self-test FAILED: shrunk spec is larger than the original";
    return 1;
  }
  std::string replay_message;
  if (!replay_repro(render_repro(failure), "<self-test>", replay_message)) {
    message = "self-test FAILED: repro did not replay: " + replay_message;
    return 1;
  }
  message = "self-test OK: caught '" + failure.oracle + "' in case " +
            std::to_string(failure.case_index) + " of " +
            std::to_string(report.cases_run) + ", shrunk to " +
            std::to_string(shrunk_steps) + " total step(s) after " +
            std::to_string(failure.shrink_evals) +
            " shrink evaluation(s); repro replays";
  return 0;
}

}  // namespace scalemd
