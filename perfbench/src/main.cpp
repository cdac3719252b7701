// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   scalemd_perfbench --workload water89k-threads|ions-pme-process|paper-des
//                     [--seed N] [--vel-seed N] [--seconds S] [--trace 0|1]
//                     [--spans FILE]
//
// --trace 0 measures the end-to-end metrics (no trace sink attached);
// --trace 1 is the separate traced run that reports the per-layer metrics.
// The last line of standard output is the JSON result. See
// perfbench/README.md for the workloads and metric definitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: scalemd_perfbench --workload "
               "water89k-threads|ions-pme-process|paper-des [--seed N] "
               "[--vel-seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The library reads SCALEMD_* variables (ladder scale, heartbeat and
  // watchdog periods); any of them would silently change a workload.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCALEMD_", 8) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value after " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, n)) return usage("--seed needs a non-negative integer");
      opt.seed = static_cast<std::int64_t>(n);
    } else if (a == "--vel-seed") {
      if (!parse_u64(v, opt.vel_seed)) return usage("--vel-seed needs a non-negative integer");
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        return usage("--seconds needs a number in (0, 600]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace needs 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  perfbench::RunContext ctx(opt);
  if (opt.workload == "water89k-threads" || opt.workload == "ions-pme-process") {
    return perfbench::run_real_backend(ctx);
  }
  if (opt.workload == "paper-des") return perfbench::run_paper_des(ctx);
  return usage(("unknown workload '" + opt.workload + "'").c_str());
}
