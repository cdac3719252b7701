#pragma once

// Shared plumbing of the perfbench binary: options, spans recorded around
// calls into the library's public API, per-operation correctness checks,
// host-noise and memory probes, and the result line the benchmark prints.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/parallel_sim.hpp"
#include "perf/json.hpp"
#include "trace/summary.hpp"

namespace perfbench {

/// Command-line options. Every input of a workload is derived from these;
/// nothing is read from the environment.
struct Options {
  std::string workload;
  /// Generator seed; -1 selects the workload's default (42, 11 or 1).
  std::int64_t seed = -1;
  /// Velocity seed of water89k-threads (its box uses `seed`).
  std::uint64_t vel_seed = 7;
  /// Length of the measured window in seconds.
  double seconds = 25.0;
  /// 0: untraced run, end-to-end metrics. 1: traced run, per-layer metrics.
  bool trace = false;
  /// Traced run: file the recorded spans are written to (empty = none).
  std::string spans_path;
};

/// Monotonic wall-clock seconds (steady_clock) since an arbitrary origin.
double now_s();

/// printf into a std::string (diagnostic lines).
template <class... A>
std::string fmt(const char* format, A... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// Spans around calls into the library, kept in memory and written out once
/// the run ends. A span's parent is the span open when it began (-1: root).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int begin(std::string name);
  void end(int id);

  /// Runs `fn` inside a span called `name` and returns its wall seconds.
  template <class F>
  double time(std::string name, F&& fn) {
    const int id = begin(std::move(name));
    fn();
    end(id);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// Durations of the spans called `name`, in start order.
  std::vector<double> durations(const std::string& name) const;

  scalemd::perf::JsonValue to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// CPU seconds of the whole VM from the first line of /proc/stat.
struct HostCpu {
  double steal = 0.0;  ///< time the hypervisor gave to other guests
  double busy = 0.0;   ///< user + nice + system + irq + softirq
};
HostCpu read_host_cpu();

/// A sample's wall seconds less the CPU time the hypervisor gave to other
/// guests meanwhile, shared over the `cpus` threads or processes that carry
/// the work. No change to the program moves steal, yet on a shared host it
/// stretched whole runs of the ion box by a third. The count is VM-wide: it
/// includes the delays in waking CPUs that sat idle, and those delays
/// lengthen a step whose processes hand work to each other. /proc/stat
/// counts steal in 10 ms ticks; medians over many samples average that out.
double less_steal(double wall_s, const HostCpu& before, const HostCpu& after, int cpus);

/// Peak resident set of this process or of the largest reaped child (a
/// forked worker of the process backend), in MiB.
double peak_rss_mb();

/// Verdict of one operation (a timed cycle or a ladder point), taken after
/// its timed interval: the cycle completed, the invariant checker logged no
/// new violation, every potential of the cycle is finite and no restart
/// happened. Returns an empty string when the operation passed.
std::string check_cycle(const scalemd::ParallelSim& sim,
                        scalemd::InvariantChecker& checker, int steps);

/// Sums SummaryProfile task time into per-layer buckets by entry-method
/// name. Every registered entry must map to exactly one bucket; an unmapped
/// one is reported by name.
struct EntryBuckets {
  std::map<std::string, double> seconds;         ///< bucket metric -> task seconds
  std::map<std::string, std::uint64_t> counts;   ///< bucket metric -> tasks
  std::uint64_t tasks = 0;
  std::vector<std::string> unmapped;
};

/// Folds a profile's entry totals into their buckets.
EntryBuckets bucket_entries(const scalemd::SummaryProfile& profile,
                            const scalemd::EntryRegistry& registry);

/// Collects the result: end-to-end or per-layer metrics, the operation
/// counts and the correctness verdict, then prints the run's summary lines
/// and the final JSON line.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// Records a metric; `how` says what it is a median or a count of.
  void metric(const std::string& name, double value, const std::string& how = "");
  /// One operation attempted; `failure` is empty when it passed.
  void op(const std::string& failure);
  /// A once-per-run check failed.
  void fail(const std::string& why);
  /// A diagnostic printed next to the metrics but not part of the result.
  void note(const std::string& line);

  /// Prints every metric of the run's kind (end-to-end or per-layer) by
  /// name, then the JSON result line. Per-layer metrics a workload does not
  /// exercise are reported as 0 and marked n/a. Returns the exit code.
  int emit();

 private:
  bool traced_;
  std::map<std::string, std::pair<double, std::string>> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
};

/// Host-noise and span bookkeeping shared by every workload's run.
struct RunContext {
  Options opt;
  SpanLog spans;
  Report report;
  HostCpu host_start;

  explicit RunContext(Options o);
  /// Adds host.steal_s / host.cpu_s, writes the spans and emits the report.
  int finish();
};

bool same_bits(double a, double b);

/// The paper's LB warm-up as the benchmark protocol calls it:
/// run_cycle(steps), greedy LB, run_cycle(steps), refine LB, each in its own
/// span inside a "warmup" span.
struct WarmUp {
  double total_s = 0.0;
  double cycles_s = 0.0;  ///< the two run_cycle() calls
  double greedy_s = 0.0;
  double refine_s = 0.0;
  int moves = 0;  ///< computes whose compute_pe() changed, both LB calls
};
WarmUp lb_warm_up(SpanLog& spans, scalemd::ParallelSim& sim, int steps);

/// Reports core.state_bytes, core.export_ms and core.import_ms: the median
/// of three export_state() calls on `sim` and of three import_state() calls
/// of that blob into `fresh`, a sim built from the same workload and options.
void report_state_round_trip(RunContext& ctx, const scalemd::ParallelSim& sim,
                             scalemd::ParallelSim& fresh);

int run_real_backend(RunContext& ctx);
int run_paper_des(RunContext& ctx);

}  // namespace perfbench
