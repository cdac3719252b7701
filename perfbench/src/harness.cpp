#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/stats.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep both lists in step with BENCHMARK.json and perfbench/README.md.
constexpr MetricDef kEndToEnd[] = {
    {"step_ms", "ms"},
    {"table_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.build_s", "s"},
    {"core.workload_s", "s"},
    {"core.sim_init_s", "s"},
    {"core.warmup_s", "s"},
    {"lb.greedy_ms", "ms"},
    {"lb.refine_ms", "ms"},
    {"lb.moves", "count"},
    {"lb.max_over_mean", "ratio"},
    {"lb.virtual_speedup_1024", "ratio"},
    {"ff.nonbonded_ms", "ms"},
    {"ff.bonded_ms", "ms"},
    {"ff.ns_per_pair", "ns"},
    {"ff.pair_hit_ratio", "ratio"},
    {"seq.step_ms", "ms"},
    {"core.parallel_eff", "ratio"},
    {"ewald.spread_ms", "ms"},
    {"ewald.fft_ms", "ms"},
    {"ewald.gather_ms", "ms"},
    {"core.integrate_ms", "ms"},
    {"rts.comm_ms", "ms"},
    {"rts.tasks", "count"},
    {"rts.msgs", "count"},
    {"rts.bytes", "B"},
    {"rts.frames", "count"},
    {"rts.unattributed_ms", "ms"},
    {"rts.busy_frac", "ratio"},
    {"core.state_bytes", "B"},
    {"core.export_ms", "ms"},
    {"core.import_ms", "ms"},
    {"des.run_s", "s"},
    {"des.tasks", "count"},
    {"des.tasks_per_s", "1/s"},
    {"des.msgs", "count"},
    {"des.bytes", "B"},
    {"trace.overhead_pct", "%"},
    {"trace.step_ms", "ms"},
    {"host.steal_s", "s"},
    {"host.cpu_s", "s"},
};

template <std::size_t N>
const MetricDef* find_def(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans nest: the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

scalemd::perf::JsonValue SpanLog::to_json() const {
  scalemd::perf::JsonValue arr = scalemd::perf::JsonValue::array();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    scalemd::perf::JsonValue s = scalemd::perf::JsonValue::object();
    s.set("id", static_cast<int>(i));
    s.set("name", spans_[i].name);
    s.set("parent", spans_[i].parent);
    s.set("start_s", spans_[i].start - origin);
    s.set("end_s", spans_[i].end - origin);
    arr.push_back(std::move(s));
  }
  return arr;
}

// ---------------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------------

HostCpu read_host_cpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(in >> cpu) || cpu != "cpu") return h;
  for (double& x : v) {
    if (!(in >> x)) return HostCpu{};
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  h.busy = (v[0] + v[1] + v[2] + v[5] + v[6]) / tick;
  h.steal = v[7] / tick;
  return h;
}

double less_steal(double wall_s, const HostCpu& before, const HostCpu& after, int cpus) {
  // An unreadable /proc/stat reads as all zeros: keep the plain wall time.
  if (before.busy <= 0.0 || after.busy <= 0.0) return wall_s;
  return wall_s - (after.steal - before.steal) / cpus;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------------------
// Per-operation checks and entry mapping
// ---------------------------------------------------------------------------

std::string check_cycle(const scalemd::ParallelSim& sim,
                        scalemd::InvariantChecker& checker, int steps) {
  if (!sim.last_cycle_complete()) return "cycle incomplete";
  const std::size_t before = checker.log().size();
  checker.observe_cycle(sim);
  if (checker.log().size() != before) {
    return "invariant violated: " + checker.log().render();
  }
  const int last = static_cast<int>(sim.step_completion().size()) - 1;
  for (int s = last - steps; s <= last; ++s) {
    if (!std::isfinite(sim.potential_at_step(s))) {
      return "non-finite potential at step " + std::to_string(s);
    }
  }
  if (sim.restarts() != 0) return "restarted " + std::to_string(sim.restarts()) + "x";
  return "";
}

EntryBuckets bucket_entries(const scalemd::SummaryProfile& profile,
                            const scalemd::EntryRegistry& registry) {
  // Every entry method ParallelSim registers lands in exactly one per-layer
  // metric; the DES-only reliable-delivery entries are never registered by
  // the configurations this benchmark runs.
  static const std::map<std::string, std::string> kMap{
      {"ComputeNonbondedSelf::doWork", "ff.nonbonded_ms"},
      {"ComputeNonbondedPair::doWork", "ff.nonbonded_ms"},
      {"ComputeBondedIntra::doWork", "ff.bonded_ms"},
      {"ComputeBondedInter::doWork", "ff.bonded_ms"},
      {"PmeSlab::recvAtoms", "ewald.spread_ms"},
      {"PmeSlab::recvTransposeFwd", "ewald.fft_ms"},
      {"PmeSlab::recvTransposeBwd", "ewald.gather_ms"},
      {"Patch::integrate", "core.integrate_ms"},
      {"Proxy::recvCoordinates", "rts.comm_ms"},
      {"Patch::recvForces", "rts.comm_ms"},
      {"Patch::recvPmeForces", "rts.comm_ms"},
      {"Reduction::combine", "rts.comm_ms"},
      {"Migrate::recv", "rts.comm_ms"},
      {"Checkpoint::store", "rts.comm_ms"},
  };
  EntryBuckets b;
  for (scalemd::EntryId id = 0; id < registry.count(); ++id) {
    const auto it = kMap.find(registry.name(id));
    if (it == kMap.end()) {
      b.unmapped.push_back(registry.name(id));
      continue;
    }
    const scalemd::SummaryProfile::EntryStats st = profile.entry(id);
    b.seconds[it->second] += st.total;
    b.counts[it->second] += st.count;
    b.tasks += st.count;
  }
  return b;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

WarmUp lb_warm_up(SpanLog& spans, scalemd::ParallelSim& sim, int steps) {
  const auto moved = [](const std::vector<int>& before, const std::vector<int>& after) {
    int n = 0;
    for (std::size_t i = 0; i < before.size(); ++i) n += before[i] != after[i];
    return n;
  };
  WarmUp w;
  w.total_s = spans.time("warmup", [&] {
    w.cycles_s += spans.time("run_cycle", [&] { sim.run_cycle(steps); });
    std::vector<int> before = sim.compute_pe();
    w.greedy_s = spans.time("lb.greedy", [&] { sim.load_balance(/*refine_only=*/false); });
    w.moves += moved(before, sim.compute_pe());
    w.cycles_s += spans.time("run_cycle", [&] { sim.run_cycle(steps); });
    before = sim.compute_pe();
    w.refine_s = spans.time("lb.refine", [&] { sim.load_balance(/*refine_only=*/true); });
    w.moves += moved(before, sim.compute_pe());
  });
  return w;
}

void report_state_round_trip(RunContext& ctx, const scalemd::ParallelSim& sim,
                             scalemd::ParallelSim& fresh) {
  std::vector<std::uint8_t> blob;
  std::vector<double> ex, im;
  for (int r = 0; r < 3; ++r) {
    ex.push_back(ctx.spans.time("export", [&] { blob = sim.export_state(); }));
  }
  for (int r = 0; r < 3; ++r) {
    im.push_back(ctx.spans.time("import", [&] { fresh.import_state(blob); }));
  }
  ctx.report.metric("core.state_bytes", static_cast<double>(blob.size()), "export_state() blob");
  ctx.report.metric("core.export_ms", scalemd::median(ex) * 1e3, "median of 3 export_state()");
  ctx.report.metric("core.import_ms", scalemd::median(im) * 1e3, "median of 3 import_state()");
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& how) {
  if (find_def(kPerLayer, name) == nullptr && find_def(kEndToEnd, name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  // Each run reports one kind; the other kind's values are dropped here.
  if ((traced_ ? find_def(kPerLayer, name) : find_def(kEndToEnd, name)) != nullptr) {
    values_[name] = {value, how};
  }
}

void Report::op(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back("operation " + std::to_string(attempted_) +
                                            " failed: " + failure);
}

void Report::fail(const std::string& why) { errors_.push_back(why); }

void Report::note(const std::string& line) { notes_.push_back(line); }

int Report::emit() {
  scalemd::perf::JsonValue metrics = scalemd::perf::JsonValue::object();
  bool complete = true;
  const auto emit_one = [&](const MetricDef& d) {
    const auto it = values_.find(d.name);
    const bool have = it != values_.end();
    const double v = have ? it->second.first : 0.0;
    if (have) {
      std::printf("%-26s %14.6g %-6s %s\n", d.name, v, d.unit,
                  it->second.second.c_str());
    } else {
      std::printf("%-26s %14s %-6s not exercised by this workload\n", d.name,
                  "n/a (0)", d.unit);
    }
    scalemd::perf::JsonValue m = scalemd::perf::JsonValue::object();
    m.set("value", v);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
    return have;
  };
  if (traced_) {
    for (const MetricDef& d : kPerLayer) emit_one(d);
  } else {
    for (const MetricDef& d : kEndToEnd) complete = emit_one(d) && complete;
  }
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  if (!complete) errors_.push_back("an end-to-end metric was not measured");
  for (const std::string& e : errors_) std::printf("ERROR: %s\n", e.c_str());
  const bool correct = errors_.empty() && failed_ == 0 && attempted_ > 0;
  std::printf("operations: %llu attempted, %llu failed; correct: %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), correct ? "yes" : "NO");

  scalemd::perf::JsonValue result = scalemd::perf::JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<double>(attempted_));
  result.set("failed", static_cast<double>(failed_));
  result.set("metrics", std::move(metrics));
  // The result must be one line: fold the writer's indentation away.
  const std::string pretty = result.dump();
  std::string line;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    line += pretty[i];
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// RunContext
// ---------------------------------------------------------------------------

RunContext::RunContext(Options o)
    : opt(std::move(o)), report(opt.trace), host_start(read_host_cpu()) {}

int RunContext::finish() {
  const HostCpu end = read_host_cpu();
  if (!opt.trace) {
    report.note(fmt("host: %.2f CPU-s stolen, %.2f CPU-s busy (whole VM) during the run",
                    end.steal - host_start.steal, end.busy - host_start.busy));
  }
  report.metric("host.steal_s", end.steal - host_start.steal, "VM steal during the run");
  report.metric("host.cpu_s", end.busy - host_start.busy, "VM busy CPU during the run");
  if (opt.trace && !opt.spans_path.empty()) {
    const scalemd::perf::JsonValue json = spans.to_json();
    std::ofstream out(opt.spans_path);
    out << json.dump();
    if (!out) {
      report.fail("cannot write spans to " + opt.spans_path);
    } else {
      report.note("spans: " + std::to_string(json.size()) + " written to " +
                  opt.spans_path);
    }
  }
  return report.emit();
}

}  // namespace perfbench
