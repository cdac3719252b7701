// paper-des: the paper's Table 2 (ApoA-I on the ASCI-Red model, 1..2048
// PEs) exactly as bench_table2_apoa1_asci computes it, in frozen mode. After
// set-up no numerics run: the time is the discrete-event simulator and the
// load balancer. Each ladder point is one operation; a run repeats whole
// sweeps and reports per-point medians.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/parallel_sim.hpp"
#include "gen/presets.hpp"
#include "harness.hpp"
#include "trace/summary.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace scalemd;

// run_benchmark(3, 5): measure, greedy LB, measure, refine LB, timed cycle.
constexpr int kMeasureSteps = 3;
constexpr int kTimedSteps = 5;
constexpr int kStepsPerPoint = 2 * kMeasureSteps + kTimedSteps;

/// What one ladder point did. The counts and the virtual time are
/// deterministic; the wall times are not.
struct Point {
  double wall = 0.0;      ///< ParallelSim construction + protocol, less steal
  double sim_init = 0.0;  ///< ParallelSim construction
  double warmup = 0.0;    ///< the two measure cycles and both LB calls
  double greedy = 0.0;
  double refine = 0.0;
  double cycles = 0.0;  ///< the three run_cycle() calls
  double virtual_s_per_step = 0.0;
  double max_over_mean = 0.0;  ///< PE busy imbalance of the timed cycle
  std::uint64_t tasks = 0, msgs = 0, bytes = 0;
  int moves = 0;
};

ParallelOptions point_options(int pes) {
  ParallelOptions o;
  o.num_pes = pes;
  o.machine = MachineModel::asci_red();
  return o;
}

/// Runs one point; `traced` attaches a SummaryProfile for the whole point.
/// `failure` receives the operation's verdict (empty = passed).
Point run_point(RunContext& ctx, const Workload& wl, int pes, bool traced,
                InvariantChecker& checker, std::string& failure) {
  SpanLog& sp = ctx.spans;
  Point p;
  const int root = sp.begin("point");
  const HostCpu h0 = read_host_cpu();
  const double t0 = now_s();
  std::optional<ParallelSim> sim;
  p.sim_init = sp.time("sim_init", [&] { sim.emplace(wl, point_options(pes)); });
  std::optional<SummaryProfile> profile;
  if (traced) {
    profile.emplace(sim->backend().entries(), pes);
    sim->attach_sink(&*profile);
  }
  const WarmUp w = lb_warm_up(sp, *sim, kMeasureSteps);
  const std::vector<double> busy0 = sim->backend().busy_times();
  const double timed = sp.time("run_cycle", [&] { sim->run_cycle(kTimedSteps); });
  // The simulator runs on this one thread.
  p.wall = less_steal(now_s() - t0, h0, read_host_cpu(), 1);
  sp.end(root);

  if (traced) sim->detach_sink(&*profile);
  p.warmup = w.total_s;
  p.greedy = w.greedy_s;
  p.refine = w.refine_s;
  p.moves = w.moves;
  p.cycles = w.cycles_s + timed;
  p.virtual_s_per_step = sim->seconds_per_step_tail(kTimedSteps);
  std::vector<double> busy = sim->backend().busy_times();
  for (std::size_t i = 0; i < busy.size(); ++i) busy[i] -= busy0[i];
  p.max_over_mean = imbalance_ratio(busy);
  p.tasks = sim->backend().tasks_executed();
  p.msgs = sim->sim().remote_messages();
  p.bytes = sim->sim().remote_bytes();
  failure = check_cycle(*sim, checker, kTimedSteps);
  if (failure.empty() && !(p.virtual_s_per_step > 0.0 && std::isfinite(p.virtual_s_per_step))) {
    failure = "bad virtual s/step";
  }
  return p;
}

/// Median over sweeps of a field summed over the sweep's points.
double median_sweep_sum(const std::vector<std::vector<Point>>& sweeps, double Point::*field) {
  std::vector<double> v;
  for (const std::vector<Point>& sw : sweeps) {
    double sum = 0.0;
    for (const Point& p : sw) sum += p.*field;
    v.push_back(sum);
  }
  return median(v);
}

}  // namespace

int run_paper_des(RunContext& ctx) {
  const Options& opt = ctx.opt;
  const std::uint64_t seed = opt.seed >= 0 ? static_cast<std::uint64_t>(opt.seed) : 1;
  Report& rep = ctx.report;
  SpanLog& sp = ctx.spans;

  // Set-up (generator + Workload with its probe kernel pass) is
  // deterministic; an untraced run repeats it and reports the median.
  const int setups = opt.trace ? 1 : 3;
  std::unique_ptr<Molecule> mol;
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  double gen_s = 0.0, workload_s = 0.0;
  for (int r = 0; r < setups; ++r) {
    wl.reset();
    mol.reset();
    const int root = sp.begin("setup");
    const HostCpu h0 = read_host_cpu();
    const double t0 = now_s();
    gen_s = sp.time("gen", [&] { mol = std::make_unique<Molecule>(apoa1_like(seed)); });
    workload_s = sp.time("workload", [&] {
      wl = std::make_unique<Workload>(*mol, MachineModel::asci_red());
    });
    setup_s.push_back(less_steal(now_s() - t0, h0, read_host_cpu(), 1));
    sp.end(root);
  }
  const std::vector<int> ladder = asci_ladder(1, 2048);
  std::printf("paper-des: %s, %d atoms, %d patches, seed %llu, %zu-point ladder\n",
              mol->name.c_str(), mol->atom_count(), wl->decomp.patch_count(),
              static_cast<unsigned long long>(seed), ladder.size());

  // Whole sweeps until the window closes. A traced run alternates untraced
  // and traced sweeps; every sweep must reproduce the first one's virtual
  // times and counts bit for bit.
  InvariantChecker checker;
  std::vector<std::vector<Point>> untraced, traced;
  std::vector<double> untraced_wall, traced_wall;
  const std::size_t min_sweeps = opt.trace ? 2 : 3;
  const double t_window = now_s();
  for (bool tr = false;; tr = opt.trace && !tr) {
    if (now_s() - t_window >= opt.seconds && untraced.size() >= min_sweeps &&
        (!opt.trace || traced.size() >= min_sweeps)) {
      break;
    }
    const std::vector<Point>* first = untraced.empty() ? nullptr : &untraced.front();
    std::vector<Point> sweep;
    const double wall = sp.time(tr ? "sweep.traced" : "sweep", [&] {
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        std::string failure;
        sweep.push_back(run_point(ctx, *wl, ladder[i], tr, checker, failure));
        const Point& p = sweep.back();
        if (failure.empty() && first != nullptr) {
          const Point& f = (*first)[i];
          if (!same_bits(p.virtual_s_per_step, f.virtual_s_per_step)) {
            failure = fmt("%d PEs: virtual s/step %.17g differs from first sweep's %.17g",
                          ladder[i], p.virtual_s_per_step, f.virtual_s_per_step);
          } else if (p.tasks != f.tasks || p.msgs != f.msgs || p.bytes != f.bytes) {
            failure = fmt("%d PEs: task/message counts differ from first sweep", ladder[i]);
          }
        }
        rep.op(failure);
      }
    });
    (tr ? traced_wall : untraced_wall).push_back(wall);
    (tr ? traced : untraced).push_back(std::move(sweep));
  }

  // table_s: per point, the median over sweeps of its wall time; summed.
  double table_s = 0.0;
  std::printf("%6s %16s %9s %12s\n", "PEs", "virtual s/step", "speedup", "median wall s");
  const std::vector<Point>& first = untraced.front();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::vector<double> w;
    for (const std::vector<Point>& sw : untraced) w.push_back(sw[i].wall);
    table_s += median(w);
    std::printf("%6d %16.6g %9.1f %12.4f\n", ladder[i], first[i].virtual_s_per_step,
                first.front().virtual_s_per_step / first[i].virtual_s_per_step, median(w));
  }
  std::string walls = "sweep wall s:";
  for (double w : untraced_wall) walls += fmt(" %.3f", w);
  rep.note(walls);
  const int steps = kStepsPerPoint * static_cast<int>(ladder.size());
  const std::string sweeps = std::to_string(untraced.size()) + " sweeps";
  rep.metric("table_s", table_s, "sum over points of the median less steal over " + sweeps);
  rep.metric("step_ms", table_s * 1e3 / steps,
             "table_s per simulated step (" + std::to_string(steps) + "), " + sweeps);
  rep.metric("setup_s", median(setup_s),
             "median less steal of " + std::to_string(setups) + " set-ups");
  rep.metric("peak_rss_mb", peak_rss_mb(), "peak of the run");
  if (!opt.trace) return ctx.finish();

  // --- per-layer metrics, per sweep (medians over the untraced sweeps) ---
  const auto per_sweep = [&](double Point::*field) {
    return median_sweep_sum(untraced, field);
  };
  std::uint64_t tasks = 0, msgs = 0, bytes = 0;
  int moves = 0;
  double vsps_1024 = 0.0, imbalance_1024 = 0.0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    tasks += first[i].tasks;
    msgs += first[i].msgs;
    bytes += first[i].bytes;
    moves += first[i].moves;
    if (ladder[i] == 1024) {
      vsps_1024 = first[i].virtual_s_per_step;
      imbalance_1024 = first[i].max_over_mean;
    }
  }
  const double run_s = per_sweep(&Point::cycles);
  rep.metric("gen.build_s", gen_s, "apoa1_like()");
  rep.metric("core.workload_s", workload_s, "Workload constructor");
  rep.metric("core.sim_init_s", per_sweep(&Point::sim_init), "ParallelSim constructors per sweep");
  rep.metric("core.warmup_s", per_sweep(&Point::warmup), "measure cycles + LB per sweep");
  rep.metric("lb.greedy_ms", per_sweep(&Point::greedy) * 1e3, "load_balance() per sweep");
  rep.metric("lb.refine_ms", per_sweep(&Point::refine) * 1e3,
             "load_balance(refine_only) per sweep");
  rep.metric("lb.moves", moves, "computes moved per sweep");
  rep.metric("lb.max_over_mean", imbalance_1024, "PE busy, timed cycle at 1024 PEs");
  rep.metric("lb.virtual_speedup_1024", first.front().virtual_s_per_step / vsps_1024,
             "virtual s/step at 1 PE / at 1024 PEs");
  rep.metric("des.run_s", run_s, "run_cycle() wall per sweep");
  rep.metric("des.tasks", static_cast<double>(tasks), "tasks per sweep");
  rep.metric("des.tasks_per_s", static_cast<double>(tasks) / run_s, "des.tasks / des.run_s");
  rep.metric("des.msgs", static_cast<double>(msgs), "remote messages per sweep");
  rep.metric("des.bytes", static_cast<double>(bytes), "remote bytes per sweep");
  rep.metric("trace.overhead_pct", 100.0 * (median(traced_wall) / median(untraced_wall) - 1.0),
             "median traced vs untraced sweep");
  rep.metric("trace.step_ms", median(traced_wall) * 1e3 / steps,
             "traced sweep wall per simulated step");
  const WorkCounters work = wl->work.total();
  rep.metric("ff.pair_hit_ratio",
             static_cast<double>(work.pairs_computed) / static_cast<double>(work.pairs_tested),
             "pairs computed / tested, Workload probe pass");

  return ctx.finish();
}

}  // namespace perfbench
