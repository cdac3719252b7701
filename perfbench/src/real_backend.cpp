// The two workloads that run real numerics on a real backend:
//   water89k-threads  89k-atom water box, 8 PEs on 4 worker threads
//   ions-pme-process  347-atom charged box with parallel PME, 4 PEs on one
//                     forked worker process
// Both share one protocol: set-up (generator, Workload, ParallelSim, LB
// warm-up), then timed run_cycle() calls until the window closes, each
// checked after its timed interval.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_sim.hpp"
#include "gen/test_systems.hpp"
#include "gen/water_box.hpp"
#include "harness.hpp"
#include "rts/process_backend.hpp"
#include "rts/threaded_backend.hpp"
#include "seq/engine.hpp"
#include "trace/summary.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace scalemd;

/// One real-backend workload. Options not set here keep the program's
/// defaults, so a changed default is measured the way users get it.
struct Spec {
  bool water89k = false;  ///< else ions-pme-process
  BackendKind backend = BackendKind::kThreaded;
  int pes = 8;
  int workers = 4;
  int cycle_steps = 5;
  /// Set-ups per untraced run (see run_real_backend).
  int setups = 3;
  std::uint64_t default_seed = 42;
  NonbondedOptions nb;
  InvariantOptions inv;
};

Spec spec_for(const std::string& name) {
  Spec s;
  if (name == "water89k-threads") {
    s.water89k = true;
    return s;
  }
  // quickstart --backend=process --full-elec, on 4 PEs and one forked
  // worker. With two workers (the default) every message between them
  // wakes a process on another core, and a step of a few milliseconds
  // stretched by half or more whenever the shared host took CPU away; with
  // one, messages between PEs stay inside the worker.
  s.backend = BackendKind::kProcess;
  s.pes = 4;
  s.workers = 1;
  s.cycle_steps = 20;
  // Set-up takes ~40 ms here, so more of them are cheap and steady setup_s.
  s.setups = 9;
  s.default_seed = 11;
  s.nb.cutoff = 6.5;
  s.nb.switch_dist = 5.5;
  s.nb.full_elec.enabled = true;
  s.nb.full_elec.alpha = 0.46;
  s.nb.full_elec.grid_x = s.nb.full_elec.grid_y = s.nb.full_elec.grid_z = 16;
  s.nb.full_elec.order = 4;
  // PME mesh interpolation breaks exact force antisymmetry at the
  // interpolation-error scale: quickstart's loosened bounds.
  s.inv.check_energy = false;
  s.inv.net_force_rel = 1e-3;
  s.inv.momentum_rel = 1e-2;
  return s;
}

std::unique_ptr<Molecule> build_molecule(const Spec& s, std::uint64_t seed,
                                         std::uint64_t vel_seed) {
  if (s.water89k) {
    auto mol = std::make_unique<Molecule>(make_water_box({97.0, 97.0, 97.0}, seed));
    mol->assign_velocities(300.0, vel_seed);
    return mol;
  }
  TestSystemOptions sys;
  sys.kind = TestSystemKind::kWaterBox;
  sys.box = {16.0, 16.0, 16.0};
  sys.ion_pairs = 4;
  sys.temperature = 300.0;
  sys.seed = seed;
  auto mol = std::make_unique<Molecule>(make_test_system(sys));
  mol->suggested_patch_size = 8.0;
  return mol;
}

ParallelOptions parallel_options(const Spec& s) {
  ParallelOptions o;
  o.num_pes = s.pes;
  o.numeric = true;
  o.backend = s.backend;
  if (s.backend == BackendKind::kThreaded) {
    o.threads = s.workers;
  } else {
    o.process.workers = s.workers;
  }
  return o;
}

/// The threads or processes that carry the work, among which a sample's
/// steal is shared (less_steal): the worker threads, or the forked workers
/// plus the supervisor that forks, watches and merges them.
int steal_cpus(const Spec& s) {
  return s.backend == BackendKind::kProcess ? s.workers + 1 : s.workers;
}

/// One set-up. Members are declared so that destruction runs sim, then
/// workload, then molecule: each refers to the next.
struct Instance {
  std::unique_ptr<Molecule> mol;
  std::unique_ptr<Workload> wl;
  std::unique_ptr<ParallelSim> sim;
  double total_s = 0.0;  ///< wall less steal (less_steal)
  double gen_s = 0.0, workload_s = 0.0, sim_init_s = 0.0;
  WarmUp warm;

  void reset() {
    sim.reset();
    wl.reset();
    mol.reset();
  }
};

/// Set-up as users pay it: generator, Workload (decomposition, compute plan,
/// probe kernel pass), ParallelSim, then the paper's LB warm-up.
void set_up(RunContext& ctx, const Spec& s, std::uint64_t seed, Instance& in) {
  SpanLog& sp = ctx.spans;
  const int root = sp.begin("setup");
  const HostCpu h0 = read_host_cpu();
  const double t0 = now_s();
  in.gen_s = sp.time("gen", [&] { in.mol = build_molecule(s, seed, ctx.opt.vel_seed); });
  in.workload_s = sp.time("workload", [&] {
    in.wl = std::make_unique<Workload>(*in.mol, MachineModel::asci_red(), s.nb);
  });
  in.sim_init_s = sp.time("sim_init", [&] {
    in.sim = std::make_unique<ParallelSim>(*in.wl, parallel_options(s));
  });
  in.warm = lb_warm_up(sp, *in.sim, 2);
  in.total_s = less_steal(now_s() - t0, h0, read_host_cpu(), steal_cpus(s));
  sp.end(root);
}

int worker_count(ExecBackend& backend) {
  if (auto* t = dynamic_cast<ThreadedBackend*>(&backend)) return t->workers();
  if (auto* p = dynamic_cast<ProcessBackend*>(&backend)) return p->workers();
  return 1;
}

/// Step-0 potential against an independent reference: the sequential
/// engine on the same inputs (PME workload) or the Workload's own probe
/// kernel pass (water box, where a sequential force pass costs seconds).
void check_step0(RunContext& ctx, const Spec& s, const Instance& in) {
  double ref = 0.0;
  if (s.water89k) {
    ref = in.wl->work.energy().total();
  } else {
    EngineOptions eo;
    eo.nonbonded = s.nb;
    ref = SequentialEngine(*in.mol, eo).potential().total();
  }
  const double got = in.sim->potential_at_step(0);
  const double rel = std::fabs(got - ref) / std::max(1.0, std::fabs(ref));
  ctx.report.note(fmt("step-0 potential %.12g kcal/mol vs reference %.12g (rel. diff %.1e)",
                      got, ref, rel));
  if (!(rel <= 1e-9)) ctx.report.fail("step-0 potential does not match its reference");
}

/// Traced run only: the sequential single-thread baseline on the same
/// molecule and options.
double seq_step_ms(RunContext& ctx, const Spec& s, const Molecule& mol) {
  EngineOptions eo;
  eo.nonbonded = s.nb;
  SequentialEngine engine(mol, eo);
  std::vector<double> ms;
  const double t0 = now_s();
  while (ms.size() < 2 || (now_s() - t0 < 1.0 && ms.size() < 200)) {
    ms.push_back(ctx.spans.time("seq.step", [&] { engine.step(); }) * 1e3);
  }
  return median(ms);
}

/// Traced run only: a traced and an untraced sim of the same workload run
/// the same cycle; the final-step potential and positions must agree in
/// every bit.
void check_trace_neutral(RunContext& ctx, const Spec& s, const Instance& in) {
  ParallelSim untraced(*in.wl, parallel_options(s));
  ParallelSim traced(*in.wl, parallel_options(s));
  SummaryProfile profile(traced.backend().entries(), s.pes);
  traced.attach_sink(&profile);
  untraced.run_cycle(s.cycle_steps);
  traced.run_cycle(s.cycle_steps);
  traced.detach_sink(&profile);
  const double eu = untraced.potential_at_step(s.cycle_steps);
  const double et = traced.potential_at_step(s.cycle_steps);
  const std::vector<Vec3> pu = untraced.gather_positions();
  const std::vector<Vec3> pt = traced.gather_positions();
  const bool same = same_bits(eu, et) && pu.size() == pt.size() &&
                    std::memcmp(pu.data(), pt.data(), pu.size() * sizeof(Vec3)) == 0;
  ctx.report.note(fmt("trace neutrality: final potential %.17g untraced vs %.17g traced (%s)",
                      eu, et, same ? "bitwise equal" : "DIFFERENT"));
  if (!same) ctx.report.fail("tracing changed the trajectory");
}

}  // namespace

int run_real_backend(RunContext& ctx) {
  const Options& opt = ctx.opt;
  const Spec s = spec_for(opt.workload);
  const std::uint64_t seed =
      opt.seed >= 0 ? static_cast<std::uint64_t>(opt.seed) : s.default_seed;
  Report& rep = ctx.report;

  // Set-up is deterministic, but the placement it ends with is not: the LB
  // balances measured wall-clock loads. So an untraced run sets up several
  // times and times an equal share of the window on each instance; step_ms
  // is the median over all their cycles and setup_s the median set-up, each
  // sample less steal. A traced run sets up once and alternates untraced and
  // traced cycles on that sim, so the tracing overhead is a paired
  // comparison.
  const int setups = opt.trace ? 1 : s.setups;
  Instance in;
  std::unique_ptr<SummaryProfile> profile;
  std::vector<double> setup_s, untraced_ms, traced_ms, untraced_wall_ms;
  double traced_wall = 0.0;
  int traced_steps = 0;
  std::uint64_t traced_frames = 0;
  int workers = 0;
  for (int r = 0; r < setups; ++r) {
    profile.reset();
    in.reset();
    set_up(ctx, s, seed, in);
    setup_s.push_back(in.total_s);
    ParallelSim& sim = *in.sim;
    workers = worker_count(sim.backend());
    auto* proc = dynamic_cast<ProcessBackend*>(&sim.backend());
    if (r == 0) {
      std::printf("%s: %d atoms, %d PEs on %d %s, seed %llu, cycles of %d steps\n",
                  opt.workload.c_str(), in.mol->atom_count(), s.pes, workers,
                  proc != nullptr ? (workers == 1 ? "forked worker" : "forked workers")
                                  : "threads",
                  static_cast<unsigned long long>(seed), s.cycle_steps);
    }
    if (opt.trace) {
      profile = std::make_unique<SummaryProfile>(sim.backend().entries(), s.pes);
      profile->set_wall_clock(true);
    }
    InvariantChecker checker(s.inv);
    const std::size_t min_cycles = opt.trace ? 3 : 1;
    std::size_t n_untraced = 0, n_traced = 0;
    const double t_window = now_s();
    for (bool traced = false;; traced = opt.trace && !traced) {
      if (now_s() - t_window >= opt.seconds / setups && n_untraced >= min_cycles &&
          (!opt.trace || n_traced >= min_cycles)) {
        break;
      }
      const std::uint64_t frames0 = proc != nullptr ? proc->frames_routed() : 0;
      if (traced) sim.attach_sink(profile.get());
      const HostCpu h0 = read_host_cpu();
      const double wall = ctx.spans.time(traced ? "cycle.traced" : "cycle",
                                         [&] { sim.run_cycle(s.cycle_steps); });
      const double ms =
          less_steal(wall, h0, read_host_cpu(), steal_cpus(s)) * 1e3 / s.cycle_steps;
      if (traced) sim.detach_sink(profile.get());
      if (traced) {
        ++n_traced;
        traced_ms.push_back(ms);
        traced_wall += wall;
        traced_steps += s.cycle_steps;
        if (proc != nullptr) traced_frames += proc->frames_routed() - frames0;
      } else {
        ++n_untraced;
        untraced_ms.push_back(ms);
        untraced_wall_ms.push_back(wall * 1e3 / s.cycle_steps);
      }
      rep.op(check_cycle(sim, checker, s.cycle_steps));
    }
  }
  ParallelSim& sim = *in.sim;
  check_step0(ctx, s, in);
  rep.note(fmt("cycle ms/step less steal over %zu set-up(s): min %.4g, quartiles %.4g %.4g "
               "%.4g, max %.4g; plain wall median %.4g",
               setup_s.size(), percentile(untraced_ms, 0), percentile(untraced_ms, 25),
               percentile(untraced_ms, 50), percentile(untraced_ms, 75),
               percentile(untraced_ms, 100), median(untraced_wall_ms)));

  const double step_ms = median(untraced_ms);
  const std::string cycles = std::to_string(untraced_ms.size()) + " cycles of " +
                             std::to_string(s.cycle_steps) + " steps";
  rep.metric("step_ms", step_ms, "median less steal over " + cycles);
  rep.metric("table_s", step_ms * s.cycle_steps * 1e-3,
             "median cycle wall time less steal over " + cycles);
  rep.metric("setup_s", median(setup_s),
             "median less steal of " + std::to_string(setups) + " set-ups");
  rep.metric("peak_rss_mb", peak_rss_mb(), "peak of the run, incl. forked workers");
  if (!opt.trace) return ctx.finish();

  // --- per-layer metrics of the traced cycles ---------------------------
  const std::string per_step = "per step, summed over PEs";
  const double to_ms = 1e3 / traced_steps;
  const EntryBuckets b = bucket_entries(*profile, sim.backend().entries());
  for (const std::string& name : b.unmapped) rep.fail("unmapped entry method " + name);
  double attributed = 0.0;
  for (const char* m : {"ff.nonbonded_ms", "ff.bonded_ms", "ewald.spread_ms", "ewald.fft_ms",
                        "ewald.gather_ms", "core.integrate_ms", "rts.comm_ms"}) {
    const auto it = b.seconds.find(m);
    const double v = it != b.seconds.end() ? it->second * to_ms : 0.0;
    attributed += v;
    rep.metric(m, v, "busy " + per_step);
  }
  const std::vector<double> busy = profile->busy_times();
  double busy_total = 0.0;
  for (double x : busy) busy_total += x;
  const double capacity = workers * traced_wall;
  const double unattributed = (capacity - busy_total) * to_ms;
  const double traced_step_ms = traced_wall * to_ms;
  rep.metric("rts.unattributed_ms", unattributed, "workers x wall - busy, " + per_step);
  rep.metric("rts.busy_frac", busy_total / capacity, "busy / (workers x wall)");
  rep.metric("trace.step_ms", traced_step_ms,
             "mean over " + std::to_string(traced_ms.size()) + " traced cycles");
  rep.note(fmt("add-up: busy components %.4f + unattributed %.4f = %.4f ms = %d workers x "
               "traced step_ms %.4f ms",
               attributed, unattributed, attributed + unattributed, workers, traced_step_ms));
  if (std::fabs(attributed + unattributed - workers * traced_step_ms) >
      1e-6 * workers * traced_step_ms) {
    rep.fail("busy components plus unattributed do not add up to workers x step_ms");
  }
  rep.metric("rts.tasks", static_cast<double>(b.tasks) / traced_steps, "tasks per step");
  rep.metric("rts.msgs", static_cast<double>(profile->messages()) / traced_steps,
             "messages per step");
  rep.metric("rts.bytes", static_cast<double>(profile->message_bytes()) / traced_steps,
             "message bytes per step");
  rep.metric("rts.frames", static_cast<double>(traced_frames) / traced_steps,
             "process-wire frames routed per step");
  rep.metric("lb.max_over_mean", imbalance_ratio(busy), "PE busy, traced window");
  rep.metric("trace.overhead_pct", 100.0 * (median(traced_ms) / step_ms - 1.0),
             "median traced vs untraced cycle, same sim");

  const WorkCounters work = in.wl->work.total();
  std::uint64_t nb_computes = 0;
  for (const ComputeDesc& c : in.wl->plan.computes()) nb_computes += is_nonbonded(c.kind);
  const auto nb = b.counts.find("ff.nonbonded_ms");
  const double evaluations =
      nb != b.counts.end() ? static_cast<double>(nb->second) / nb_computes : 0.0;
  const auto nb_s = b.seconds.find("ff.nonbonded_ms");
  if (evaluations > 0 && nb_s != b.seconds.end()) {
    rep.metric("ff.ns_per_pair",
               nb_s->second * 1e9 / (evaluations * static_cast<double>(work.pairs_computed)),
               "non-bonded busy per pair inside the cutoff");
  }
  rep.metric("ff.pair_hit_ratio",
             static_cast<double>(work.pairs_computed) / static_cast<double>(work.pairs_tested),
             "pairs computed / tested, Workload probe pass");

  rep.metric("gen.build_s", in.gen_s, "generator call");
  rep.metric("core.workload_s", in.workload_s, "Workload constructor");
  rep.metric("core.sim_init_s", in.sim_init_s, "ParallelSim constructor");
  rep.metric("core.warmup_s", in.warm.total_s, "2 cycles + greedy + refine");
  rep.metric("lb.greedy_ms", in.warm.greedy_s * 1e3, "load_balance()");
  rep.metric("lb.refine_ms", in.warm.refine_s * 1e3, "load_balance(refine_only)");
  rep.metric("lb.moves", in.warm.moves, "computes moved by greedy + refine");

  {
    ParallelSim fresh(*in.wl, parallel_options(s));
    report_state_round_trip(ctx, sim, fresh);
  }
  check_trace_neutral(ctx, s, in);
  const double seq_ms = seq_step_ms(ctx, s, *in.mol);
  rep.metric("seq.step_ms", seq_ms, "median SequentialEngine::step(), one thread");
  rep.metric("core.parallel_eff", seq_ms / (workers * step_ms), "seq.step_ms / (workers x step_ms)");
  return ctx.finish();
}

}  // namespace perfbench
