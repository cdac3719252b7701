// Micro-benchmarks of the runtime substrate, in two modes.
//
// Default: per-layer runtime records through the shared BenchRunner — DES
// event throughput, a remote-message chain, multicast sender cost (naive vs
// optimized — section 4.2.3 at the microscope), reduction trees, and the
// load-balancing strategies' wall time — printed one line per record
// ("layers/...").
//
// Backend mode (`--backend sim|threads`, also `--backend=...`): runs the
// waterbox through the full parallel runtime on the chosen execution
// backend and reports per-step time — virtual seconds for the DES machine,
// measured wall-clock seconds for the threaded backend. Flags:
//   --kernel K    non-bonded kernel: scalar|tiled (default: the library
//                 default, tiled)
//   --pes N       virtual processors (default 8)
//   --threads N   threaded-backend workers (0 = all hardware threads)
//   --steps N     timed steps after the LB warm-up (default 5)
//   --box S       cubic box side in A (default 97.0, ~89k atoms)
//   --json [path] emit a scalemd-bench report (stdout when no path follows);
//   --out <path>  same, always to a file
//   --audit       run BOTH backends and print the Ideal/Modeled/Measured
//                 audit table (modeled-vs-measured methodology)
// Compare `--backend=threads --threads=8` against `--threads=1` for the
// shared-memory speedup; run without any of these flags for the layer
// records.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel_sim.hpp"
#include "des/simulator.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "gen/water_box.hpp"
#include "lb/greedy.hpp"
#include "lb/refine.hpp"
#include "rts/multicast.hpp"
#include "rts/reduction.hpp"
#include "trace/audit.hpp"
#include "trace/summary.hpp"
#include "util/random.hpp"

namespace scalemd {
namespace {

/// A seeded stand-in for the ApoA-I strategy input: 245 patches on a 7x7x5
/// grid, homed round-robin, each with four self pieces, one intra-patch
/// bonded object and a pair object per upper neighbor (13 in the interior;
/// face pairs split in two), loads drawn from the seed. Home PEs carry the
/// patches' integration as background.
LbProblem apoa1_like_lb_problem(int pes, std::uint64_t seed) {
  constexpr int kNx = 7, kNy = 7, kNz = 5;
  Rng rng(seed);
  LbProblem p;
  p.num_pes = pes;
  p.background.assign(static_cast<std::size_t>(pes), 0.0);
  const auto id = [](int x, int y, int z) { return (x * kNy + y) * kNz + z; };
  for (int patch = 0; patch < kNx * kNy * kNz; ++patch) {
    p.patch_home.push_back(patch % pes);
    p.background[static_cast<std::size_t>(patch % pes)] += rng.uniform(0.4e-3, 0.6e-3);
  }
  const auto add = [&](int a, int b, double lo, double hi) {
    p.objects.push_back({.load = rng.uniform(lo, hi),
                         .current_pe = p.patch_home[static_cast<std::size_t>(a)],
                         .patch_a = a,
                         .patch_b = b});
  };
  for (int x = 0; x < kNx; ++x) {
    for (int y = 0; y < kNy; ++y) {
      for (int z = 0; z < kNz; ++z) {
        const int a = id(x, y, z);
        for (int k = 0; k < 4; ++k) add(a, -1, 4e-3, 8e-3);
        add(a, -1, 0.5e-3, 1.5e-3);
        for (int dx = 0; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const bool upper = dx > 0 || (dx == 0 && (dy > 0 || (dy == 0 && dz > 0)));
              const int bx = x + dx, by = y + dy, bz = z + dz;
              if (!upper || bx >= kNx || by < 0 || by >= kNy || bz < 0 || bz >= kNz) continue;
              const int b = id(bx, by, bz);
              const int shared_axes = (dx == 0) + (dy == 0) + (dz == 0);
              if (shared_axes == 2) {  // face neighbor: split in two
                add(a, b, 5e-3, 9e-3);
                add(a, b, 5e-3, 9e-3);
              } else {
                add(a, b, shared_axes == 1 ? 2e-3 : 0.2e-3, shared_axes == 1 ? 4e-3 : 0.6e-3);
              }
            }
          }
        }
      }
    }
  }
  return p;
}

/// Records the runtime layer on the DES: each call builds a machine,
/// injects its work and drains it.
void run_layers(const perf::BenchOptions& opts) {
  perf::BenchRunner runner(opts);
  for (int tasks : {1000, 10000}) {
    const auto run = [tasks] {
      Simulator sim(8, MachineModel::asci_red());
      for (int i = 0; i < tasks; ++i) {
        sim.inject(i % 8, {.fn = [](ExecContext& c) { c.charge(1e-6); }});
      }
      sim.run();
      bench::keep(sim.time());
    };
    bench::time_calibrated(runner, "layers/des_schedule/tasks=" + std::to_string(tasks),
                           run)
        .param("tasks", tasks);
  }

  // A ping-pong chain of remote messages: per-event DES cost.
  constexpr int kHops = 1000;
  const auto chain = [] {
    Simulator sim(2, MachineModel::asci_red());
    std::function<void(ExecContext&, int)> hop = [&](ExecContext& ctx, int left) {
      if (left == 0) return;
      ctx.send(1 - ctx.pe(), {.bytes = 64, .fn = [&hop, left](ExecContext& c) {
                                hop(c, left - 1);
                              }});
    };
    sim.inject(0, {.fn = [&](ExecContext& ctx) { hop(ctx, kHops); }});
    sim.run();
    bench::keep(sim.time());
  };
  bench::time_calibrated(runner, "layers/des_message_chain", chain).param("hops", kHops);

  constexpr int kFanout = 64;
  std::vector<int> dests;
  for (int pe = 1; pe <= kFanout; ++pe) dests.push_back(pe);
  for (bool optimized : {false, true}) {
    const auto run = [&dests, optimized] {
      Simulator sim(kFanout + 1, MachineModel::asci_red());
      sim.inject(0, {.fn = [&](ExecContext& ctx) {
                       multicast(ctx, dests, 9000, optimized, [](int) {
                         TaskMsg m;
                         m.fn = [](ExecContext&) {};
                         return m;
                       });
                     }});
      sim.run();
      bench::keep(sim.pe_busy(0));
    };
    bench::time_calibrated(
        runner, std::string("layers/multicast/") + (optimized ? "optimized" : "naive"),
        run)
        .param("fanout", kFanout);
  }

  for (int pes : {64, 1024}) {
    std::vector<int> contributors;
    for (int pe = 0; pe < pes; ++pe) contributors.push_back(pe);
    const auto run = [&contributors, pes] {
      Simulator sim(pes, MachineModel::asci_red());
      const EntryId e = sim.entries().add("reduce", WorkCategory::kComm);
      double total = 0.0;
      Reducer red(contributors, e, [&](int, double v) { total = v; });
      for (int pe = 0; pe < pes; ++pe) {
        sim.inject(pe, {.fn = [&red, pe](ExecContext& ctx) {
                          red.contribute(ctx, pe, 0, 1.0);
                        }});
      }
      sim.run();
      bench::keep(total);
    };
    bench::time_calibrated(runner, "layers/reduction_tree/pes=" + std::to_string(pes),
                           run)
        .param("pes", pes);
  }

  // The load balancer's strategies on ApoA-I-sized input: greedy from
  // scratch, then refine from greedy's map after the loads have drifted.
  for (int pes : {1024, 2048}) {
    const LbProblem problem = apoa1_like_lb_problem(pes, 20);
    bench::time_calibrated(runner, "layers/lb_greedy/pes=" + std::to_string(pes), [&] {
      bench::keep(greedy_comm_map(problem).back());
    })
        .param("pes", pes)
        .param("objects", static_cast<double>(problem.objects.size()));
  }
  {
    constexpr int kPes = 2048;
    LbProblem drifted = apoa1_like_lb_problem(kPes, 20);
    const LbAssignment start = greedy_comm_map(drifted);
    Rng rng(21);
    for (LbObject& o : drifted.objects) o.load *= rng.uniform(0.9, 1.1);
    bench::time_calibrated(runner, "layers/lb_refine/pes=" + std::to_string(kPes), [&] {
      bench::keep(refine_map(drifted, start, 1.03).back());
    })
        .param("pes", kPes)
        .param("objects", static_cast<double>(drifted.objects.size()));
  }

  bench::print_records(runner.records());
}

// ---------------------------------------------------------------------------
// Backend mode: the parallel runtime end to end, DES vs real threads.
// ---------------------------------------------------------------------------

struct BackendRun {
  BackendKind backend;
  bool wall_clock = false;
  int steps = 0;
  double seconds_per_step = 0.0;  ///< tail average over the timed cycle
  double window_seconds = 0.0;    ///< timed-cycle span in the backend's clock
  AuditRow audit;
  AuditRow ideal;
};

BackendRun run_backend_once(const Workload& wl, BackendKind backend, int pes,
                            int threads, int steps) {
  ParallelOptions opts;
  opts.num_pes = pes;
  opts.numeric = true;
  opts.dt_fs = 1.0;
  opts.backend = backend;
  opts.threads = threads;
  ParallelSim sim(wl, opts);

  // LB warm-up exactly as the paper runs it: measure, greedy, measure,
  // refine — then the timed window.
  sim.run_cycle(2);
  sim.load_balance(/*refine_only=*/false);
  sim.run_cycle(2);
  sim.load_balance(/*refine_only=*/true);

  SummaryProfile prof(sim.backend().entries(), pes);
  prof.set_wall_clock(sim.backend().wall_clock());
  sim.attach_sink(&prof);
  const double t0 = sim.backend().time();
  sim.run_cycle(steps);

  BackendRun r;
  r.backend = backend;
  r.wall_clock = sim.backend().wall_clock();
  r.steps = steps;
  r.window_seconds = sim.backend().time() - t0;
  r.seconds_per_step = sim.seconds_per_step_tail(steps);
  // The timed cycle follows complete ones, so it opens on carried forces
  // and evaluates them once per step.
  r.audit = actual_audit(prof, r.window_seconds, pes, steps);
  r.ideal = ideal_audit(sim.ideal_nonbonded_seconds() * steps,
                        sim.ideal_bonded_seconds() * steps,
                        sim.ideal_integration_seconds() * steps, pes, steps);
  return r;
}

int run_backend_bench(BackendKind backend, NonbondedKernel kernel, int pes,
                      int threads, int steps, double box_side, bool audit,
                      const bench::CommonArgs& args) {
  Molecule mol = make_water_box({box_side, box_side, box_side}, /*seed=*/42);
  mol.assign_velocities(300.0, /*seed=*/7);
  std::printf("water box %.0f A side, %d atoms, %d PEs, %d timed steps, %s kernel\n",
              box_side, mol.atom_count(), pes, steps, kernel_name(kernel));
  NonbondedOptions nb;
  nb.kernel = kernel;
  const Workload wl(mol, MachineModel::asci_red(), nb);

  const BackendRun r = run_backend_once(wl, backend, pes, threads, steps);
  std::printf("%s backend: %.6f %s s/step (window %.6f s)\n",
              backend_name(r.backend), r.seconds_per_step,
              r.wall_clock ? "wall-clock" : "virtual", r.window_seconds);

  if (audit) {
    // Modeled vs measured, side by side: the DES run predicts, the threaded
    // run measures. Reuse `r` for whichever side the caller asked for.
    const BackendRun modeled = backend == BackendKind::kSimulated
                                   ? r
                                   : run_backend_once(wl, BackendKind::kSimulated,
                                                      pes, threads, steps);
    const BackendRun measured = backend == BackendKind::kThreaded
                                    ? r
                                    : run_backend_once(wl, BackendKind::kThreaded,
                                                       pes, threads, steps);
    std::printf("\n%s\n",
                render_audit(modeled.ideal, modeled.audit, measured.audit).c_str());
  }

  perf::BenchReport report = perf::make_report("micro_runtime");
  perf::BenchRunner runner(args.bench);
  perf::BenchRecord* rec;
  const std::string name =
      std::string("micro_runtime/") + backend_name(r.backend) + "/step";
  if (r.wall_clock) {
    rec = &runner.record_samples(name, "seconds_per_step", {r.seconds_per_step});
  } else {
    rec = &runner.record_value(name, "virtual_seconds_per_step",
                               r.seconds_per_step);
  }
  rec->param("pes", pes)
      .param("threads", threads)
      .param("atoms", mol.atom_count())
      .param("steps", r.steps)
      .param("window_seconds", r.window_seconds)
      .label("backend", backend_name(r.backend))
      .label("kernel", kernel_name(kernel))
      .label("clock", r.wall_clock ? "wall" : "virtual");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}

}  // namespace
}  // namespace scalemd

int main(int argc, char** argv) {
  using scalemd::BackendKind;

  scalemd::bench::CommonArgs common =
      scalemd::bench::parse_common_args(argc, argv);
  if (common.error) return 2;

  bool have_backend = common.json;  // a report request implies backend mode
  bool audit = false;
  BackendKind backend = BackendKind::kSimulated;
  scalemd::NonbondedKernel kernel = scalemd::NonbondedOptions{}.kernel;
  int pes = 8;
  int threads = 0;
  int steps = 5;
  double box_side = 97.0;
  std::string unknown;
  for (std::size_t i = 1; i < common.passthrough.size(); ++i) {
    char* arg = common.passthrough[i];
    const auto next_val = [&]() -> const char* {
      return i + 1 < common.passthrough.size() ? common.passthrough[++i] : nullptr;
    };
    const char* backend_arg = nullptr;
    if (std::strncmp(arg, "--backend=", 10) == 0) {
      backend_arg = arg + 10;
    } else if (std::strcmp(arg, "--backend") == 0) {
      backend_arg = next_val();
    }
    if (backend_arg != nullptr) {
      if (!scalemd::backend_from_name(backend_arg, backend)) {
        std::fprintf(stderr, "unknown backend '%s' (want sim|threads)\n",
                     backend_arg);
        return 1;
      }
      have_backend = true;
    } else if (std::strcmp(arg, "--kernel") == 0) {
      const char* v = next_val();
      if (v == nullptr || !scalemd::kernel_from_name(v, kernel) ||
          kernel == scalemd::NonbondedKernel::kTiledThreads) {
        std::fprintf(stderr, "--kernel wants scalar|tiled\n");
        return 1;
      }
    } else if (std::strcmp(arg, "--audit") == 0) {
      audit = true;
      have_backend = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atoi(arg + 10);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (const char* v = next_val()) threads = std::atoi(v);
    } else if (std::strcmp(arg, "--pes") == 0) {
      if (const char* v = next_val()) pes = std::atoi(v);
    } else if (std::strcmp(arg, "--steps") == 0) {
      if (const char* v = next_val()) steps = std::atoi(v);
    } else if (std::strcmp(arg, "--box") == 0) {
      if (const char* v = next_val()) box_side = std::atof(v);
    } else if (unknown.empty()) {
      unknown = arg;
    }
  }
  if (have_backend) {
    return scalemd::run_backend_bench(backend, kernel, pes, threads, steps,
                                      box_side, audit, common);
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown argument '%s'\n", unknown.c_str());
    return 2;
  }
  scalemd::run_layers(common.bench);
  return 0;
}
