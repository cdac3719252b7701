// Micro-benchmarks of the force kernels, in two modes.
//
// Default: per-layer kernel records through the shared BenchRunner —
// non-bonded self/pair evaluation as a function of atom count (scalar and
// tiled), each bonded term, and the exclusion lookup — printed one line
// per record ("layers/..."). These measure this host's real kernel
// throughput; the paper-reproduction tables use the calibrated 1999
// machine models instead.
//
// Comparison mode (`--compare`, implied by `--json`/`--out`): builds one
// ApoA-I-scale water box, runs full SequentialEngine force evaluations under
// every kernel variant (scalar / tiled / tiled+threads) through the shared
// BenchRunner, cross-checks energies and work counters, and reports
// pairs/sec per variant. `--json [path]` / `--out <path>` write a
// scalemd-bench report ("micro_forces/<variant>" records).
// Options: --box <side A> (default 97), --reps/--warmup (BenchRunner
// defaults), --threads <n> (default 4). SCALEMD_BENCH_SCALE < 1 shrinks the
// box for smoke runs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ff/bonded.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "topo/molecule.hpp"
#include "util/random.hpp"

namespace scalemd {
namespace {

/// Shared fixture data: n atoms in a cube sized for liquid density.
struct KernelSetup {
  explicit KernelSetup(int n) {
    mol.box = {100, 100, 100};
    const int t = mol.params.add_lj_type(0.15, 1.8);
    mol.params.finalize();
    Rng rng(17);
    const double side = std::cbrt(n / 0.1);
    for (int i = 0; i < n; ++i) {
      mol.add_atom({12.0, i % 2 == 0 ? 0.3 : -0.3, t},
                   rng.point_in_box({side, side, side}));
      idx.push_back(i);
      pos.push_back(mol.positions()[static_cast<std::size_t>(i)]);
      charges.push_back(mol.atoms()[static_cast<std::size_t>(i)].charge);
      types.push_back(t);
    }
    frc.assign(static_cast<std::size_t>(n), Vec3{});
    excl = ExclusionTable::build(mol);
    ctx = std::make_unique<NonbondedContext>(mol.params, excl, charges, types,
                                             NonbondedOptions{});
  }

  Molecule mol;
  std::vector<int> idx;
  std::vector<Vec3> pos;
  std::vector<Vec3> frc;
  std::vector<double> charges;
  std::vector<int> types;
  ExclusionTable excl;
  std::unique_ptr<NonbondedContext> ctx;
};

/// Records the kernel layer: non-bonded calls by atom count, scalar and
/// tiled side by side (a tiled call reads tiles gathered beforehand, as
/// every caller gathers them once per force evaluation), each bonded term,
/// and the exclusion lookup.
void run_layers(const perf::BenchOptions& opts) {
  perf::BenchRunner runner(opts);
  // `call(w)` evaluates once, counting into w.
  const auto time_kernel = [&](const std::string& name, const auto& call) {
    WorkCounters w;
    perf::BenchRecord& rec = bench::time_calibrated(runner, name, [&] {
      w = {};
      bench::keep(call(w).total());
    });
    rec.param("pairs_per_call", static_cast<double>(w.pairs_tested))
        .param("pairs_per_sec", static_cast<double>(w.pairs_tested) / rec.median);
  };
  for (int n : {64, 256, 1024}) {
    KernelSetup s(n);
    SetLayout layout;
    layout.clear(n);
    layout.add(s.idx, s.pos);
    layout.gather_tiles(*s.ctx);
    TileScratch scratch;
    const std::string size = "/atoms=" + std::to_string(n);
    time_kernel("layers/nonbonded_self/scalar" + size, [&](WorkCounters& w) {
      return nonbonded_self(*s.ctx, s.idx, s.pos, s.frc, w);
    });
    time_kernel("layers/nonbonded_self/tiled" + size, [&](WorkCounters& w) {
      return nonbonded_self_tile_range(*s.ctx, layout.tile(0), 0, layout.where(),
                                       s.frc, 0, s.idx.size(), w, scratch);
    });
  }
  for (int n : {128, 512}) {
    KernelSetup s(2 * n);
    const auto un = static_cast<std::size_t>(n);
    const std::span<const int> ia(s.idx.data(), un), ib(s.idx.data() + n, un);
    const std::span<const Vec3> pa(s.pos.data(), un), pb(s.pos.data() + n, un);
    SetLayout layout;
    layout.clear(2 * n);
    layout.add(ia, s.pos);
    layout.add(ib, s.pos);
    layout.gather_tiles(*s.ctx);
    TileScratch scratch;
    std::vector<Vec3> fa(un), fb(un);
    const std::string size = "/atoms=" + std::to_string(n) + "x" + std::to_string(n);
    time_kernel("layers/nonbonded_pair/scalar" + size, [&](WorkCounters& w) {
      return nonbonded_ab(*s.ctx, ia, pa, fa, ib, pb, fb, w);
    });
    time_kernel("layers/nonbonded_pair/tiled" + size, [&](WorkCounters& w) {
      return nonbonded_ab_tile_range(*s.ctx, layout.tile(0), fa, layout.tile(1), 1,
                                     layout.where(), fb, 0, un, w, scratch);
    });
  }

  Vec3 fa, fb, fc, fd;
  const BondParam bond{340.0, 1.09};
  bench::time_calibrated(runner, "layers/bonded/bond", [&] {
    bench::keep(bond_energy_force({0.1, 0.2, 0.3}, {1.1, 0.9, 0.5}, bond, fa, fb));
  });
  const AngleParam angle{55.0, 1.9};
  bench::time_calibrated(runner, "layers/bonded/angle", [&] {
    bench::keep(angle_energy_force({1.2, 0, 0}, {0, 0, 0}, {0.4, 1.4, 0.3}, angle, fa,
                                   fb, fc));
  });
  const DihedralParam dihedral{1.4, 3, 0.5};
  bench::time_calibrated(runner, "layers/bonded/dihedral", [&] {
    bench::keep(dihedral_energy_force({0, 0, 0}, {1.5, 0.1, 0}, {2.0, 1.5, 0.2},
                                      {3.4, 1.8, 1.0}, dihedral, fa, fb, fc, fd));
  });

  // A long chain: every atom carries full 1-2/1-3 and 1-4 lists.
  Molecule chain;
  chain.box = {10000, 10, 10};
  const int t = chain.params.add_lj_type(0.1, 2.0);
  const int b = chain.params.add_bond_param(100, 1.5);
  chain.params.finalize();
  for (int i = 0; i < 1000; ++i) {
    chain.add_atom({12, 0, t}, {1.5 * i + 1, 5, 5});
    if (i > 0) chain.add_bond(i - 1, i, b);
  }
  const ExclusionTable excl = ExclusionTable::build(chain);
  int i = 0;
  bench::time_calibrated(runner, "layers/exclusion_check", [&] {
    bench::keep(static_cast<double>(excl.check(i % 1000, (i + 3) % 1000)));
    ++i;
  });

  bench::print_records(runner.records());
}

// ---------------------------------------------------------------------------
// Kernel-variant comparison mode
// ---------------------------------------------------------------------------

struct VariantResult {
  NonbondedKernel kernel{};
  int threads = 1;
  double seconds = 0.0;           // median per force evaluation
  double pairs_per_sec = 0.0;     // distance tests per second
  EnergyTerms energy;
  WorkCounters work;
  SequentialEngine::TileShape shape;  // tiled variants: the cluster kernel's shape
};

int run_comparison(double box_side, int threads, const bench::CommonArgs& args) {
  const double scale = bench_scale_from_env();
  if (scale < 1.0) box_side *= std::cbrt(scale);
  const Molecule m = make_water_box({box_side, box_side, box_side}, 42);
  std::printf("water box %.0f A^3, %d atoms, cutoff %.1f A, %d reps/variant\n",
              box_side, m.atom_count(), NonbondedOptions{}.cutoff,
              args.bench.reps);

  perf::BenchRunner runner(args.bench);
  std::vector<VariantResult> results;
  for (NonbondedKernel k : {NonbondedKernel::kScalar, NonbondedKernel::kTiled,
                            NonbondedKernel::kTiledThreads}) {
    EngineOptions opts;
    opts.nonbonded.kernel = k;
    opts.nonbonded.threads = threads;
    SequentialEngine eng(m, opts);  // ctor primes forces: warm-up evaluation

    perf::BenchRecord& rec =
        runner.time(std::string("micro_forces/") + kernel_name(k),
                    "seconds_per_eval", [&eng] { eng.compute_forces(); });

    VariantResult res;
    res.kernel = k;
    res.threads = k == NonbondedKernel::kTiledThreads ? threads : 1;
    res.seconds = rec.median;
    res.energy = eng.potential();
    res.work = eng.work();
    res.pairs_per_sec = static_cast<double>(res.work.pairs_tested) / res.seconds;
    res.shape = eng.tile_shape();
    rec.param("atoms", m.atom_count())
        .param("threads", res.threads)
        .param("pairs_per_sec", res.pairs_per_sec)
        .param("ns_per_pair", 1e9 / res.pairs_per_sec)
        .label("kernel", kernel_name(k));
    results.push_back(res);
  }

  // Cross-check: identical work counts, energies within rounding.
  const VariantResult& ref = results.front();
  bool ok = true;
  for (const VariantResult& r : results) {
    if (r.work.pairs_tested != ref.work.pairs_tested ||
        r.work.pairs_computed != ref.work.pairs_computed) {
      std::fprintf(stderr, "FAIL: %s work counters diverge from scalar\n",
                   kernel_name(r.kernel));
      ok = false;
    }
    const double tol = 1e-9 * std::max(1.0, std::fabs(ref.energy.total()));
    if (std::fabs(r.energy.total() - ref.energy.total()) > tol) {
      std::fprintf(stderr, "FAIL: %s energy %.12g != scalar %.12g\n",
                   kernel_name(r.kernel), r.energy.total(), ref.energy.total());
      ok = false;
    }
  }

  std::printf("%-14s %8s %12s %14s %10s\n", "variant", "threads", "s/eval",
              "pairs/sec", "speedup");
  for (const VariantResult& r : results) {
    std::printf("%-14s %8d %12.4f %14.4g %9.2fx\n", kernel_name(r.kernel),
                r.threads, r.seconds, r.pairs_per_sec,
                ref.seconds / r.seconds);
  }

  // The cluster kernel's shape: blocks run, in-cutoff pairs per block lane
  // (lane efficiency), and the share of the cell layout's slots that are
  // padding.
  for (const VariantResult& r : results) {
    if (r.kernel != NonbondedKernel::kTiled) continue;
    const double lanes = static_cast<double>(r.shape.blocks) * kClusterI * kClusterJ;
    std::printf("%s blocks (%s body): %llu 4x8 blocks/eval, lane efficiency %.3f, "
                "padding %.1f%% of %zu slots\n",
                kernel_name(r.kernel), block_path_name(native_block_path()),
                static_cast<unsigned long long>(r.shape.blocks),
                lanes > 0 ? static_cast<double>(r.work.pairs_computed) / lanes : 0.0,
                r.shape.slots > 0 ? 100.0 * static_cast<double>(r.shape.slots - r.shape.atoms) /
                                        static_cast<double>(r.shape.slots)
                                  : 0.0,
                r.shape.slots);
  }

  perf::BenchReport report = perf::make_report("micro_forces");
  report.benchmarks = runner.take_records();
  const int emit_rc = bench::emit_report(args, report);
  return ok ? emit_rc : 1;
}

}  // namespace
}  // namespace scalemd

int main(int argc, char** argv) {
  scalemd::bench::CommonArgs common =
      scalemd::bench::parse_common_args(argc, argv);
  if (common.error) return 2;

  bool compare = common.json;  // a report request implies comparison mode
  double box_side = 97.0;      // ~92k atoms at liquid density: ApoA-I scale
  int threads = 4;
  std::string unknown;
  for (std::size_t i = 1; i < common.passthrough.size(); ++i) {
    char* arg = common.passthrough[i];
    const auto next_val = [&]() -> const char* {
      return i + 1 < common.passthrough.size() ? common.passthrough[++i] : nullptr;
    };
    if (std::strcmp(arg, "--compare") == 0) {
      compare = true;
    } else if (std::strcmp(arg, "--box") == 0) {
      if (const char* v = next_val()) box_side = std::atof(v);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (const char* v = next_val()) threads = std::atoi(v);
    } else if (unknown.empty()) {
      unknown = arg;
    }
  }
  if (compare) {
    return scalemd::run_comparison(box_side, threads, common);
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown argument '%s'\n", unknown.c_str());
    return 2;
  }
  scalemd::run_layers(common.bench);
  return 0;
}
