// Parallel-PME differential matrix: the slab-decomposed reciprocal solve in
// the message-driven runtime must be *bitwise* deterministic across PE
// counts, LB strategies, slab placements and execution backends (the slab
// count held fixed — it partitions the sums, so it is part of the numerics
// contract), and must agree with the sequential full-electrostatics engine
// up to summation order. The charged "waterbox_ions" preset (salty water,
// net-neutral with bare +-1 ions) drives every case.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "check/golden.hpp"
#include "core/parallel_sim.hpp"
#include "seq/engine.hpp"

namespace scalemd {
namespace {

Trajectory run_pme(int pes, BackendKind backend, int threads, LbStrategyKind lb,
                   int slabs, int dedicated_ranks = 0) {
  const GoldenSpec* spec = find_golden_spec("waterbox_ions");
  EXPECT_NE(spec, nullptr);
  ParallelGoldenOptions p;
  p.num_pes = pes;
  p.backend = backend;
  p.threads = threads;
  p.lb = lb;
  p.pme_slabs = slabs;
  p.pme_dedicated_ranks = dedicated_ranks;
  return record_parallel_trajectory(*spec, p);
}

void expect_bitwise(const Trajectory& got, const Trajectory& ref,
                    const std::string& what) {
  CompareOptions bitwise;
  bitwise.mode = CompareMode::kUlp;
  bitwise.max_ulps = 0;
  const CompareResult r = compare_trajectories(got, ref, bitwise);
  EXPECT_TRUE(r.match) << what << ": " << r.message;
  EXPECT_EQ(r.worst, 0.0) << what << ": worst ulp deviation at " << r.where;
}

// ---------------------------------------------------------------------------
// The matrix: {2, 4, 8} PEs x {none, greedy, greedy+refine} LB x
// {simulated, threaded} backend, slab count fixed at 4. Every leg must be
// bitwise identical to the 2-PE / no-LB / simulated reference.
// ---------------------------------------------------------------------------

struct PmeDiffCase {
  int pes;
  LbStrategyKind lb;
  BackendKind backend;
};

const char* lb_tag(LbStrategyKind k) {
  switch (k) {
    case LbStrategyKind::kGreedy:
      return "greedy";
    case LbStrategyKind::kGreedyRefine:
      return "refine";
    default:
      return "none";
  }
}

std::string pme_case_name(const testing::TestParamInfo<PmeDiffCase>& info) {
  return "pes" + std::to_string(info.param.pes) + "_" + lb_tag(info.param.lb) +
         (info.param.backend == BackendKind::kSimulated ? "_sim" : "_threads");
}

class PmeParallelDiffTest : public testing::TestWithParam<PmeDiffCase> {};

TEST_P(PmeParallelDiffTest, BitwiseIdenticalToReferenceLeg) {
  const PmeDiffCase& c = GetParam();
  const Trajectory ref =
      run_pme(2, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 4);
  const Trajectory got =
      run_pme(c.pes, c.backend, c.backend == BackendKind::kThreaded ? 4 : 0,
              c.lb, 4);
  expect_bitwise(got, ref, pme_case_name({c, 0}));
}

constexpr PmeDiffCase kPmeMatrix[] = {
    {2, LbStrategyKind::kNone, BackendKind::kSimulated},
    {2, LbStrategyKind::kGreedy, BackendKind::kSimulated},
    {2, LbStrategyKind::kGreedyRefine, BackendKind::kSimulated},
    {4, LbStrategyKind::kNone, BackendKind::kSimulated},
    {4, LbStrategyKind::kGreedy, BackendKind::kSimulated},
    {4, LbStrategyKind::kGreedyRefine, BackendKind::kSimulated},
    {8, LbStrategyKind::kNone, BackendKind::kSimulated},
    {8, LbStrategyKind::kGreedy, BackendKind::kSimulated},
    {8, LbStrategyKind::kGreedyRefine, BackendKind::kSimulated},
    {2, LbStrategyKind::kNone, BackendKind::kThreaded},
    {2, LbStrategyKind::kGreedy, BackendKind::kThreaded},
    {2, LbStrategyKind::kGreedyRefine, BackendKind::kThreaded},
    {4, LbStrategyKind::kNone, BackendKind::kThreaded},
    {4, LbStrategyKind::kGreedy, BackendKind::kThreaded},
    {4, LbStrategyKind::kGreedyRefine, BackendKind::kThreaded},
    {8, LbStrategyKind::kNone, BackendKind::kThreaded},
    {8, LbStrategyKind::kGreedy, BackendKind::kThreaded},
    {8, LbStrategyKind::kGreedyRefine, BackendKind::kThreaded},
};

INSTANTIATE_TEST_SUITE_P(PesLbBackendSweep, PmeParallelDiffTest,
                         testing::ValuesIn(kPmeMatrix), pme_case_name);

// ---------------------------------------------------------------------------
// Against the sequential full-electrostatics engine: the forward half of the
// slab pipeline (spread, FFTs, influence) is bitwise identical to the
// sequential Pme; only partitioned sums (energy partials, gather, exclusion
// corrections) and the runtime's canonical force fold differ from the
// sequential summation order. Deviations must stay at rounding scale.
// ---------------------------------------------------------------------------

TEST(PmeParallelVsSequential, MatchesWithinSummationOrderBounds) {
  const GoldenSpec* spec = find_golden_spec("waterbox_ions");
  ASSERT_NE(spec, nullptr);
  Trajectory seq = record_trajectory(*spec);
  ASSERT_FALSE(seq.frames.empty());
  // The parallel recorder has no step-0 frame (it cannot observe pre-cycle
  // state); compare the common tail.
  seq.frames.erase(seq.frames.begin());

  for (const int pes : {2, 4, 8}) {
    const Trajectory par =
        run_pme(pes, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 4);
    CompareOptions rel;  // kRelative, array-scale, tol 1e-8
    const CompareResult r = compare_trajectories(par, seq, rel);
    EXPECT_TRUE(r.match) << "pes " << pes << ": " << r.message;
    EXPECT_LT(r.worst, 1e-9) << "pes " << pes << ": worst deviation at "
                             << r.where;
  }
}

// ---------------------------------------------------------------------------
// Placement invariance beyond the LB sweep: dedicated PME ranks pin the
// slabs onto the tail PEs and exclude them from load balancing. A pure
// placement policy must not move a single bit.
// ---------------------------------------------------------------------------

TEST(PmeParallelDiffExtra, DedicatedRanksAreBitwiseNeutral) {
  const Trajectory spread =
      run_pme(4, BackendKind::kSimulated, 0, LbStrategyKind::kGreedyRefine, 4);
  const Trajectory pinned =
      run_pme(4, BackendKind::kSimulated, 0, LbStrategyKind::kGreedyRefine, 4,
              /*dedicated_ranks=*/1);
  expect_bitwise(pinned, spread, "dedicated ranks vs spread slabs");
}

// The forked-worker backend routes cross-worker PME traffic (deposits,
// both transpose directions, force returns) through the wire codec; the
// frames must reconstruct the exact bits the in-process backends exchange.
TEST(PmeParallelDiffExtra, ProcessBackendIsBitwiseIdentical) {
  const GoldenSpec* spec = find_golden_spec("waterbox_ions");
  ASSERT_NE(spec, nullptr);
  const Trajectory ref =
      run_pme(4, BackendKind::kSimulated, 0, LbStrategyKind::kGreedy, 4);
  ParallelGoldenOptions p;
  p.num_pes = 4;
  p.backend = BackendKind::kProcess;
  p.process_workers = 2;
  p.lb = LbStrategyKind::kGreedy;
  p.pme_slabs = 4;
  const Trajectory got = record_parallel_trajectory(*spec, p);
  expect_bitwise(got, ref, "process backend, 2 workers");
}

// A slab count that does not divide the grid or the PE count exercises the
// unbalanced plane/row partitions; it must still be PE-invariant.
TEST(PmeParallelDiffExtra, NonDividingSlabCountIsPeInvariant) {
  const Trajectory two =
      run_pme(2, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 3);
  const Trajectory eight =
      run_pme(8, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 3);
  expect_bitwise(eight, two, "slabs=3 across PE counts");
}

// Changing the slab count repartitions the sums: the trajectory is allowed
// to differ only at summation-order scale, and after a few steps it must
// still agree with the fixed-slab reference to the relative tolerance.
TEST(PmeParallelDiffExtra, SlabCountStaysWithinSummationOrderBounds) {
  const Trajectory four =
      run_pme(4, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 4);
  const Trajectory three =
      run_pme(4, BackendKind::kSimulated, 0, LbStrategyKind::kNone, 3);
  const CompareResult r = compare_trajectories(three, four, {});
  EXPECT_TRUE(r.match) << r.message;
}

// ---------------------------------------------------------------------------
// Net momentum. Mesh interpolation leaves a small net force in each share of
// the reciprocal forces; kept, it random-walks the total momentum of a long
// NVE run (the ion box's 25 s benchmark runs failed their momentum check
// after ~12k steps). Removed, Sum p stays at its starting value to rounding,
// so the bound below does not grow with the steps run.
// ---------------------------------------------------------------------------

struct Momentum {
  Vec3 net;          ///< Sum m v
  double magnitude;  ///< Sum |m v|
};

Momentum momentum_of(std::span<const Vec3> vel, std::span<const double> mass) {
  Momentum m;
  for (std::size_t i = 0; i < vel.size(); ++i) {
    m.net += vel[i] * mass[i];
    m.magnitude += norm(vel[i]) * mass[i];
  }
  return m;
}

void expect_momentum_kept(const Momentum& start, const Momentum& now,
                          const std::string& what) {
  EXPECT_LE(norm(now.net - start.net), 1e-9 * now.magnitude) << what;
}

TEST(PmeMomentumTest, LongNveRunKeepsNetMomentumOnEveryEngine) {
  const GoldenSpec* spec = find_golden_spec("waterbox_ions");
  ASSERT_NE(spec, nullptr);
  const Molecule mol = spec->make();
  std::vector<double> mass;
  for (const Atom& a : mol.atoms()) mass.push_back(a.mass);
  const Momentum start = momentum_of(mol.velocities(), mass);
  constexpr int kCycles = 12;
  constexpr int kCycleSteps = 50;

  SequentialEngine seq(mol, spec->engine);
  for (int c = 1; c <= kCycles; ++c) {
    for (int s = 0; s < kCycleSteps; ++s) seq.step();
    expect_momentum_kept(start, momentum_of(seq.velocities(), mass),
                         "seq, step " + std::to_string(c * kCycleSteps));
  }

  for (BackendKind backend : {BackendKind::kSimulated, BackendKind::kThreaded}) {
    const Workload wl(mol, MachineModel::asci_red(), spec->engine.nonbonded);
    ParallelOptions opts;
    opts.num_pes = 4;
    opts.backend = backend;
    opts.threads = 2;
    opts.numeric = true;
    opts.dt_fs = spec->engine.dt_fs;
    ParallelSim sim(wl, opts);
    for (int c = 1; c <= kCycles; ++c) {
      sim.run_cycle(kCycleSteps);
      expect_momentum_kept(start, momentum_of(sim.gather_velocities(), mass),
                           std::string(backend_name(backend)) + ", step " +
                               std::to_string(c * kCycleSteps));
    }
  }
}

}  // namespace
}  // namespace scalemd
