// Process-backend suite: heartbeat failure detector, the forked-worker
// backend standalone (wire routing, accounting, chaos kill, dead-PE
// discards), and the ParallelSim-level oracles — clean runs bitwise equal
// to the DES backend across worker counts, and a SIGKILLed worker mid-run
// recovering through the on-disk checkpoint to the fault-free trajectory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/golden.hpp"
#include "check/invariants.hpp"
#include "core/parallel_sim.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/scenario.hpp"
#include "gen/water_box.hpp"
#include "rts/process_backend.hpp"
#include "rts/wire.hpp"

namespace scalemd {
namespace {

// ---------------------------------------------------------------------------
// HeartbeatDetector (pure state machine)
// ---------------------------------------------------------------------------

TEST(HeartbeatDetector, EscalatesAliveSuspectDead) {
  HeartbeatDetector det(2, /*suspect_after=*/2, /*dead_after=*/4);
  using State = HeartbeatDetector::State;
  EXPECT_EQ(det.state(0), State::kAlive);
  EXPECT_EQ(det.on_tick(0), State::kAlive);    // 1 miss
  EXPECT_EQ(det.on_tick(0), State::kSuspect);  // 2 misses
  EXPECT_EQ(det.on_tick(0), State::kSuspect);  // 3 misses
  EXPECT_EQ(det.on_tick(0), State::kDead);     // 4 misses
  // Peers are independent.
  EXPECT_EQ(det.state(1), State::kAlive);
  EXPECT_EQ(det.misses(1), 0);
}

TEST(HeartbeatDetector, PongRecoversSuspect) {
  HeartbeatDetector det(1, 1, 3);
  using State = HeartbeatDetector::State;
  EXPECT_EQ(det.on_tick(0), State::kSuspect);
  EXPECT_EQ(det.on_tick(0), State::kSuspect);
  det.on_pong(0);
  EXPECT_EQ(det.state(0), State::kAlive);
  EXPECT_EQ(det.misses(0), 0);
  // The clock restarts from zero after recovery.
  EXPECT_EQ(det.on_tick(0), State::kSuspect);
}

TEST(HeartbeatDetector, DeadIsTerminal) {
  HeartbeatDetector det(1, 1, 2);
  using State = HeartbeatDetector::State;
  det.on_tick(0);
  EXPECT_EQ(det.on_tick(0), State::kDead);
  det.on_pong(0);  // a late pong must not resurrect a killed worker
  EXPECT_EQ(det.state(0), State::kDead);
  EXPECT_EQ(det.on_tick(0), State::kDead);
}

// ---------------------------------------------------------------------------
// ProcessBackend standalone
// ---------------------------------------------------------------------------

// Per-PE hit counters shared with the forked workers: fork copies them, the
// children mutate their copies, and the flush/merge hooks bring the owned
// slices back to the parent.
std::vector<std::uint64_t> g_hits;

void install_hit_hooks(ProcessBackend& b) {
  b.set_state_hooks(
      [&b](int worker, int workers) {
        wire::Encoder e;
        for (int pe = worker; pe < b.num_pes(); pe += workers) {
          e.u64(g_hits[static_cast<std::size_t>(pe)]);
        }
        return e.take();
      },
      [&b](int worker, const std::vector<std::uint8_t>& blob) {
        wire::Decoder d(blob);
        for (int pe = worker; pe < b.num_pes(); pe += b.workers()) {
          std::uint64_t v = 0;
          ASSERT_TRUE(d.u64(v));
          g_hits[static_cast<std::size_t>(pe)] += v;
        }
        ASSERT_TRUE(d.done());
      });
}

TEST(ProcessBackend, LocalTasksExecuteAndAccountingConserves) {
  ProcessOptions po;
  po.workers = 2;
  ProcessBackend b(4, MachineModel::asci_red(), po);
  const EntryId e = b.entries().add("test.hit", WorkCategory::kOther);
  g_hits.assign(4, 0);
  install_hit_hooks(b);
  for (int pe = 0; pe < 4; ++pe) {
    TaskMsg msg;
    msg.entry = e;
    msg.fn = [](ExecContext& c) { ++g_hits[static_cast<std::size_t>(c.pe())]; };
    b.inject(pe, std::move(msg));
  }
  b.run();
  EXPECT_FALSE(b.last_run_failed());
  for (int pe = 0; pe < 4; ++pe) EXPECT_EQ(g_hits[static_cast<std::size_t>(pe)], 1u);
  EXPECT_EQ(b.tasks_executed(), 4u);
  const MessageAccounting& a = b.accounting();
  EXPECT_EQ(a.offered, 4u);
  EXPECT_EQ(a.executed, 4u);
  EXPECT_TRUE(a.conserved());
  EXPECT_TRUE(b.idle());
  EXPECT_TRUE(b.failed_pes().empty());
  EXPECT_EQ(b.frames_routed(), 0u);  // all sends were worker-local
}

TEST(ProcessBackend, CrossWorkerSendSerializesThroughDecoder) {
  ProcessOptions po;
  po.workers = 2;
  ProcessBackend b(2, MachineModel::asci_red(), po);
  const EntryId ping = b.entries().add("test.ping", WorkCategory::kComm);
  g_hits.assign(2, 0);
  install_hit_hooks(b);
  // The decoder rebuilds the closure from the wire payload at the receiving
  // worker; the payload carries how much to add.
  b.register_decoder(ping, [](const WirePayload& w) -> TaskFn {
    std::int64_t amount = 0;
    wire::Reader r(w);
    r(amount);
    return [amount](ExecContext& c) {
      g_hits[static_cast<std::size_t>(c.pe())] +=
          static_cast<std::uint64_t>(amount);
    };
  });
  TaskMsg boot;
  boot.entry = ping;
  boot.fn = [ping](ExecContext& c) {
    ++g_hits[static_cast<std::size_t>(c.pe())];
    TaskMsg m;
    m.entry = ping;
    m.bytes = 8;
    wire::Writer w;
    w(std::int64_t{42});
    m.wire = w.take();
    c.send(1, std::move(m));  // pe 1 lives in the other worker
  };
  b.inject(0, std::move(boot));
  b.run();
  EXPECT_FALSE(b.last_run_failed());
  EXPECT_EQ(g_hits[0], 1u);
  EXPECT_EQ(g_hits[1], 42u);
  EXPECT_EQ(b.tasks_executed(), 2u);
  EXPECT_EQ(b.frames_routed(), 1u);
  EXPECT_TRUE(b.accounting().conserved());
}

TEST(ProcessBackend, SigkilledWorkerFailsEpochAndMarksItsPes) {
  ProcessOptions po;
  po.workers = 2;
  po.heartbeat_ms = 50;
  po.kill_worker = 1;
  po.kill_after_frames = 0;  // die right out of the gate
  ProcessBackend b(4, MachineModel::asci_red(), po);
  const EntryId e = b.entries().add("test.hit", WorkCategory::kOther);
  g_hits.assign(4, 0);
  install_hit_hooks(b);
  auto inject_all = [&](int expect_discarded) {
    int discarded = 0;
    for (int pe = 0; pe < 4; ++pe) {
      if (b.pe_failed(pe)) ++discarded;
      TaskMsg msg;
      msg.entry = e;
      msg.fn = [](ExecContext& c) { ++g_hits[static_cast<std::size_t>(c.pe())]; };
      b.inject(pe, std::move(msg));
    }
    EXPECT_EQ(discarded, expect_discarded);
  };

  inject_all(0);
  b.run();
  EXPECT_TRUE(b.last_run_failed());
  EXPECT_EQ(b.failed_pes(), (std::vector<int>{1, 3}));
  // Nothing from the failed epoch merges: the epoch's messages are
  // discarded against the dead PEs and the identity still balances.
  EXPECT_EQ(b.tasks_executed(), 0u);
  EXPECT_TRUE(b.accounting().conserved());

  // The chaos trigger is one-shot: the next epoch (the "recovery replay")
  // runs clean on the surviving PEs, with dead-PE injects discarded.
  inject_all(2);
  b.run();
  EXPECT_FALSE(b.last_run_failed());
  EXPECT_EQ(g_hits[0], 1u);
  EXPECT_EQ(g_hits[2], 1u);
  EXPECT_EQ(g_hits[1], 0u);
  EXPECT_EQ(g_hits[3], 0u);
  EXPECT_EQ(b.tasks_executed(), 2u);
  EXPECT_TRUE(b.accounting().conserved());
}

TEST(ProcessBackend, HeartbeatDetectorKillsHungWorker) {
  ProcessOptions po;
  po.workers = 2;
  po.heartbeat_ms = 40;
  po.suspect_after = 1;
  po.dead_after = 3;
  ProcessBackend b(2, MachineModel::asci_red(), po);
  const EntryId e = b.entries().add("test.hang", WorkCategory::kOther);
  TaskMsg hang;
  hang.entry = e;
  hang.fn = [](ExecContext&) {
    // A worker wedged inside a task never answers pings; the supervisor's
    // failure detector must escalate it to dead and SIGKILL it.
    for (;;) pause();
  };
  b.inject(1, std::move(hang));
  TaskMsg ok;
  ok.entry = e;
  ok.fn = [](ExecContext&) {};
  b.inject(0, std::move(ok));
  b.run();
  EXPECT_TRUE(b.last_run_failed());
  EXPECT_TRUE(b.pe_failed(1));
  EXPECT_FALSE(b.pe_failed(0));
  EXPECT_TRUE(b.accounting().conserved());
}

// ---------------------------------------------------------------------------
// ParallelSim differential: process backend vs DES, bitwise
// ---------------------------------------------------------------------------

Trajectory run_parallel(const char* spec_name, const ParallelGoldenOptions& p,
                        InvariantChecker* checker = nullptr) {
  const GoldenSpec* spec = find_golden_spec(spec_name);
  EXPECT_NE(spec, nullptr);
  return record_parallel_trajectory(*spec, p, checker);
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

std::string temp_checkpoint_path(const char* tag) {
  return testing::TempDir() + "scalemd_ckpt_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

struct ProcDiffCase {
  int pes;
  int workers;
};

std::string proc_case_name(const testing::TestParamInfo<ProcDiffCase>& info) {
  return "pes" + std::to_string(info.param.pes) + "_w" +
         std::to_string(info.param.workers);
}

class ProcessDiffTest : public testing::TestWithParam<ProcDiffCase> {};

TEST_P(ProcessDiffTest, ProcessMatchesDesBitwise) {
  const ProcDiffCase& c = GetParam();
  ParallelGoldenOptions des;
  des.num_pes = c.pes;
  des.backend = BackendKind::kSimulated;
  const Trajectory ref = run_parallel("waterbox", des);

  ParallelGoldenOptions proc;
  proc.num_pes = c.pes;
  proc.backend = BackendKind::kProcess;
  proc.process_workers = c.workers;
  const Trajectory got = run_parallel("waterbox", proc);
  expect_bitwise(got, ref, "process vs DES");
}

constexpr ProcDiffCase kProcMatrix[] = {
    {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 3},
};

INSTANTIATE_TEST_SUITE_P(PesWorkersMatrix, ProcessDiffTest,
                         testing::ValuesIn(kProcMatrix), proc_case_name);

// Load balancing mid-trajectory (object migration, changed proxy sets) must
// not perturb the process backend either, and the physics invariants stay
// clean throughout.
TEST(ProcessDiffTest, WithLoadBalanceMatchesDesBitwise) {
  ParallelGoldenOptions des;
  des.num_pes = 4;
  des.backend = BackendKind::kSimulated;
  des.lb = LbStrategyKind::kGreedyRefine;
  const Trajectory ref = run_parallel("waterbox", des);

  InvariantOptions iopts;
  iopts.check_energy = false;  // sparse cycle observation of a short run
  ViolationLog log;
  InvariantChecker checker(iopts, &log);
  ParallelGoldenOptions proc;
  proc.num_pes = 4;
  proc.backend = BackendKind::kProcess;
  proc.process_workers = 2;
  proc.lb = LbStrategyKind::kGreedyRefine;
  const Trajectory got = run_parallel("waterbox", proc, &checker);
  EXPECT_TRUE(checker.ok()) << log.render();
  expect_bitwise(got, ref, "process+LB vs DES");
}

// The chain preset adds bonded terms, exclusions and 1-4 pairs (different
// compute kinds crossing the worker boundary).
TEST(ProcessDiffTest, ChainMatchesDesBitwise) {
  ParallelGoldenOptions des;
  des.num_pes = 4;
  des.backend = BackendKind::kSimulated;
  const Trajectory ref = run_parallel("chain", des);
  ParallelGoldenOptions proc;
  proc.num_pes = 4;
  proc.backend = BackendKind::kProcess;
  proc.process_workers = 2;
  const Trajectory got = run_parallel("chain", proc);
  expect_bitwise(got, ref, "chain process vs DES");
}

// On the default kernel the runtime keeps each patch's atoms as an SoA tile,
// regathered every force round where the coordinates land: on the home in
// publish_coords, and in the coords decoder of a worker the patch's
// coordinates reach over the wire. One run crosses every point where a stale
// tile would show — atoms migrating between patches, greedy LB moving
// computes, an export_state/import_state round trip into a fresh sim, and
// forked workers — and must match the DES bit for bit on every backend.
TEST(ProcessDiffTest, DefaultKernelTilesSurviveMigrationLbAndStateRoundTrip) {
  Molecule mol = make_water_box({20.0, 20.0, 20.0}, /*seed=*/9);
  mol.assign_velocities(300.0, /*seed=*/5);
  mol.suggested_patch_size = 7.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  ASSERT_EQ(nb.kernel, NonbondedKernel::kTiled);
  const Workload wl(mol, MachineModel::asci_red(), nb);
  nb.kernel = NonbondedKernel::kScalar;
  const Workload scalar_wl(mol, MachineModel::asci_red(), nb);

  struct Result {
    std::vector<double> potential;
    std::vector<Vec3> pos;
    bool lb_moved = false;
  };
  const auto run = [](BackendKind backend, const Workload& workload) {
    ParallelOptions o;
    o.num_pes = 4;
    o.numeric = true;
    o.backend = backend;
    o.threads = 2;
    o.process.workers = 2;
    o.lb.kind = LbStrategyKind::kGreedy;
    Result r;
    auto sim = std::make_unique<ParallelSim>(workload, o);
    sim->run_cycle(3);
    const std::vector<int> placed = sim->compute_pe();
    sim->load_balance();
    r.lb_moved = sim->compute_pe() != placed;
    sim->run_cycle(3);
    const std::vector<std::uint8_t> blob = sim->export_state();
    sim = std::make_unique<ParallelSim>(workload, o);
    sim->import_state(blob);
    sim->run_cycle(3);
    EXPECT_TRUE(sim->last_cycle_complete()) << backend_name(backend);
    for (int s = 0; s <= sim->total_steps(); ++s) {
      r.potential.push_back(sim->potential_at_step(s));
    }
    r.pos = sim->gather_positions();
    return r;
  };

  const Result des = run(BackendKind::kSimulated, wl);
  EXPECT_TRUE(des.lb_moved);
  // Atoms really changed patches (migrate_atoms ran with movers).
  std::vector<int> home_patch(des.pos.size());
  for (std::size_t p = 0; p < wl.decomp.patch_atoms().size(); ++p) {
    for (int a : wl.decomp.patch_atoms()[p]) {
      home_patch[static_cast<std::size_t>(a)] = static_cast<int>(p);
    }
  }
  int migrated = 0;
  for (std::size_t a = 0; a < des.pos.size(); ++a) {
    migrated += wl.decomp.grid().cell_of(des.pos[a]) != home_patch[a];
  }
  EXPECT_GT(migrated, 0);

  // Every backend sharing one stale tile would still agree bitwise; the
  // scalar reference, which keeps no tiles, agrees to summation-order
  // rounding.
  const Result ref = run(BackendKind::kSimulated, scalar_wl);
  for (std::size_t a = 0; a < des.pos.size(); ++a) {
    EXPECT_LT(norm(des.pos[a] - ref.pos[a]), 1e-9) << "atom " << a;
  }

  for (BackendKind backend : {BackendKind::kThreaded, BackendKind::kProcess}) {
    const Result got = run(backend, wl);
    ASSERT_EQ(got.potential.size(), des.potential.size());
    for (std::size_t s = 0; s < des.potential.size(); ++s) {
      EXPECT_EQ(std::memcmp(&got.potential[s], &des.potential[s], sizeof(double)), 0)
          << backend_name(backend) << " step " << s << ": " << got.potential[s]
          << " vs DES " << des.potential[s];
    }
    ASSERT_EQ(got.pos.size(), des.pos.size());
    EXPECT_EQ(std::memcmp(got.pos.data(), des.pos.data(),
                          des.pos.size() * sizeof(Vec3)),
              0)
        << backend_name(backend) << " positions differ from the DES";
  }
}

// ---------------------------------------------------------------------------
// Real crash recovery: SIGKILL a worker mid-run, recover from the on-disk
// checkpoint, and land on the fault-free trajectory bitwise.
// ---------------------------------------------------------------------------

TEST(ProcessChaos, KillRecoversToFaultFreeTrajectoryBitwise) {
  ParallelGoldenOptions clean;
  clean.num_pes = 4;
  clean.backend = BackendKind::kSimulated;
  const Trajectory ref = run_parallel("waterbox", clean);

  ParallelGoldenOptions chaos;
  chaos.num_pes = 4;
  chaos.backend = BackendKind::kProcess;
  chaos.process_workers = 2;
  chaos.checkpoint_every = 1;
  chaos.checkpoint_path = temp_checkpoint_path("kill");
  chaos.kill_worker = 1;
  chaos.kill_after_frames = 10;  // mid-cycle, after real traffic has flowed
  const Trajectory got = run_parallel("waterbox", chaos);
  expect_bitwise(got, ref, "killed+recovered process vs fault-free DES");
  std::remove(chaos.checkpoint_path.c_str());
}

// The kill must actually fire and the runtime must actually restart — guard
// against the chaos trigger silently never tripping (which would make the
// recovery tests vacuous).
TEST(ProcessChaos, KillTriggersRestartAndEvacuation) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  Molecule mol = spec->make();
  ParallelOptions opts;
  opts.num_pes = 4;
  opts.backend = BackendKind::kProcess;
  opts.process.workers = 2;
  opts.process.kill_worker = 1;
  opts.process.kill_after_frames = 10;
  opts.checkpoint_every = 1;
  opts.checkpoint_path = temp_checkpoint_path("restart");
  opts.numeric = true;
  opts.dt_fs = spec->engine.dt_fs;
  Workload wl(mol, opts.machine, spec->engine.nonbonded);
  ParallelSim sim(wl, opts);
  sim.run_cycle(spec->record_every);
  EXPECT_GE(sim.restarts(), 1);
  EXPECT_GE(sim.checkpoints_taken(), 1);
  EXPECT_TRUE(sim.last_cycle_complete());
  EXPECT_EQ(sim.backend().failed_pes(), (std::vector<int>{1, 3}));
  // The dead worker's patches were evacuated onto survivors.
  for (int home : sim.patch_home()) {
    EXPECT_TRUE(home == 0 || home == 2) << "patch still homed on dead PE " << home;
  }
  // A later cycle on the shrunken machine still completes.
  sim.run_cycle(spec->record_every);
  EXPECT_TRUE(sim.last_cycle_complete());
  std::remove(opts.checkpoint_path.c_str());
}

TEST(ProcessChaos, KillRecoveryIsDeterministicAcrossRuns) {
  ParallelGoldenOptions chaos;
  chaos.num_pes = 4;
  chaos.backend = BackendKind::kProcess;
  chaos.process_workers = 2;
  chaos.checkpoint_every = 1;
  chaos.kill_worker = 1;
  chaos.kill_after_frames = 10;
  chaos.checkpoint_path = temp_checkpoint_path("det_a");
  const Trajectory a = run_parallel("waterbox", chaos);
  std::remove(chaos.checkpoint_path.c_str());
  chaos.checkpoint_path = temp_checkpoint_path("det_b");
  const Trajectory b = run_parallel("waterbox", chaos);
  std::remove(chaos.checkpoint_path.c_str());
  expect_bitwise(b, a, "chaos run B vs chaos run A");
}

// Fault-free runs with checkpointing armed exercise the disk round-trip
// (every cycle snapshots through the wire layer) without ever restoring —
// and must not disturb the trajectory.
TEST(ProcessChaos, CheckpointingAloneIsInvisible) {
  ParallelGoldenOptions plain;
  plain.num_pes = 4;
  plain.backend = BackendKind::kProcess;
  plain.process_workers = 2;
  const Trajectory ref = run_parallel("waterbox", plain);

  ParallelGoldenOptions ckpt = plain;
  ckpt.checkpoint_every = 1;
  ckpt.checkpoint_path = temp_checkpoint_path("plain");
  const Trajectory got = run_parallel("waterbox", ckpt);
  std::remove(ckpt.checkpoint_path.c_str());
  expect_bitwise(got, ref, "checkpointing process vs plain process");
}

// The fuzzer's process leg (ScenarioSpec::process_workers) runs here rather
// than in the unit suite so all fork-heavy coverage sits under the `process`
// ctest label. A clean spec crossing DES, threads and forked workers must
// score ok on every oracle.
TEST(ProcessFuzzLeg, CleanSpecWithProcessWorkersPasses) {
  ScenarioSpec spec;
  spec.seed = 42;
  spec.box = 12.0;
  spec.num_pes = 4;
  spec.threads = 2;
  spec.process_workers = 2;
  spec.cycles = 2;
  spec.steps = 1;
  ASSERT_EQ(validate_scenario(spec), "");
  const FuzzVerdict v = evaluate_scenario(spec);
  EXPECT_TRUE(v.ok) << v.oracle << "\n" << v.detail;
}

// Case 195 of the seed-1 campaign, whose clashes push forces past 1e12
// kcal/mol/A (FixedForceTest.ClashSystemMatchesAcrossBackendsBitwise pins
// that and the DES/threads leg): its forked-worker leg must match the DES
// bitwise too, with the 128-bit accumulators crossing the wire.
TEST(ProcessFuzzLeg, ClashSpecPasses) {
  ScenarioSpec spec = generate_scenario(1, 195);
  spec.process_workers = 2;
  ASSERT_EQ(validate_scenario(spec), "");
  const FuzzVerdict v = evaluate_scenario(spec);
  EXPECT_TRUE(v.ok) << v.oracle << "\n" << v.detail;
}

// A force out of the fixed-point range is recorded on a worker's PE and
// carried home in its state flush; run_cycle throws in the parent.
TEST(ProcessForceRange, NanCoordinateThrowsForceRangeError) {
  Molecule mol = make_water_box({16.0, 16.0, 16.0}, /*seed=*/11);
  mol.suggested_patch_size = 8.0;
  NonbondedOptions nb;
  nb.cutoff = 6.5;
  nb.switch_dist = 5.5;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  mol.positions()[4].y = std::nan("");  // the sim copies it at construction
  ParallelOptions opts;
  opts.num_pes = 4;
  opts.numeric = true;
  opts.backend = BackendKind::kProcess;
  opts.process.workers = 2;
  ParallelSim sim(wl, opts);
  EXPECT_THROW(sim.run_cycle(2), ForceRangeError);
}

// The only worker dies, so every PE is marked failed: recovery has nothing
// to evacuate onto and must stop with the cycle incomplete (release builds
// used to crash here).
TEST(ProcessChaos, LastWorkerKilledLeavesTheCycleIncomplete) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  Molecule mol = spec->make();
  ParallelOptions opts;
  opts.num_pes = 4;
  opts.backend = BackendKind::kProcess;
  opts.process.workers = 1;
  opts.process.kill_worker = 0;
  opts.process.kill_after_frames = 0;
  opts.checkpoint_every = 1;
  opts.checkpoint_path = temp_checkpoint_path("last_worker");
  opts.numeric = true;
  opts.dt_fs = spec->engine.dt_fs;
  Workload wl(mol, opts.machine, spec->engine.nonbonded);
  ParallelSim sim(wl, opts);
  sim.run_cycle(spec->record_every);
  EXPECT_FALSE(sim.last_cycle_complete());
  EXPECT_EQ(sim.backend().failed_pes(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.restarts(), 0);
  std::remove(opts.checkpoint_path.c_str());
}

}  // namespace
}  // namespace scalemd
