// Parameterized invariants of the discrete-event machine: causality,
// conservation of tasks, determinism, and link-serialization monotonicity,
// over randomized workloads.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <vector>

#include "core/parallel_sim.hpp"
#include "des/machine.hpp"
#include "des/simulator.hpp"
#include "gen/presets.hpp"
#include "trace/event_log.hpp"
#include "util/random.hpp"

namespace scalemd {
namespace {

struct DesCase {
  int pes;
  int seeds;  // rng seed; name kept short for the param printer
};

class DesProperty : public ::testing::TestWithParam<DesCase> {};

/// Random workload: `n` root tasks, each possibly spawning children on
/// random PEs up to depth 3. Records every task, message and fault. A
/// non-empty `plan` arms the fault engine first; `extra` injects more
/// bootstrap messages before the run.
struct RandomRun {
  struct Collector : TraceSink {
    std::vector<TaskRecord> tasks;
    std::vector<MsgRecord> msgs;
    std::vector<FaultRecord> faults;
    const Simulator* sim = nullptr;
    std::uint64_t stranded = 0;  ///< ready messages lost with failed PEs
    void on_task(const TaskRecord& r) override { tasks.push_back(r); }
    void on_message(const MsgRecord& r) override { msgs.push_back(r); }
    void on_fault(const FaultRecord& r) override {
      faults.push_back(r);
      // The failure has just drained its PE's ready queue into the count.
      if (r.kind == FaultKind::kPeFailure) stranded = sim->accounting().discarded_dead_pe;
    }
  };

  explicit RandomRun(const DesCase& c, const FaultPlan& plan = {},
                     const std::function<void(Simulator&)>& extra = {})
      : sim(c.pes, MachineModel::asci_red()) {
    collector.sim = &sim;
    sim.set_sink(&collector);
    if (!plan.empty()) sim.set_fault_plan(plan);
    if (extra) extra(sim);
    Rng rng(static_cast<std::uint64_t>(c.seeds));
    // Deterministic spawn decisions captured up front (handlers must not
    // consume shared RNG in execution order for this test's purposes —
    // determinism of the schedule is what we're testing).
    const int roots = 20;
    spawn_seed = rng.next_u64();
    for (int i = 0; i < roots; ++i) {
      const int pe = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(c.pes)));
      const double t = rng.uniform(0.0, 1e-3);
      sim.inject(pe, make_task(2, i), t);
    }
    sim.run();
  }

  TaskMsg make_task(int depth, int id) {
    TaskMsg msg;
    msg.priority = id % 3;
    msg.bytes = 64 + static_cast<std::size_t>(id % 5) * 512;
    msg.fn = [this, depth, id](ExecContext& ctx) {
      ctx.charge(1e-5 + 1e-6 * (id % 7));
      if (depth > 0) {
        // Deterministic pseudo-random fanout derived from (depth, id).
        const std::uint64_t h = spawn_seed ^ (static_cast<std::uint64_t>(depth) << 32) ^
                                static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull;
        const int fanout = static_cast<int>(h % 3);
        for (int k = 0; k < fanout; ++k) {
          const int dest = static_cast<int>((h >> (8 * (k + 1))) %
                                            static_cast<std::uint64_t>(sim.num_pes()));
          ctx.send(dest, make_task(depth - 1, id * 3 + k + 1));
        }
      }
    };
    return msg;
  }

  Simulator sim;
  Collector collector;
  std::uint64_t spawn_seed = 0;
};

TEST_P(DesProperty, TasksNeverOverlapOnAPe) {
  RandomRun run(GetParam());
  // Sort by (pe, start) and check back-to-back execution windows.
  auto tasks = run.collector.tasks;
  std::sort(tasks.begin(), tasks.end(), [](const TaskRecord& a, const TaskRecord& b) {
    return a.pe != b.pe ? a.pe < b.pe : a.start < b.start;
  });
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    if (tasks[i].pe != tasks[i - 1].pe) continue;
    EXPECT_GE(tasks[i].start, tasks[i - 1].start + tasks[i - 1].duration - 1e-12)
        << "overlap on pe " << tasks[i].pe;
  }
}

TEST_P(DesProperty, MessagesRespectCausality) {
  RandomRun run(GetParam());
  for (const MsgRecord& m : run.collector.msgs) {
    EXPECT_GE(m.recv_time, m.send_time - 1e-12);
  }
}

TEST_P(DesProperty, EveryMessageBecomesExactlyOneTask) {
  RandomRun run(GetParam());
  EXPECT_EQ(run.collector.tasks.size(), run.collector.msgs.size());
  EXPECT_EQ(run.sim.tasks_executed(), run.collector.tasks.size());
  EXPECT_TRUE(run.sim.idle());
}

TEST_P(DesProperty, DeterministicAcrossRuns) {
  RandomRun a(GetParam());
  RandomRun b(GetParam());
  ASSERT_EQ(a.collector.tasks.size(), b.collector.tasks.size());
  for (std::size_t i = 0; i < a.collector.tasks.size(); ++i) {
    EXPECT_EQ(a.collector.tasks[i].pe, b.collector.tasks[i].pe);
    EXPECT_DOUBLE_EQ(a.collector.tasks[i].start, b.collector.tasks[i].start);
    EXPECT_DOUBLE_EQ(a.collector.tasks[i].duration, b.collector.tasks[i].duration);
  }
  EXPECT_DOUBLE_EQ(a.sim.time(), b.sim.time());
}

TEST_P(DesProperty, BusyTimeNeverExceedsSpan) {
  RandomRun run(GetParam());
  for (double busy : run.sim.busy_times()) {
    EXPECT_LE(busy, run.sim.time() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, DesProperty,
                         ::testing::Values(DesCase{1, 1}, DesCase{2, 2},
                                           DesCase{4, 3}, DesCase{8, 4},
                                           DesCase{32, 5}, DesCase{64, 6}));

/// FNV-1a over the bits of every value added.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
};

TEST(DesScheduleTest, ScheduleMatchesPinnedHash) {
  // Pins the DES schedule bit for bit: a change to the event order (time,
  // arrivals before dispatch, seq) or to the ready order (priority, FIFO
  // seq) moves the hash. The workload adds message drops, duplicates and
  // delays, a slowdown, a failure that strands queued messages and then
  // receives more, equal-time arrivals on an idle PE, and zero-charge local
  // sends and timers. Only IEEE + and * and Rng draws feed the hash, so the
  // constant does not depend on libm.
  BitHash h;
  for (const DesCase& c : {DesCase{2, 2}, DesCase{8, 4}, DesCase{32, 5}}) {
    const int doomed = c.pes - 1;
    FaultPlan plan;
    plan.seed = 17 + static_cast<std::uint64_t>(c.seeds);
    plan.drop_prob = 0.1;
    plan.dup_prob = 0.15;
    plan.delay_prob = 0.2;
    plan.delay_max = 2e-4;
    plan.slowdowns.push_back({.pe = 0, .factor = 2.5, .from_time = 5e-4});
    plan.failures.push_back({.pe = doomed, .at_time = 4.25e-4});
    const auto extra = [doomed](Simulator& sim) {
      // A burst queued on the doomed PE just before it fails. Distinct sizes
      // make the order of equal-time arrivals visible in the records.
      for (int k = 0; k < 6; ++k) {
        sim.inject(doomed,
                   {.object = 100u + static_cast<std::uint64_t>(k), .priority = k % 2,
                    .bytes = 64u + 8u * static_cast<std::size_t>(k),
                    .fn = [](ExecContext& ctx) { ctx.charge(1e-5); }},
                   4e-4);
      }
      // Equal-time arrivals on an idle PE. Each charges nothing and posts an
      // urgent zero-delay timer; the odd ones charge nothing at all, so the
      // timer arrives exactly when the PE's next dispatch is due and runs
      // next only if arrivals go first. The even ones also send to their
      // own PE.
      for (int k = 0; k < 4; ++k) {
        const std::uint64_t id = 200u + static_cast<std::uint64_t>(k);
        sim.inject(0,
                   {.object = id, .priority = (2 * k) % 3,
                    .bytes = 64u + 8u * static_cast<std::size_t>(k),
                    .fn = [id](ExecContext& ctx) {
                      ctx.post({.object = id + 10, .priority = -1,
                                .fn = [](ExecContext&) {}},
                               0.0);
                      if (id % 2 == 0) {
                        ctx.send(ctx.pe(), {.object = id + 20, .fn = [](ExecContext&) {}});
                      }
                    }},
                   5e-2);
      }
    };
    RandomRun run(c, plan, extra);
    const MessageAccounting& a = run.sim.accounting();
    // The case must reach the paths it pins.
    EXPECT_TRUE(a.conserved());
    EXPECT_TRUE(run.sim.idle());
    EXPECT_GT(a.dropped_fault, 0u) << c.pes << " PEs";
    EXPECT_GT(a.duplicated, 0u) << c.pes << " PEs";
    EXPECT_GT(run.sim.fault_stats().messages_delayed, 0u) << c.pes << " PEs";
    EXPECT_GT(run.collector.stranded, 0u) << c.pes << " PEs";
    EXPECT_GT(a.discarded_dead_pe, run.collector.stranded) << c.pes << " PEs";

    for (const TaskRecord& r : run.collector.tasks) {
      h.add(r.pe);
      h.add(r.entry);
      h.add(r.object);
      for (double v : {r.start, r.duration, r.recv_cost, r.pack_cost, r.send_cost}) h.add(v);
    }
    for (const MsgRecord& r : run.collector.msgs) {
      h.add(r.src_pe);
      h.add(r.dst_pe);
      h.add(r.entry);
      h.add(static_cast<std::uint64_t>(r.bytes));
      h.add(r.send_time);
      h.add(r.recv_time);
    }
    for (const FaultRecord& r : run.collector.faults) {
      h.add(static_cast<int>(r.kind));
      h.add(r.pe);
      h.add(r.src_pe);
      h.add(r.time);
      h.add(r.magnitude);
    }
    for (std::uint64_t v : {a.offered, a.duplicated, a.dropped_fault, a.discarded_dead_pe,
                            a.executed, a.pending_network, a.pending_ready}) {
      h.add(v);
    }
    for (double busy : run.sim.busy_times()) h.add(busy);
    h.add(run.sim.time());
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(h.h));
  EXPECT_EQ(h.h, 0x105d0e5ed8a0459full) << "schedule hash " << hex;
}

TEST(DesDeterminismTest, ParallelSimTraceAndLbAssignmentAreBitwiseIdentical) {
  // The whole parallel stack — patch placement, multicast, task-time noise
  // (fixed-seed RNG), reductions, measurement-based LB — must replay
  // bit-for-bit from the same configuration: two runs, identical event
  // traces and identical final object assignments.
  Molecule m = small_solvated_chain(900, 43);
  m.suggested_patch_size = 8.0;
  const Workload wl(m, MachineModel::asci_red(), {});

  auto run_once = [&](EventLog& log, std::vector<int>& compute_pe,
                      std::vector<int>& patch_home) {
    ParallelOptions opts;
    opts.num_pes = 8;
    ParallelSim sim(wl, opts);
    sim.attach_sink(&log);
    sim.run_cycle(3);
    sim.load_balance();
    sim.run_cycle(3);
    sim.detach_sink(&log);
    compute_pe = sim.compute_pe();
    patch_home = sim.patch_home();
  };

  EventLog la, lb;
  std::vector<int> ca, cb, pa, pb;
  run_once(la, ca, pa);
  run_once(lb, cb, pb);

  EXPECT_EQ(ca, cb) << "load balancer produced different compute placements";
  EXPECT_EQ(pa, pb);

  ASSERT_EQ(la.tasks().size(), lb.tasks().size());
  ASSERT_GT(la.tasks().size(), 0u);
  for (std::size_t i = 0; i < la.tasks().size(); ++i) {
    const TaskRecord& a = la.tasks()[i];
    const TaskRecord& b = lb.tasks()[i];
    EXPECT_EQ(a.pe, b.pe) << "task " << i;
    EXPECT_EQ(a.entry, b.entry) << "task " << i;
    EXPECT_EQ(a.object, b.object) << "task " << i;
    // EXPECT_EQ on doubles is exact equality — bitwise determinism.
    EXPECT_EQ(a.start, b.start) << "task " << i;
    EXPECT_EQ(a.duration, b.duration) << "task " << i;
    EXPECT_EQ(a.recv_cost, b.recv_cost) << "task " << i;
    EXPECT_EQ(a.pack_cost, b.pack_cost) << "task " << i;
    EXPECT_EQ(a.send_cost, b.send_cost) << "task " << i;
  }
  ASSERT_EQ(la.messages().size(), lb.messages().size());
  ASSERT_GT(la.messages().size(), 0u);
  for (std::size_t i = 0; i < la.messages().size(); ++i) {
    const MsgRecord& a = la.messages()[i];
    const MsgRecord& b = lb.messages()[i];
    EXPECT_EQ(a.src_pe, b.src_pe) << "msg " << i;
    EXPECT_EQ(a.dst_pe, b.dst_pe) << "msg " << i;
    EXPECT_EQ(a.entry, b.entry) << "msg " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "msg " << i;
    EXPECT_EQ(a.send_time, b.send_time) << "msg " << i;
    EXPECT_EQ(a.recv_time, b.recv_time) << "msg " << i;
  }
}

TEST(DesNicTest, LinkSerializationDelaysBurst) {
  // Ten 100 KB messages from one PE to ten receivers: the sender's outgoing
  // link must serialize them, so the last arrival is ~10 transfer times out.
  MachineModel m;
  m.send_overhead = 0.0;
  m.recv_overhead = 0.0;
  m.latency = 0.0;
  m.byte_time = 1e-8;  // 100 KB -> 1 ms
  m.pack_byte_cost = 0.0;
  m.local_overhead = 0.0;
  Simulator sim(11, m);
  std::vector<double> arrivals(11, -1.0);
  sim.inject(0, {.fn = [&](ExecContext& ctx) {
                   for (int pe = 1; pe <= 10; ++pe) {
                     ctx.send(pe, {.bytes = 100000, .fn = [&arrivals, pe](ExecContext& c) {
                                     arrivals[static_cast<std::size_t>(pe)] = c.start();
                                   }});
                   }
                 }});
  sim.run();
  EXPECT_NEAR(arrivals[1], 1e-3, 1e-6);
  EXPECT_NEAR(arrivals[10], 10e-3, 1e-5);
}

TEST(DesNicTest, IncomingLinkSerializesConvergecast) {
  // Ten senders hitting one receiver at once: the receiver's incoming link
  // spaces the deliveries by one transfer each.
  MachineModel m;
  m.send_overhead = 0.0;
  m.recv_overhead = 0.0;
  m.latency = 0.0;
  m.byte_time = 1e-8;
  m.pack_byte_cost = 0.0;
  m.local_overhead = 0.0;
  Simulator sim(11, m);
  std::vector<double> arrivals;
  for (int pe = 1; pe <= 10; ++pe) {
    sim.inject(pe, {.fn = [&](ExecContext& ctx) {
                      ctx.send(0, {.bytes = 100000, .fn = [&arrivals](ExecContext& c) {
                                      arrivals.push_back(c.start());
                                    }});
                    }});
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 10u);
  EXPECT_GE(arrivals.back() - arrivals.front(), 8e-3);
}

}  // namespace
}  // namespace scalemd
