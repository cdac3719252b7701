#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "des/simulator.hpp"
#include "rts/multicast.hpp"
#include "rts/process_backend.hpp"
#include "rts/reduction.hpp"
#include "rts/registry.hpp"
#include "rts/threaded_backend.hpp"

namespace scalemd {
namespace {

MachineModel test_machine() {
  MachineModel m;
  m.name = "test";
  m.send_overhead = 0.1;
  m.recv_overhead = 0.05;
  m.latency = 1.0;
  m.byte_time = 0.0;
  m.pack_byte_cost = 0.001;  // per byte
  m.local_overhead = 0.01;
  return m;
}

// Bad PE arguments fail with named errors in every build type: with
// -DNDEBUG an assert would vanish and an off-machine PE would index past the
// backend's PE table.
TEST(ExecBackendTest, BadPeArgumentsThrowNamedErrors) {
  const MachineModel m = test_machine();
  for (int pes : {0, -1}) {
    EXPECT_THROW(Simulator sim(pes, m), std::invalid_argument) << pes;
    EXPECT_THROW(ThreadedBackend threads(pes, m, 1), std::invalid_argument) << pes;
    EXPECT_THROW(ProcessBackend process(pes, m), std::invalid_argument) << pes;
  }
  Simulator sim(2, m);
  ThreadedBackend threads(2, m, 1);
  ProcessBackend process(2, m);
  for (ExecBackend* backend : std::vector<ExecBackend*>{&sim, &threads, &process}) {
    for (int pe : {-1, 2, 1 << 20}) {
      EXPECT_THROW(backend->inject(pe, TaskMsg{}), std::out_of_range)
          << backend_name(backend->kind()) << " PE " << pe;
    }
    EXPECT_TRUE(backend->idle()) << backend_name(backend->kind());
    EXPECT_EQ(backend->accounting().offered, 0u) << backend_name(backend->kind());
  }
}

TEST(ChareDirectoryTest, AddLookupMigrate) {
  ChareDirectory dir;
  const auto a = dir.add(3);
  const auto b = dir.add(7);
  EXPECT_EQ(dir.pe_of(a), 3);
  EXPECT_EQ(dir.pe_of(b), 7);
  dir.migrate(a, 5);
  EXPECT_EQ(dir.pe_of(a), 5);
  EXPECT_EQ(dir.count(), 2u);
}

TEST(MulticastTest, DeliversToAllDestinations) {
  Simulator sim(5, test_machine());
  std::vector<int> received;
  const std::vector<int> dests{1, 2, 3, 4};
  sim.inject(0, {.fn = [&](ExecContext& ctx) {
                   multicast(ctx, dests, 100, /*optimized=*/true, [&](int pe) {
                     TaskMsg m;
                     m.fn = [&received, pe](ExecContext&) { received.push_back(pe); };
                     return m;
                   });
                 }});
  sim.run();
  EXPECT_EQ(received, dests);
}

TEST(MulticastTest, OptimizedPacksOnce) {
  // Sender-side cost difference: naive charges pack per destination.
  const std::vector<int> dests{1, 2, 3, 4};
  auto sender_busy = [&](bool optimized) {
    Simulator sim(5, test_machine());
    sim.inject(0, {.fn = [&](ExecContext& ctx) {
                     multicast(ctx, dests, 1000, optimized, [&](int) {
                       TaskMsg m;
                       m.fn = [](ExecContext&) {};
                       return m;
                     });
                   }});
    sim.run();
    return sim.pe_busy(0);
  };
  const double naive = sender_busy(false);
  const double opt = sender_busy(true);
  // pack = 1000 bytes * 0.001 = 1.0; sends = 4 * 0.1 = 0.4.
  EXPECT_NEAR(naive, 4 * 1.0 + 0.4, 1e-9);
  EXPECT_NEAR(opt, 1.0 + 0.4, 1e-9);
}

TEST(MulticastTest, EmptyDestinationsChargesNothing) {
  Simulator sim(2, test_machine());
  sim.inject(0, {.fn = [&](ExecContext& ctx) {
                   multicast(ctx, {}, 1000, true, [](int) { return TaskMsg{}; });
                 }});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.pe_busy(0), 0.0);
}

TEST(ReducerTest, SingleRoundTotalsAcrossPes) {
  Simulator sim(4, test_machine());
  const EntryId e = sim.entries().add("reduce", WorkCategory::kComm);
  // Contributors 0..7 on PEs 0..3 (two each).
  std::vector<int> pe_of{0, 0, 1, 1, 2, 2, 3, 3};
  double result = -1.0;
  int result_round = -1;
  Reducer red(pe_of, e, [&](int round, double total) {
    result = total;
    result_round = round;
  });
  for (int c = 0; c < 8; ++c) {
    const int pe = pe_of[static_cast<std::size_t>(c)];
    sim.inject(pe, {.fn = [&red, c](ExecContext& ctx) {
                      ctx.charge(0.01 * c);
                      red.contribute(ctx, c, 0, 1.0 + c);
                    }});
  }
  sim.run();
  EXPECT_EQ(result_round, 0);
  EXPECT_DOUBLE_EQ(result, 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(ReducerTest, MultipleRoundsIndependent) {
  Simulator sim(3, test_machine());
  const EntryId e = sim.entries().add("reduce", WorkCategory::kComm);
  std::vector<int> pe_of{0, 1, 2};
  std::map<int, double> results;
  Reducer red(pe_of, e, [&](int round, double total) { results[round] = total; });
  // Interleave rounds: each contributor contributes round 0 then round 1.
  for (int c = 0; c < 3; ++c) {
    sim.inject(c, {.fn = [&red, c](ExecContext& ctx) {
                     red.contribute(ctx, c, 0, 10.0 * (c + 1));
                     red.contribute(ctx, c, 1, 1.0);
                   }});
  }
  sim.run();
  EXPECT_DOUBLE_EQ(results[0], 60.0);
  EXPECT_DOUBLE_EQ(results[1], 3.0);
}

TEST(ReducerTest, ContributorsOnSinglePe) {
  Simulator sim(4, test_machine());
  const EntryId e = sim.entries().add("reduce", WorkCategory::kComm);
  std::vector<int> pe_of{2, 2, 2};
  double result = -1.0;
  Reducer red(pe_of, e, [&](int, double total) { result = total; });
  sim.inject(2, {.fn = [&](ExecContext& ctx) {
                   red.contribute(ctx, 0, 0, 1.0);
                   red.contribute(ctx, 1, 0, 2.0);
                   red.contribute(ctx, 2, 0, 4.0);
                 }});
  sim.run();
  EXPECT_DOUBLE_EQ(result, 7.0);
}

TEST(ReducerTest, TreeUsesMessagesBetweenPes) {
  Simulator sim(8, test_machine());
  const EntryId e = sim.entries().add("reduce", WorkCategory::kComm);
  std::vector<int> pe_of;
  for (int pe = 0; pe < 8; ++pe) pe_of.push_back(pe);
  double result = -1.0;
  Reducer red(pe_of, e, [&](int, double total) { result = total; });
  for (int pe = 0; pe < 8; ++pe) {
    sim.inject(pe, {.fn = [&red, pe](ExecContext& ctx) {
                      red.contribute(ctx, pe, 0, 1.0);
                    }});
  }
  sim.run();
  EXPECT_DOUBLE_EQ(result, 8.0);
  // 7 tree edges -> 7 remote messages.
  EXPECT_EQ(sim.remote_messages(), 7u);
  // Completion needs at least the depth of the tree in latency.
  EXPECT_GE(sim.time(), 2.0);
}

}  // namespace
}  // namespace scalemd
