#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "lb/greedy.hpp"
#include "lb/naive.hpp"
#include "lb/problem.hpp"
#include "lb/rcb.hpp"
#include "lb/refine.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace scalemd {
namespace {

/// A synthetic problem: `npatches` patches on a line, homes round-robin over
/// PEs, one self object per patch plus pair objects between neighbors, loads
/// drawn deterministically.
LbProblem make_problem(int num_pes, int npatches, std::uint64_t seed = 3) {
  Rng rng(seed);
  LbProblem p;
  p.num_pes = num_pes;
  p.background.assign(static_cast<std::size_t>(num_pes), 0.0);
  for (int i = 0; i < npatches; ++i) {
    p.patch_home.push_back(i % num_pes);
  }
  for (int i = 0; i < npatches; ++i) {
    LbObject self;
    self.load = rng.uniform(0.5, 2.0);
    self.current_pe = p.patch_home[static_cast<std::size_t>(i)];
    self.patch_a = i;
    p.objects.push_back(self);
    if (i + 1 < npatches) {
      LbObject pair;
      pair.load = rng.uniform(0.2, 3.0);
      pair.current_pe = p.patch_home[static_cast<std::size_t>(i)];
      pair.patch_a = i;
      pair.patch_b = i + 1;
      p.objects.push_back(pair);
    }
  }
  // Uneven background to exercise the strategies.
  for (int pe = 0; pe < num_pes; ++pe) {
    p.background[static_cast<std::size_t>(pe)] = (pe % 3 == 0) ? 0.8 : 0.1;
  }
  return p;
}

TEST(LbProblemTest, PeLoadsAndProxies) {
  LbProblem p;
  p.num_pes = 2;
  p.background = {1.0, 0.5};
  p.patch_home = {0, 1};
  p.objects.push_back({.load = 2.0, .current_pe = 0, .patch_a = 0, .patch_b = 1});
  const LbAssignment on0{0};
  EXPECT_DOUBLE_EQ(pe_loads(p, on0)[0], 3.0);
  EXPECT_DOUBLE_EQ(pe_loads(p, on0)[1], 0.5);
  // Object on PE 0 needs patch 1 (home 1) proxied there.
  EXPECT_EQ(count_proxies(p, on0), 1);
  // On PE 1, it needs patch 0 proxied.
  EXPECT_EQ(count_proxies(p, {1}), 1);
}

TEST(GreedyTest, BalancesLoadWithinThreshold) {
  const LbProblem p = make_problem(8, 40);
  const LbAssignment map = greedy_comm_map(p, 1.10);
  const auto loads = pe_loads(p, map);
  EXPECT_LE(imbalance_ratio(loads), 1.25);
}

TEST(GreedyTest, BeatsIdentityPlacement) {
  const LbProblem p = make_problem(16, 48);
  const auto before = imbalance_ratio(pe_loads(p, identity_map(p)));
  const auto after = imbalance_ratio(pe_loads(p, greedy_comm_map(p)));
  EXPECT_LT(after, before);
}

TEST(GreedyTest, CommAwareCreatesFewerProxiesThanBlind) {
  const LbProblem p = make_problem(12, 60);
  const int comm_proxies = count_proxies(p, greedy_comm_map(p));
  const int blind_proxies = count_proxies(p, greedy_nocomm_map(p));
  EXPECT_LT(comm_proxies, blind_proxies);
}

TEST(GreedyTest, AssignmentIsValid) {
  const LbProblem p = make_problem(5, 23);
  for (int pe : greedy_comm_map(p)) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, 5);
  }
}

TEST(GreedyTest, SinglePeMapsEverythingThere) {
  const LbProblem p = make_problem(1, 7);
  for (int pe : greedy_comm_map(p)) EXPECT_EQ(pe, 0);
}

TEST(RefineTest, NeverIncreasesMaxLoad) {
  const LbProblem p = make_problem(10, 50, 11);
  const LbAssignment start = random_map(p, 5);
  const auto before = summarize(pe_loads(p, start));
  const LbAssignment refined = refine_map(p, start, 1.03);
  const auto after = summarize(pe_loads(p, refined));
  EXPECT_LE(after.max, before.max + 1e-12);
}

TEST(RefineTest, FixesSingleHotSpot) {
  LbProblem p = make_problem(6, 30, 17);
  // Pile everything on PE 0.
  LbAssignment start(p.objects.size(), 0);
  const LbAssignment refined = refine_map(p, start, 1.05);
  const auto loads = pe_loads(p, refined);
  EXPECT_LE(imbalance_ratio(loads), 1.3);
  EXPECT_GT(migration_count(start, refined), 0);
}

TEST(RefineTest, BalancedInputUntouched) {
  LbProblem p;
  p.num_pes = 4;
  p.background.assign(4, 0.0);
  p.patch_home = {0, 1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    p.objects.push_back({.load = 1.0, .current_pe = i, .patch_a = i});
  }
  const LbAssignment start{0, 1, 2, 3};
  const LbAssignment refined = refine_map(p, start, 1.05);
  EXPECT_EQ(migration_count(start, refined), 0);
}

TEST(RefineTest, RefinementAfterGreedyMovesLittle) {
  const LbProblem p = make_problem(12, 60, 23);
  const LbAssignment greedy = greedy_comm_map(p, 1.10);
  const LbAssignment refined = refine_map(p, greedy, 1.03);
  // The paper: the second cycle results in "only a few additional object
  // migrations".
  EXPECT_LE(migration_count(greedy, refined),
            static_cast<int>(p.objects.size()) / 4);
}

TEST(RcbTest, RoundRobinWhenMorePesThanPatches) {
  std::vector<Vec3> centers{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  std::vector<double> weights{1, 1, 1};
  const auto map = rcb_patch_map(centers, weights, 9);
  EXPECT_EQ(map, (std::vector<int>{0, 3, 6}));
}

TEST(RcbTest, SplitsWeightEvenly) {
  // 8 unit-weight patches on a line over 2 PEs: 4 and 4, spatially compact.
  std::vector<Vec3> centers;
  std::vector<double> weights;
  for (int i = 0; i < 8; ++i) {
    centers.push_back({static_cast<double>(i), 0, 0});
    weights.push_back(1.0);
  }
  const auto map = rcb_patch_map(centers, weights, 2);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(map[static_cast<std::size_t>(i)], 0);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(map[static_cast<std::size_t>(i)], 1);
}

TEST(RcbTest, NeighborsLandTogetherIn3d) {
  // 4x4x4 grid of patches over 8 PEs: each PE should get a 2x2x2 block.
  std::vector<Vec3> centers;
  std::vector<double> weights;
  for (int z = 0; z < 4; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        centers.push_back({x + 0.5, y + 0.5, z + 0.5});
        weights.push_back(1.0);
      }
    }
  }
  const auto map = rcb_patch_map(centers, weights, 8);
  // Every PE gets exactly 8 patches.
  std::vector<int> counts(8, 0);
  for (int pe : map) ++counts[static_cast<std::size_t>(pe)];
  for (int c : counts) EXPECT_EQ(c, 8);
  // Patches on one PE are spatially compact: max pairwise distance within a
  // 2x2x2 block is sqrt(3+3+3) units... allow the block diagonal.
  for (int pe = 0; pe < 8; ++pe) {
    for (std::size_t i = 0; i < map.size(); ++i) {
      for (std::size_t j = i + 1; j < map.size(); ++j) {
        if (map[i] == pe && map[j] == pe) {
          EXPECT_LE(norm(centers[i] - centers[j]), std::sqrt(3.0) + 1e-9);
        }
      }
    }
  }
}

TEST(RcbTest, WeightedSplitFollowsWeight) {
  // One very heavy patch: it should sit alone on one PE.
  std::vector<Vec3> centers{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}};
  std::vector<double> weights{1, 1, 1, 10};
  const auto map = rcb_patch_map(centers, weights, 2);
  EXPECT_EQ(map[3], 1);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 0);
}

// ---------------------------------------------------------------------------
// Randomized strategy properties: on arbitrary instances, the strategies
// must never do worse than the placements they claim to improve, and
// refinement must respect its move budget.
// ---------------------------------------------------------------------------

/// A fully randomized instance — unlike make_problem, sizes, homes, loads
/// and patch wiring all vary with the seed.
LbProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  LbProblem p;
  p.num_pes = 1 + static_cast<int>(rng.uniform(0.0, 15.0));
  const int npatches = 1 + static_cast<int>(rng.uniform(0.0, 60.0));
  p.background.resize(static_cast<std::size_t>(p.num_pes));
  for (double& b : p.background) b = rng.uniform(0.0, 1.0);
  for (int i = 0; i < npatches; ++i) {
    p.patch_home.push_back(static_cast<int>(rng.uniform(0.0, p.num_pes - 1e-9)));
  }
  const int nobjects = 1 + static_cast<int>(rng.uniform(0.0, 120.0));
  for (int i = 0; i < nobjects; ++i) {
    LbObject o;
    o.load = rng.uniform(0.01, 5.0);
    o.current_pe = static_cast<int>(rng.uniform(0.0, p.num_pes - 1e-9));
    o.patch_a = static_cast<int>(rng.uniform(0.0, npatches - 1e-9));
    if (rng.uniform(0.0, 1.0) < 0.5) {
      o.patch_b = static_cast<int>(rng.uniform(0.0, npatches - 1e-9));
    }
    p.objects.push_back(o);
  }
  return p;
}

double max_load(const LbProblem& p, const LbAssignment& map) {
  const auto loads = pe_loads(p, map);
  return *std::max_element(loads.begin(), loads.end());
}

TEST(LbPropertyTest, GreedyNeverWorseThanStaticPlacement) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const LbProblem p = random_problem(seed);
    const double naive = max_load(p, identity_map(p));
    EXPECT_LE(max_load(p, greedy_comm_map(p)), naive + 1e-9) << "seed " << seed;
    EXPECT_LE(max_load(p, greedy_nocomm_map(p)), naive + 1e-9) << "seed " << seed;
  }
}

TEST(LbPropertyTest, RefineNeverIncreasesMaxLoadOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const LbProblem p = random_problem(seed);
    const LbAssignment start = random_map(p, seed * 7 + 1);
    const double before = max_load(p, start);
    EXPECT_LE(max_load(p, refine_map(p, start, 1.03)), before + 1e-9)
        << "seed " << seed;
  }
}

TEST(LbPropertyTest, RefineAfterGreedyNeverWorseThanGreedyAlone) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const LbProblem p = random_problem(seed);
    const LbAssignment greedy = greedy_comm_map(p);
    const double greedy_max = max_load(p, greedy);
    EXPECT_LE(max_load(p, refine_map(p, greedy, 1.03)), greedy_max + 1e-9)
        << "seed " << seed;
  }
}

TEST(LbPropertyTest, RefineRespectsMoveBudgetAndTerminates) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const LbProblem p = random_problem(seed);
    const LbAssignment start = random_map(p, seed * 13 + 5);
    for (int budget : {0, 1, 3}) {
      const LbAssignment refined = refine_map(p, start, 1.01, budget);
      EXPECT_LE(migration_count(start, refined), budget)
          << "seed " << seed << " budget " << budget;
    }
    // A hostile threshold (everything counts as overloaded) must still
    // terminate and respect the monotonicity contract.
    const LbAssignment tight = refine_map(p, start, 1.0);
    EXPECT_LE(max_load(p, tight), max_load(p, start) + 1e-9) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Greedy equivalence: the placements must match a full scan over every PE
// per object, the loop the strategy ran before it kept a min-load tree and
// per-patch PE lists.
// ---------------------------------------------------------------------------

LbAssignment greedy_comm_map_reference(const LbProblem& p, double overload) {
  const std::size_t npes = static_cast<std::size_t>(p.num_pes);
  std::vector<double> load = p.background;
  load.resize(npes, 0.0);
  double total = std::accumulate(p.background.begin(), p.background.end(), 0.0);
  for (const LbObject& o : p.objects) total += o.load;
  const double limit = overload * (total / p.num_pes);

  std::vector<std::vector<char>> present(p.patch_home.size(), std::vector<char>(npes, 0));
  for (std::size_t patch = 0; patch < p.patch_home.size(); ++patch) {
    present[patch][static_cast<std::size_t>(p.patch_home[patch])] = 1;
  }
  std::vector<std::size_t> order(p.objects.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.objects[a].load > p.objects[b].load;
  });

  LbAssignment map(p.objects.size(), 0);
  for (std::size_t idx : order) {
    const LbObject& o = p.objects[idx];
    bool any_fits = false;
    for (std::size_t pe = 0; pe < npes && !any_fits; ++pe) {
      any_fits = load[pe] + o.load <= limit;
    }
    int best_pe = -1;
    int best_present = -1;
    double best_load = 0.0;
    for (std::size_t pe = 0; pe < npes; ++pe) {
      if (any_fits && load[pe] + o.load > limit) continue;
      int here = 0;
      if (o.patch_a >= 0) here += present[static_cast<std::size_t>(o.patch_a)][pe];
      if (o.patch_b >= 0) here += present[static_cast<std::size_t>(o.patch_b)][pe];
      bool better;
      if (any_fits) {
        better = here > best_present || (here == best_present && load[pe] < best_load);
      } else {
        better = load[pe] < best_load || (load[pe] == best_load && here > best_present);
      }
      if (best_pe < 0 || better) {
        best_pe = static_cast<int>(pe);
        best_present = here;
        best_load = load[pe];
      }
    }
    map[idx] = best_pe;
    load[static_cast<std::size_t>(best_pe)] += o.load;
    if (o.patch_a >= 0) {
      present[static_cast<std::size_t>(o.patch_a)][static_cast<std::size_t>(best_pe)] = 1;
    }
    if (o.patch_b >= 0) {
      present[static_cast<std::size_t>(o.patch_b)][static_cast<std::size_t>(best_pe)] = 1;
    }
  }
  return map;
}

LbAssignment greedy_nocomm_map_reference(const LbProblem& p) {
  std::vector<double> load = p.background;
  load.resize(static_cast<std::size_t>(p.num_pes), 0.0);
  std::vector<std::size_t> order(p.objects.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.objects[a].load > p.objects[b].load;
  });
  LbAssignment map(p.objects.size(), 0);
  for (std::size_t idx : order) {
    const auto pe = static_cast<std::size_t>(std::min_element(load.begin(), load.end()) -
                                             load.begin());
    map[idx] = static_cast<int>(pe);
    load[pe] += p.objects[idx].load;
  }
  return map;
}

/// Integer loads so ties are exact; one problem in eight has up to 2,048
/// PEs. Mixes objects heavier than any overload times the average (the
/// balance-first branch), patch-less objects (as PME slabs are) and objects
/// whose two patches are the same.
LbProblem tie_heavy_problem(std::uint64_t seed) {
  Rng rng(seed);
  LbProblem p;
  p.num_pes = 1 + static_cast<int>(rng.uniform_index(seed % 8 == 0 ? 2048 : 64));
  const auto pes = static_cast<std::uint64_t>(p.num_pes);
  p.background.resize(static_cast<std::size_t>(p.num_pes));
  for (double& b : p.background) b = static_cast<double>(rng.uniform_index(4));
  const int npatches = 1 + static_cast<int>(rng.uniform_index(300));
  for (int i = 0; i < npatches; ++i) {
    p.patch_home.push_back(static_cast<int>(rng.uniform_index(pes)));
  }
  const auto patches = static_cast<std::uint64_t>(npatches);
  const int nobjects =
      1 + static_cast<int>(rng.uniform_index(std::min<std::uint64_t>(3 * pes + 40, 2500)));
  for (int i = 0; i < nobjects; ++i) {
    LbObject o;
    const std::uint64_t kind = rng.uniform_index(20);
    o.load = kind == 0 ? 1000.0 : static_cast<double>(rng.uniform_index(12));
    o.current_pe = static_cast<int>(rng.uniform_index(pes));
    o.patch_a = kind == 1 ? -1 : static_cast<int>(rng.uniform_index(patches));
    const std::uint64_t b = rng.uniform_index(10);
    o.patch_b = b < 4 ? -1 : b == 4 ? o.patch_a : static_cast<int>(rng.uniform_index(patches));
    p.objects.push_back(o);
  }
  return p;
}

TEST(LbPropertyTest, GreedyMatchesFullScanReference) {
  int balance_first = 0;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const LbProblem p = tie_heavy_problem(seed);
    for (double overload : {1.0, 1.1, 1.5}) {
      ASSERT_EQ(greedy_comm_map(p, overload), greedy_comm_map_reference(p, overload))
          << "seed " << seed << " overload " << overload << " pes " << p.num_pes;
    }
    ASSERT_EQ(greedy_nocomm_map(p), greedy_nocomm_map_reference(p)) << "seed " << seed;
    // An object over 1.5x the average fits nowhere at any overload tried.
    double total = std::accumulate(p.background.begin(), p.background.end(), 0.0);
    for (const LbObject& o : p.objects) total += o.load;
    balance_first += std::any_of(p.objects.begin(), p.objects.end(), [&](const LbObject& o) {
      return o.load > 1.5 * total / p.num_pes;
    });
  }
  EXPECT_GT(balance_first, 40);
  // The shared random instances (fractional loads, few PEs) too.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const LbProblem p = random_problem(seed);
    EXPECT_EQ(greedy_comm_map(p), greedy_comm_map_reference(p, 1.10)) << "seed " << seed;
    EXPECT_EQ(greedy_nocomm_map(p), greedy_nocomm_map_reference(p)) << "seed " << seed;
  }
}

TEST(NaiveTest, RandomMapInRangeAndDeterministic) {
  const LbProblem p = make_problem(7, 20);
  const auto a = random_map(p, 42);
  const auto b = random_map(p, 42);
  EXPECT_EQ(a, b);
  for (int pe : a) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, 7);
  }
}

}  // namespace
}  // namespace scalemd
