#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "check/golden.hpp"
#include "ff/nonbonded_tiled.hpp"

#ifndef SCALEMD_GOLDEN_DIR
#error "SCALEMD_GOLDEN_DIR must point at the checked-in golden references"
#endif

namespace scalemd {
namespace {

// ---------------------------------------------------------------------------
// Format round trip and ULP distance.
// ---------------------------------------------------------------------------

TEST(GoldenFormatTest, TrajectoryRoundTripsBitExactly) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  const Trajectory t = record_trajectory(*spec);
  ASSERT_FALSE(t.frames.empty());

  const std::string path = testing::TempDir() + "scalemd_roundtrip.golden";
  write_trajectory(t, path);
  const Trajectory back = read_trajectory(path);
  std::remove(path.c_str());

  CompareOptions bitwise;
  bitwise.mode = CompareMode::kUlp;
  bitwise.max_ulps = 0;
  const CompareResult r = compare_trajectories(back, t, bitwise);
  EXPECT_TRUE(r.match) << r.message;
  EXPECT_EQ(r.worst, 0.0);
}

TEST(GoldenFormatTest, ReadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(read_trajectory("/nonexistent/path.golden"), std::runtime_error);

  const std::string path = testing::TempDir() + "scalemd_malformed.golden";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-golden-file 7\n", f);
  std::fclose(f);
  EXPECT_THROW(read_trajectory(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GoldenFormatTest, UlpDistanceCountsRepresentableSteps) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(ulp_distance(1.0, next), 1u);
  EXPECT_EQ(ulp_distance(next, 1.0), 1u);
  EXPECT_EQ(ulp_distance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_GT(ulp_distance(1.0, 2.0), 1000u);
  EXPECT_GT(ulp_distance(-1e-300, 1e-300), 0u);
  EXPECT_EQ(ulp_distance(std::numeric_limits<double>::quiet_NaN(), 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Comparator sensitivity: the acceptance scenario — a single perturbed force
// component must be reported with its frame/field/atom location.
// ---------------------------------------------------------------------------

TEST(GoldenCompareTest, DetectsSinglePerturbedForceComponent) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  const Trajectory ref = record_trajectory(*spec);
  Trajectory got = ref;
  got.frames[1].forces[5].y += 1e-4;

  const CompareResult r = compare_trajectories(got, ref, {});
  EXPECT_FALSE(r.match);
  EXPECT_NE(r.message.find("frc"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("atom 5"), std::string::npos) << r.message;
  EXPECT_GE(r.worst, 1e-4 * 0.99);
}

TEST(GoldenCompareTest, DetectsStructuralMismatches) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  const Trajectory ref = record_trajectory(*spec);

  Trajectory wrong_system = ref;
  wrong_system.system = "chain";
  EXPECT_FALSE(compare_trajectories(wrong_system, ref, {}).match);

  Trajectory missing_frame = ref;
  missing_frame.frames.pop_back();
  EXPECT_FALSE(compare_trajectories(missing_frame, ref, {}).match);

  Trajectory wrong_step = ref;
  wrong_step.frames[0].step += 1;
  EXPECT_FALSE(compare_trajectories(wrong_step, ref, {}).match);
}

TEST(GoldenCompareTest, AbsoluteModeUsesUnscaledBound) {
  const GoldenSpec* spec = find_golden_spec("waterbox");
  ASSERT_NE(spec, nullptr);
  const Trajectory ref = record_trajectory(*spec);
  Trajectory got = ref;
  got.frames[0].positions[0].z += 5e-7;

  CompareOptions strict;
  strict.mode = CompareMode::kAbsolute;
  strict.tol = 1e-7;
  EXPECT_FALSE(compare_trajectories(got, ref, strict).match);
  strict.tol = 1e-6;
  EXPECT_TRUE(compare_trajectories(got, ref, strict).match);
}

// ---------------------------------------------------------------------------
// The regression matrix: every kernel x engine-path x thread-count
// combination, on every preset, against the single scalar-generated golden.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* spec;
  NonbondedKernel kernel;
  bool pairlist;
  int threads;
};

std::string case_name(const testing::TestParamInfo<GoldenCase>& info) {
  std::string name = std::string(info.param.spec) + "_";
  for (const char* p = kernel_name(info.param.kernel); *p != '\0'; ++p) {
    name += std::isalnum(static_cast<unsigned char>(*p)) ? *p : '_';
  }
  name += info.param.pairlist ? "_verlet" : "_cell";
  if (info.param.threads > 0) {
    name += "_t" + std::to_string(info.param.threads);
  }
  return name;
}

class GoldenRegressionTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRegressionTest, MatchesScalarGolden) {
  const GoldenCase& c = GetParam();
  const GoldenSpec* spec = find_golden_spec(c.spec);
  ASSERT_NE(spec, nullptr);

  const Trajectory ref =
      read_trajectory(golden_path(SCALEMD_GOLDEN_DIR, *spec));
  const Trajectory got =
      record_trajectory(*spec, c.kernel, c.pairlist, c.threads);

  const CompareResult r = compare_trajectories(got, ref, {});
  EXPECT_TRUE(r.match) << r.message;
  // Kernel variants only reorder the same pair sums; deviations from the
  // scalar reference stay many orders below the tolerance.
  EXPECT_LT(r.worst, 1e-9) << "worst deviation at " << r.where;
}

constexpr GoldenCase kGoldenMatrix[] = {
    // waterbox: {scalar, tiled, tiled+threads(2), tiled+threads(4)} x
    //           {cell list, Verlet pairlist}
    {"waterbox", NonbondedKernel::kScalar, false, 0},
    {"waterbox", NonbondedKernel::kScalar, true, 0},
    {"waterbox", NonbondedKernel::kTiled, false, 0},
    {"waterbox", NonbondedKernel::kTiled, true, 0},
    {"waterbox", NonbondedKernel::kTiledThreads, false, 2},
    {"waterbox", NonbondedKernel::kTiledThreads, true, 2},
    {"waterbox", NonbondedKernel::kTiledThreads, false, 4},
    {"waterbox", NonbondedKernel::kTiledThreads, true, 4},
    // chain: bonded terms, exclusions and 1-4 scaling in play.
    {"chain", NonbondedKernel::kScalar, false, 0},
    {"chain", NonbondedKernel::kScalar, true, 0},
    {"chain", NonbondedKernel::kTiled, false, 0},
    {"chain", NonbondedKernel::kTiled, true, 0},
    {"chain", NonbondedKernel::kTiledThreads, false, 2},
    {"chain", NonbondedKernel::kTiledThreads, true, 2},
    {"chain", NonbondedKernel::kTiledThreads, false, 4},
    {"chain", NonbondedKernel::kTiledThreads, true, 4},
    // waterbox_ions: full electrostatics — erfc-screened direct space in the
    // kernels plus the sequential PME reciprocal stage.
    {"waterbox_ions", NonbondedKernel::kScalar, false, 0},
    {"waterbox_ions", NonbondedKernel::kScalar, true, 0},
    {"waterbox_ions", NonbondedKernel::kTiled, false, 0},
    {"waterbox_ions", NonbondedKernel::kTiled, true, 0},
    {"waterbox_ions", NonbondedKernel::kTiledThreads, false, 2},
    {"waterbox_ions", NonbondedKernel::kTiledThreads, true, 2},
};

INSTANTIATE_TEST_SUITE_P(AllKernelPathThreadCombos, GoldenRegressionTest,
                         testing::ValuesIn(kGoldenMatrix), case_name);

// ---------------------------------------------------------------------------
// Parallel runtime vs the checked-in golden: both execution backends must
// reproduce the scalar reference to tolerance. The runtime sums forces in
// fixed point (not in the sequential engine's pair order), so the bitwise
// bound of the sequential matrix does not apply — only the relative one.
// The golden's step-0 frame is dropped: the parallel recorder first observes
// state after a cycle completes.
// ---------------------------------------------------------------------------

struct ParallelGoldenCase {
  const char* spec;
  BackendKind backend;
  NonbondedKernel kernel;
};

std::string parallel_case_name(
    const testing::TestParamInfo<ParallelGoldenCase>& info) {
  std::string name = std::string(info.param.spec) + "_";
  name += backend_name(info.param.backend);
  name += info.param.kernel == NonbondedKernel::kScalar ? "_scalar" : "_tiled";
  return name;
}

class ParallelGoldenTest : public testing::TestWithParam<ParallelGoldenCase> {};

TEST_P(ParallelGoldenTest, MatchesScalarGolden) {
  const ParallelGoldenCase& c = GetParam();
  const GoldenSpec* spec = find_golden_spec(c.spec);
  ASSERT_NE(spec, nullptr);

  Trajectory ref = read_trajectory(golden_path(SCALEMD_GOLDEN_DIR, *spec));
  ASSERT_FALSE(ref.frames.empty());
  ref.frames.erase(ref.frames.begin());

  ParallelGoldenOptions p;
  p.num_pes = 4;
  p.backend = c.backend;
  p.threads = c.backend == BackendKind::kThreaded ? 2 : 0;
  p.lb = LbStrategyKind::kGreedyRefine;
  p.kernel = c.kernel;
  const Trajectory got = record_parallel_trajectory(*spec, p);

  const CompareResult r = compare_trajectories(got, ref, {});
  EXPECT_TRUE(r.match) << r.message;
}

constexpr ParallelGoldenCase kParallelGoldenMatrix[] = {
    {"waterbox", BackendKind::kSimulated, NonbondedKernel::kScalar},
    {"waterbox", BackendKind::kSimulated, NonbondedKernel::kTiled},
    {"waterbox", BackendKind::kThreaded, NonbondedKernel::kScalar},
    {"waterbox", BackendKind::kThreaded, NonbondedKernel::kTiled},
    {"chain", BackendKind::kSimulated, NonbondedKernel::kScalar},
    {"chain", BackendKind::kThreaded, NonbondedKernel::kScalar},
    // waterbox_ions drives the parallel-PME pipeline (slab objects, transpose
    // messages, canonical reciprocal fold) against the sequential golden.
    {"waterbox_ions", BackendKind::kSimulated, NonbondedKernel::kScalar},
    {"waterbox_ions", BackendKind::kSimulated, NonbondedKernel::kTiled},
    {"waterbox_ions", BackendKind::kThreaded, NonbondedKernel::kScalar},
};

INSTANTIATE_TEST_SUITE_P(BothBackends, ParallelGoldenTest,
                         testing::ValuesIn(kParallelGoldenMatrix),
                         parallel_case_name);

// The reference configuration must reproduce the checked-in golden
// bit-for-bit on the machine that generated it; across compilers/flags it
// still has to hold to the relative tolerance, which the matrix test above
// asserts. This test pins the regeneration workflow: if it fails after an
// intentional physics change, run `cmake --build build --target regen-golden`
// and commit the diff.
TEST(GoldenRegressionTest, EveryRegisteredSpecHasACheckedInGolden) {
  for (const GoldenSpec& spec : golden_specs()) {
    const Trajectory ref =
        read_trajectory(golden_path(SCALEMD_GOLDEN_DIR, spec));
    EXPECT_EQ(ref.system, spec.name);
    EXPECT_GT(ref.atom_count, 0);
    EXPECT_EQ(ref.frames.size(),
              static_cast<std::size_t>(spec.steps / spec.record_every) + 1);
  }
}

}  // namespace
}  // namespace scalemd
