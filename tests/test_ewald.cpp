#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ewald/ewald.hpp"
#include "ewald/fft.hpp"
#include "ewald/full_elec.hpp"
#include "ewald/pme.hpp"
#include "ewald/pme_slab.hpp"
#include "gen/test_systems.hpp"
#include "seq/engine.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace scalemd {
namespace {

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

TEST(FftTest, MatchesDirectDft) {
  // Every supported size, both directions, on a line alone and on a strided
  // line inside a larger array whose other entries must stay untouched.
  Rng rng(3);
  for (int n = 1; n <= 256; n *= 2) {
    const FftPlan plan(n);
    ASSERT_EQ(plan.size(), n);
    for (const bool inverse : {false, true}) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
        std::vector<std::complex<double>> data(static_cast<std::size_t>(n) * stride + 2);
        for (auto& d : data) d = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        const auto reference = data;
        plan.transform(data.data() + 1, stride, inverse);
        const double sign = inverse ? 2.0 : -2.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
          const bool on_line = i >= 1 && (i - 1) % stride == 0 &&
                               (i - 1) / stride < static_cast<std::size_t>(n);
          if (!on_line) {
            EXPECT_EQ(data[i], reference[i]) << "n " << n << " stride " << stride << " i " << i;
          }
        }
        for (int k = 0; k < n; ++k) {
          std::complex<double> sum{0, 0};
          for (int j = 0; j < n; ++j) {
            const double phase =
                sign * M_PI * static_cast<double>((static_cast<long>(k) * j) % n) / n;
            sum += reference[1 + static_cast<std::size_t>(j) * stride] *
                   std::complex<double>(std::cos(phase), std::sin(phase));
          }
          EXPECT_NEAR(std::abs(data[1 + static_cast<std::size_t>(k) * stride] - sum), 0.0,
                      1e-12 * n)
              << "n " << n << (inverse ? " inverse" : " forward") << " stride "
              << stride << " k " << k;
        }
      }
    }
  }
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(12), std::invalid_argument);
}

TEST(FftTest, RoundTripIdentity) {
  Rng rng(5);
  std::vector<std::complex<double>> data(64);
  for (auto& d : data) d = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = data;
  const FftPlan plan(64);
  plan.transform(data.data(), 1, false);
  plan.transform(data.data(), 1, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] / 64.0 - original[i]), 0.0, 1e-12);
  }
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(7);
  std::vector<std::complex<double>> data(32);
  double time_energy = 0.0;
  for (auto& d : data) {
    d = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    time_energy += std::norm(d);
  }
  FftPlan(32).transform(data.data(), 1, false);
  double freq_energy = 0.0;
  for (const auto& d : data) freq_energy += std::norm(d);
  EXPECT_NEAR(freq_energy / 32.0, time_energy, 1e-10);
}

TEST(FftTest, ThreeDRoundTrip) {
  Rng rng(9);
  std::vector<std::complex<double>> grid(8 * 4 * 16);
  for (auto& g : grid) g = {rng.uniform(-1, 1), 0.0};
  const auto original = grid;
  const FftPlan x(8), y(4), z(16);
  fft3d(grid, x, y, z, false);
  fft3d(grid, x, y, z, true);
  const double n = 8.0 * 4.0 * 16.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] / n - original[i]), 0.0, 1e-11);
  }
}

// ---------------------------------------------------------------------------
// B-splines
// ---------------------------------------------------------------------------

TEST(BsplineTest, PartitionOfUnity) {
  for (int order : {2, 3, 4, 6}) {
    std::vector<double> w(static_cast<std::size_t>(order));
    std::vector<double> dw(static_cast<std::size_t>(order));
    for (double u : {0.0, 0.1, 0.25, 0.5, 0.77, 0.999}) {
      bspline_weights(u, order, w, dw);
      double sum = 0.0, dsum = 0.0;
      for (int j = 0; j < order; ++j) {
        EXPECT_GE(w[static_cast<std::size_t>(j)], -1e-12);
        sum += w[static_cast<std::size_t>(j)];
        dsum += dw[static_cast<std::size_t>(j)];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12) << "order " << order << " u " << u;
      EXPECT_NEAR(dsum, 0.0, 1e-12);
    }
  }
}

TEST(BsplineTest, DerivativeMatchesFiniteDifference) {
  const int order = 4;
  std::vector<double> w1(4), w2(4), dw(4), dtmp(4);
  const double h = 1e-6;
  for (double u : {0.1, 0.4, 0.9}) {
    bspline_weights(u, order, w1, dw);
    bspline_weights(u + h, order, w2, dtmp);
    for (int j = 0; j < order; ++j) {
      const double fd = (w2[static_cast<std::size_t>(j)] -
                         w1[static_cast<std::size_t>(j)]) / h;
      EXPECT_NEAR(dw[static_cast<std::size_t>(j)], fd, 1e-5) << u << " " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Ewald summation
// ---------------------------------------------------------------------------

/// NaCl rock-salt test lattice: 2x2x2 conventional cells, 64 ions.
struct NaclLattice {
  NaclLattice() {
    const double a = 5.64;  // lattice constant, A
    box = {2 * a, 2 * a, 2 * a};
    for (int z = 0; z < 4; ++z) {
      for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
          pos.push_back({x * a / 2, y * a / 2, z * a / 2});
          q.push_back((x + y + z) % 2 == 0 ? 1.0 : -1.0);
        }
      }
    }
    nearest = a / 2;
  }
  Vec3 box;
  std::vector<Vec3> pos;
  std::vector<double> q;
  double nearest;
};

TEST(EwaldTest, MadelungConstantOfRockSalt) {
  const NaclLattice lat;
  EwaldOptions opts;
  opts.alpha = 0.55;
  opts.r_cut = 5.6;
  opts.k_max = 16;
  const EwaldSum ewald(lat.box, opts);
  std::vector<Vec3> f(lat.pos.size());
  const ElecResult r = ewald.energy_forces(lat.pos, lat.q, f);
  // E per ion *pair* = -M * C / r_nearest with Madelung constant
  // M = 1.747565 (64 ions = 32 pairs).
  const double per_pair = r.total() / (0.5 * static_cast<double>(lat.pos.size()));
  const double madelung = -per_pair * lat.nearest / units::kCoulomb;
  EXPECT_NEAR(madelung, 1.747565, 2e-4);
  // Perfect lattice: forces vanish by symmetry.
  for (const Vec3& fi : f) EXPECT_LT(norm(fi), 1e-6);
}

TEST(EwaldTest, AlphaIndependence) {
  Rng rng(11);
  const Vec3 box{16, 16, 16};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 20; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 0.7 : -0.7);
  }
  auto total = [&](double alpha, double rcut, int kmax) {
    EwaldOptions o;
    o.alpha = alpha;
    o.r_cut = rcut;
    o.k_max = kmax;
    std::vector<Vec3> f(pos.size());
    return EwaldSum(box, o).energy_forces(pos, q, f).total();
  };
  const double e1 = total(0.40, 7.9, 12);
  const double e2 = total(0.55, 7.9, 16);
  EXPECT_NEAR(e1, e2, 1e-4 * std::fabs(e1) + 1e-4);
}

TEST(EwaldTest, ForcesMatchFiniteDifferenceOfTotal) {
  Rng rng(13);
  const Vec3 box{12, 12, 12};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 8; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 0.5 : -0.5);
  }
  EwaldOptions opts;
  opts.alpha = 0.5;
  opts.r_cut = 5.9;
  opts.k_max = 12;
  const EwaldSum ewald(box, opts);

  std::vector<Vec3> f(pos.size());
  ewald.energy_forces(pos, q, f);
  const double h = 1e-5;
  for (int i = 0; i < 3; ++i) {  // spot-check three atoms
    for (int d = 0; d < 3; ++d) {
      auto moved = pos;
      double* c = d == 0 ? &moved[static_cast<std::size_t>(i)].x
                  : d == 1 ? &moved[static_cast<std::size_t>(i)].y
                           : &moved[static_cast<std::size_t>(i)].z;
      std::vector<Vec3> tmp(pos.size());
      *c += h;
      const double ep = ewald.energy_forces(moved, q, tmp).total();
      *c -= 2 * h;
      std::fill(tmp.begin(), tmp.end(), Vec3{});
      const double em = ewald.energy_forces(moved, q, tmp).total();
      const double fd = -(ep - em) / (2 * h);
      const double fa = d == 0 ? f[static_cast<std::size_t>(i)].x
                        : d == 1 ? f[static_cast<std::size_t>(i)].y
                                 : f[static_cast<std::size_t>(i)].z;
      EXPECT_NEAR(fa, fd, 1e-4 * std::max(1.0, std::fabs(fd)));
    }
  }
}

TEST(EwaldTest, NewtonsThirdLawOverall) {
  Rng rng(17);
  const Vec3 box{14, 14, 14};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 16; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 0.4 : -0.4);
  }
  EwaldOptions opts;
  const EwaldSum ewald(box, opts);
  std::vector<Vec3> f(pos.size());
  ewald.energy_forces(pos, q, f);
  Vec3 total;
  for (const Vec3& fi : f) total += fi;
  EXPECT_LT(norm(total), 1e-8);
}

// ---------------------------------------------------------------------------
// PME vs Ewald
// ---------------------------------------------------------------------------

TEST(PmeTest, ReciprocalEnergyMatchesEwald) {
  Rng rng(19);
  const Vec3 box{16, 16, 16};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 24; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 0.6 : -0.6);
  }
  EwaldOptions eo;
  eo.alpha = 0.4;
  eo.k_max = 14;
  const EwaldSum ewald(box, eo);
  std::vector<Vec3> fe(pos.size());
  const double e_ref = ewald.reciprocal(pos, q, fe);

  PmeOptions po;
  po.alpha = 0.4;
  po.grid_x = po.grid_y = po.grid_z = 32;
  po.order = 4;
  const Pme pme(box, po);
  std::vector<Vec3> fp(pos.size());
  const double e_pme = pme.reciprocal(pos, q, fp);

  EXPECT_NEAR(e_pme, e_ref, 2e-3 * std::fabs(e_ref) + 1e-3);
  double max_df = 0.0, max_f = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    max_df = std::max(max_df, norm(fp[i] - fe[i]));
    max_f = std::max(max_f, norm(fe[i]));
  }
  EXPECT_LT(max_df, 0.02 * max_f + 1e-3);
}

TEST(PmeTest, FinerGridConverges) {
  Rng rng(23);
  const Vec3 box{12, 12, 12};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 10; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 0.8 : -0.8);
  }
  EwaldOptions eo;
  eo.alpha = 0.45;
  eo.k_max = 14;
  std::vector<Vec3> fe(pos.size());
  const double e_ref = EwaldSum(box, eo).reciprocal(pos, q, fe);

  auto pme_error = [&](int grid) {
    PmeOptions po;
    po.alpha = 0.45;
    po.grid_x = po.grid_y = po.grid_z = grid;
    std::vector<Vec3> fp(pos.size());
    return std::fabs(Pme(box, po).reciprocal(pos, q, fp) - e_ref);
  };
  const double coarse = pme_error(16);
  const double fine = pme_error(64);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(fine, 2e-4 * std::fabs(e_ref) + 1e-4);
}

TEST(PmeTest, MadelungViaPmePipeline) {
  // Full pipeline: PME reciprocal + Ewald real space + self energy.
  const NaclLattice lat;
  EwaldOptions eo;
  eo.alpha = 0.45;
  eo.r_cut = 5.6;
  const EwaldSum ewald(lat.box, eo);
  PmeOptions po;
  po.alpha = 0.45;
  po.grid_x = po.grid_y = po.grid_z = 32;
  const Pme pme(lat.box, po);

  std::vector<Vec3> f(lat.pos.size());
  const double total = ewald.real_space(lat.pos, lat.q, f) +
                       pme.reciprocal(lat.pos, lat.q, f) +
                       ewald.self_energy(lat.q);
  const double per_pair = total / (0.5 * static_cast<double>(lat.pos.size()));
  const double madelung = -per_pair * lat.nearest / units::kCoulomb;
  EXPECT_NEAR(madelung, 1.747565, 1e-3);
}

TEST(PmeTest, RandomNeutralSetsMatchEwaldDirectSum) {
  // Several independent random neutral charge sets (non-unit, non-symmetric
  // magnitudes): the PME reciprocal must track the direct structure-factor
  // sum in both energy and per-atom forces.
  for (std::uint64_t seed : {29u, 31u, 37u, 41u}) {
    Rng rng(seed);
    const Vec3 box{14, 18, 12};
    const int n = 6 + static_cast<int>(seed % 20);
    std::vector<Vec3> pos;
    std::vector<double> q;
    double qsum = 0.0;
    for (int i = 0; i < n; ++i) {
      pos.push_back(rng.point_in_box(box));
      q.push_back(rng.uniform(-1.0, 1.0));
      qsum += q.back();
    }
    for (double& qi : q) qi -= qsum / n;  // exactly neutral

    EwaldOptions eo;
    eo.alpha = 0.42;
    eo.k_max = 14;
    std::vector<Vec3> fe(pos.size());
    const double e_ref = EwaldSum(box, eo).reciprocal(pos, q, fe);

    PmeOptions po;
    po.alpha = 0.42;
    po.grid_x = po.grid_y = po.grid_z = 32;
    po.order = 4;
    std::vector<Vec3> fp(pos.size());
    const double e_pme = Pme(box, po).reciprocal(pos, q, fp);

    EXPECT_NEAR(e_pme, e_ref, 5e-3 * std::fabs(e_ref) + 2e-3) << "seed " << seed;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_LT(norm(fp[i] - fe[i]), 0.03 * norm(fe[i]) + 5e-3)
          << "seed " << seed << " atom " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Slab-decomposed parallel PME pipeline (pure math, no runtime)
// ---------------------------------------------------------------------------

namespace {

/// Drives the full slab pipeline in-process, exactly as the message-driven
/// runtime does but without any messages: spread -> 2D FFT -> forward
/// transpose -> convolve -> backward transpose -> inverse 2D FFT -> gather,
/// folding energy partials and force shares in slab order.
double run_slab_pipeline(const PmeSlabPlan& plan, std::span<const Vec3> pos,
                         std::span<const double> q, std::span<Vec3> f) {
  const int s_count = plan.slabs();
  std::vector<std::vector<std::complex<double>>> planes(
      static_cast<std::size_t>(s_count));
  std::vector<std::vector<std::complex<double>>> columns(
      static_cast<std::size_t>(s_count));
  std::vector<std::vector<PmeStencil>> stencils(static_cast<std::size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    planes[static_cast<std::size_t>(s)].assign(plan.plane_points(s), {0.0, 0.0});
    columns[static_cast<std::size_t>(s)].assign(plan.column_points(s), {0.0, 0.0});
    plan.stencils(s, pos, stencils[static_cast<std::size_t>(s)]);
    plan.spread(s, stencils[static_cast<std::size_t>(s)], q,
                planes[static_cast<std::size_t>(s)]);
    plan.plane_fft(s, planes[static_cast<std::size_t>(s)], /*inverse=*/false);
  }
  for (int src = 0; src < s_count; ++src) {
    for (int dst = 0; dst < s_count; ++dst) {
      const std::vector<double> block =
          plan.extract_fwd(src, dst, planes[static_cast<std::size_t>(src)]);
      plan.insert_fwd(src, dst, block, columns[static_cast<std::size_t>(dst)]);
    }
  }
  double energy = 0.0;
  for (int s = 0; s < s_count; ++s) {
    energy += plan.convolve(s, columns[static_cast<std::size_t>(s)]);
  }
  for (int src = 0; src < s_count; ++src) {
    for (int dst = 0; dst < s_count; ++dst) {
      const std::vector<double> block =
          plan.extract_bwd(src, dst, columns[static_cast<std::size_t>(src)]);
      plan.insert_bwd(src, dst, block, planes[static_cast<std::size_t>(dst)]);
    }
  }
  for (int s = 0; s < s_count; ++s) {
    plan.plane_fft(s, planes[static_cast<std::size_t>(s)], /*inverse=*/true);
    plan.gather(s, stencils[static_cast<std::size_t>(s)], q,
                planes[static_cast<std::size_t>(s)], f);
  }
  return energy;
}

}  // namespace

TEST(PmeSlabTest, PipelineMatchesSequentialReciprocal) {
  // The slab decomposition with transposes must reproduce the monolithic
  // Pme::reciprocal for every slab count, including slab counts that do not
  // divide the grid. Differences are summation-order only, so the bound is
  // tight.
  Rng rng(4242);
  const Vec3 box{13, 11, 12};
  const int n = 23;
  std::vector<Vec3> pos;
  std::vector<double> q;
  double qsum = 0.0;
  for (int i = 0; i < n; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(rng.uniform(-1.0, 1.0));
    qsum += q.back();
  }
  for (double& qi : q) qi -= qsum / n;

  PmeOptions po;
  po.alpha = 0.46;
  po.grid_x = 16;
  po.grid_y = 8;
  po.grid_z = 16;
  po.order = 4;
  std::vector<Vec3> f_ref(pos.size());
  const double e_ref = Pme(box, po).reciprocal(pos, q, f_ref);

  double f_scale = 0.0;
  for (const Vec3& v : f_ref) f_scale = std::max(f_scale, norm(v));

  for (int slabs : {1, 2, 3, 4, 7}) {
    const PmeSlabPlan plan(box, po, slabs);
    std::vector<Vec3> f(pos.size());
    const double e = run_slab_pipeline(plan, pos, q, f);
    EXPECT_NEAR(e, e_ref, 1e-10 * std::fabs(e_ref)) << "slabs " << slabs;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_LT(norm(f[i] - f_ref[i]), 1e-9 * std::max(1.0, f_scale))
          << "slabs " << slabs << " atom " << i;
    }
  }
}

TEST(PmeSlabTest, SlabCountIsPartOfTheNumericsContract) {
  // Two pipelines with the same slab count agree bitwise; the ranges
  // partition the grid exactly.
  const Vec3 box{12, 12, 12};
  PmeOptions po;
  po.grid_x = po.grid_y = po.grid_z = 8;
  const PmeSlabPlan plan(box, po, 3);
  int z_total = 0, y_total = 0;
  for (int s = 0; s < plan.slabs(); ++s) {
    EXPECT_EQ(plan.z_begin(s), s == 0 ? 0 : plan.z_end(s - 1));
    EXPECT_EQ(plan.y_begin(s), s == 0 ? 0 : plan.y_end(s - 1));
    z_total += plan.z_end(s) - plan.z_begin(s);
    y_total += plan.y_end(s) - plan.y_begin(s);
  }
  EXPECT_EQ(z_total, po.grid_z);
  EXPECT_EQ(y_total, po.grid_y);

  Rng rng(7);
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 12; ++i) {
    pos.push_back(rng.point_in_box(box));
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  std::vector<Vec3> fa(pos.size()), fb(pos.size());
  const double ea = run_slab_pipeline(plan, pos, q, fa);
  const double eb = run_slab_pipeline(plan, pos, q, fb);
  EXPECT_EQ(ea, eb);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(fa[i].x, fb[i].x);
    EXPECT_EQ(fa[i].y, fb[i].y);
    EXPECT_EQ(fa[i].z, fb[i].z);
  }
}

TEST(PmeSlabTest, SlabPlanesTileTheOneSlabGridBitwise) {
  // Each slab builds stencils only for the atoms whose z-window reaches its
  // planes; laid end to end, the slabs' spread planes must still be the
  // one-slab grid bit for bit. A quarter of the atoms sit just above z = 0
  // and a quarter just below z = box, so their stencils wrap.
  Rng rng(99);
  const Vec3 box{13, 11, 12};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 40; ++i) {
    Vec3 r = rng.point_in_box(box);
    if (i % 4 == 0) r.z = rng.uniform(0.0, 0.3);
    if (i % 4 == 1) r.z = box.z - rng.uniform(0.0, 0.3);
    pos.push_back(r);
    q.push_back(rng.uniform(-1.0, 1.0));
  }
  for (int order : {4, 6}) {
    PmeOptions po;
    po.grid_x = 16;
    po.grid_y = 8;
    po.grid_z = 16;
    po.order = order;
    const PmeSlabPlan whole(box, po, 1);
    std::vector<PmeStencil> stencils;
    whole.stencils(0, pos, stencils);
    ASSERT_EQ(stencils.size(), pos.size());
    std::vector<std::complex<double>> grid(whole.plane_points(0));
    whole.spread(0, stencils, q, grid);

    for (int slabs : {2, 3, 4, 7}) {
      const PmeSlabPlan plan(box, po, slabs);
      std::vector<std::complex<double>> tiled;
      std::size_t built = 0;
      for (int s = 0; s < slabs; ++s) {
        plan.stencils(s, pos, stencils);
        built += stencils.size();
        std::vector<std::complex<double>> planes(plan.plane_points(s));
        plan.spread(s, stencils, q, planes);
        tiled.insert(tiled.end(), planes.begin(), planes.end());
        if (s == slabs - 1) {
          // The atoms just above z = 0 wrap onto the top planes.
          bool wrapped = false;
          for (const PmeStencil& st : stencils) wrapped = wrapped || st.atom % 4 == 0;
          EXPECT_TRUE(wrapped) << "order " << order << " slabs " << slabs;
        }
      }
      EXPECT_LT(built, static_cast<std::size_t>(slabs) * pos.size())
          << "order " << order << " slabs " << slabs << ": no atom was filtered";
      ASSERT_EQ(tiled.size(), grid.size());
      EXPECT_EQ(std::memcmp(tiled.data(), grid.data(),
                            grid.size() * sizeof(std::complex<double>)),
                0)
          << "order " << order << " slabs " << slabs;
    }
  }
}

// The unit label builds with -DNDEBUG, so these checks must hold there:
// order 9 would write past the 8-wide stencil arrays.
TEST(PmeSlabTest, ConstructorsRejectBadOptionsInEveryBuild) {
  const Vec3 box{12, 12, 12};
  const auto expect_invalid = [](const auto& make, const char* rule) {
    try {
      make();
      ADD_FAILURE() << "accepted; expected an error naming '" << rule << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << e.what();
    }
  };
  PmeOptions ok;
  ok.grid_x = ok.grid_y = ok.grid_z = 8;
  EXPECT_NO_THROW((void)Pme(box, ok));
  EXPECT_NO_THROW((void)PmeSlabPlan(box, ok, 3));

  struct Bad {
    const char* rule;
    void (*edit)(PmeOptions&);
  };
  const Bad bad[] = {
      {"order", [](PmeOptions& o) { o.order = 9; }},
      {"order", [](PmeOptions& o) { o.order = 1; }},
      {"grid_x", [](PmeOptions& o) { o.grid_x = 12; }},
      {"grid_y", [](PmeOptions& o) { o.grid_y = 0; }},
      {"grid_z", [](PmeOptions& o) { o.grid_z = -8; }},
      {"order", [](PmeOptions& o) { o.grid_y = 4, o.order = 6; }},
  };
  for (const Bad& b : bad) {
    PmeOptions o = ok;
    b.edit(o);
    EXPECT_NE(pme_grid_error(o.grid_x, o.grid_y, o.grid_z, o.order), nullptr);
    expect_invalid([&] { (void)Pme(box, o); }, b.rule);
    expect_invalid([&] { (void)PmeSlabPlan(box, o, 2); }, b.rule);
  }
  expect_invalid([&] { (void)PmeSlabPlan(box, ok, 0); }, "slab");
  expect_invalid([&] { (void)PmeSlabPlan(box, ok, -2); }, "slab");
}

// ---------------------------------------------------------------------------
// Full-electrostatics options + sequential reference path
// ---------------------------------------------------------------------------

TEST(FullElecTest, OptionValidationNamesOffendingField) {
  FullElecOptions fe;
  EXPECT_EQ(full_elec_error(fe), nullptr) << "disabled options always pass";
  fe.enabled = true;
  EXPECT_EQ(full_elec_error(fe), nullptr) << "defaults are valid";

  auto expect_error = [](FullElecOptions bad, const char* needle) {
    const char* err = full_elec_error(bad);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(std::string(err).find(needle), std::string::npos) << err;
  };
  FullElecOptions bad;
  bad.enabled = true;
  bad.alpha = 0.0;
  expect_error(bad, "alpha");
  bad = FullElecOptions{};
  bad.enabled = true;
  bad.grid_x = 33;
  expect_error(bad, "grid_x");
  bad = FullElecOptions{};
  bad.enabled = true;
  bad.grid_y = 2;
  expect_error(bad, "grid_y");
  bad = FullElecOptions{};
  bad.enabled = true;
  bad.grid_z = 512;
  expect_error(bad, "grid_z");
  bad = FullElecOptions{};
  bad.enabled = true;
  bad.order = 9;
  expect_error(bad, "order");
  bad = FullElecOptions{};
  bad.enabled = true;
  bad.grid_x = 4;
  bad.order = 6;
  expect_error(bad, "order");
}

namespace {

EngineOptions charged_engine_options() {
  EngineOptions opts;
  opts.nonbonded.cutoff = 6.5;
  opts.nonbonded.switch_dist = 5.5;
  opts.nonbonded.full_elec.enabled = true;
  // alpha ~ 3/cutoff keeps the erfc tail at the cutoff below 3e-5, so the
  // truncation step the kernels inherit from the cutoff scheme is tiny.
  opts.nonbonded.full_elec.alpha = 0.46;
  opts.nonbonded.full_elec.grid_x = 16;
  opts.nonbonded.full_elec.grid_y = 16;
  opts.nonbonded.full_elec.grid_z = 16;
  opts.nonbonded.full_elec.order = 4;
  return opts;
}

Molecule charged_test_box(std::uint64_t seed) {
  TestSystemOptions sys;
  sys.kind = TestSystemKind::kWaterBox;
  sys.box = {13.0, 13.0, 13.0};
  sys.ion_pairs = 3;
  sys.temperature = 300.0;
  sys.seed = seed;
  return make_test_system(sys);
}

}  // namespace

TEST(FullElecTest, ChargedPresetIsNetNeutral) {
  const Molecule mol = charged_test_box(77);
  double qsum = 0.0;
  int ions = 0;
  for (const auto& a : mol.atoms()) {
    qsum += a.charge;
    if (std::fabs(std::fabs(a.charge) - 1.0) < 1e-12) ++ions;
  }
  EXPECT_NEAR(qsum, 0.0, 1e-9);
  EXPECT_EQ(ions, 6);
}

TEST(FullElecTest, SeqForcesMatchFiniteDifferenceOfPotential) {
  const Molecule mol = charged_test_box(78);
  SequentialEngine engine(mol, charged_engine_options());
  std::vector<Vec3> f(engine.forces().begin(), engine.forces().end());

  const double h = 2e-5;
  // The engine removes the reciprocal forces' net force (mesh interpolation
  // does not conserve momentum): each atom's force is the potential's
  // negative gradient less 1/N of the gradient's sum. That sum is the
  // potential's derivative under a translation of every atom.
  const auto net_force = [&](int d) {
    auto shift = [&](double delta) {
      for (Vec3& p : engine.mutable_positions()) {
        (d == 0 ? p.x : d == 1 ? p.y : p.z) += delta;
      }
      engine.compute_forces();
      const double e = engine.potential().total();
      for (Vec3& p : engine.mutable_positions()) {
        (d == 0 ? p.x : d == 1 ? p.y : p.z) -= delta;
      }
      return e;
    };
    const double ep = shift(h);
    const double em = shift(-h);
    return -(ep - em) / (2 * h);
  };
  const double n = mol.atom_count();
  // Spot-check a few atoms, including an ion (ions were added first, so low
  // indices hit them when present).
  for (int i : {0, 1, 7}) {
    for (int d = 0; d < 3; ++d) {
      auto probe = [&](double delta) {
        auto p = engine.mutable_positions();
        double* c = d == 0 ? &p[static_cast<std::size_t>(i)].x
                    : d == 1 ? &p[static_cast<std::size_t>(i)].y
                             : &p[static_cast<std::size_t>(i)].z;
        *c += delta;
        engine.compute_forces();
        const double e = engine.potential().total();
        *c -= delta;
        return e;
      };
      const double ep = probe(h);
      const double em = probe(-h);
      const double fd = -(ep - em) / (2 * h) - net_force(d) / n;
      engine.compute_forces();  // restore
      const double fa = d == 0 ? f[static_cast<std::size_t>(i)].x
                        : d == 1 ? f[static_cast<std::size_t>(i)].y
                                 : f[static_cast<std::size_t>(i)].z;
      EXPECT_NEAR(fa, fd, 2e-3 * std::max(1.0, std::fabs(fd)))
          << "atom " << i << " dim " << d;
    }
  }
}

TEST(FullElecTest, SeqEnergyApproximatelyConserved) {
  const Molecule mol = charged_test_box(79);
  EngineOptions opts = charged_engine_options();
  opts.dt_fs = 0.5;
  SequentialEngine engine(mol, opts);
  const double e0 = engine.total_energy();
  engine.run(25);
  const double e1 = engine.total_energy();
  EXPECT_NEAR(e1, e0, 0.02 * std::fabs(e0) + 0.5);
}

TEST(FullElecTest, KernelsAgreeInFullElecMode) {
  // The erfc substitution must preserve the scalar/tiled agreement contract:
  // identical pair math, differing only in summation order (the same bound
  // the cutoff kernels carry; the golden matrix pins it ULP-tight).
  const Molecule mol = charged_test_box(80);
  EngineOptions scalar_opts = charged_engine_options();
  scalar_opts.nonbonded.kernel = NonbondedKernel::kScalar;
  EngineOptions tiled_opts = charged_engine_options();
  tiled_opts.nonbonded.kernel = NonbondedKernel::kTiled;
  SequentialEngine a(mol, scalar_opts);
  SequentialEngine b(mol, tiled_opts);
  a.run(3);
  b.run(3);
  ASSERT_EQ(a.positions().size(), b.positions().size());
  for (std::size_t i = 0; i < a.positions().size(); ++i) {
    EXPECT_NEAR(norm(a.positions()[i] - b.positions()[i]), 0.0, 1e-10) << i;
  }
  EXPECT_NEAR(a.potential().elec, b.potential().elec,
              1e-11 * std::fabs(a.potential().elec));
  EXPECT_EQ(a.work().pairs_computed, b.work().pairs_computed);
}

TEST(FullElecTest, ExclusionCorrectionsMatchFiniteDifference) {
  // The erf-complement correction term on its own must be a consistent
  // gradient of its energy.
  const Molecule mol = charged_test_box(81);
  const ExclusionTable excl = ExclusionTable::build(mol);
  std::vector<double> q;
  for (const auto& a : mol.atoms()) q.push_back(a.charge);
  std::vector<Vec3> pos(mol.positions().begin(), mol.positions().end());
  const double alpha = 0.46;

  std::vector<Vec3> f(pos.size());
  full_elec_exclusion_corrections(excl, mol.params, alpha, q, pos, f, 0, 1);
  const double h = 1e-6;
  const int i = 1;  // a water hydrogen: has excluded partners
  for (int d = 0; d < 3; ++d) {
    double* c = d == 0 ? &pos[i].x : d == 1 ? &pos[i].y : &pos[i].z;
    std::vector<Vec3> tmp(pos.size());
    *c += h;
    const double ep =
        full_elec_exclusion_corrections(excl, mol.params, alpha, q, pos, tmp, 0, 1);
    *c -= 2 * h;
    const double em =
        full_elec_exclusion_corrections(excl, mol.params, alpha, q, pos, tmp, 0, 1);
    *c += h;
    const double fd = -(ep - em) / (2 * h);
    const double fa = d == 0 ? f[i].x : d == 1 ? f[i].y : f[i].z;
    EXPECT_NEAR(fa, fd, 1e-4 * std::max(1.0, std::fabs(fd))) << d;
  }
}

TEST(FullElecTest, StridedPartitionsSumToWhole) {
  // The (rem, stride) partition used by the parallel PME slabs must cover
  // every correction pair and every self-energy term exactly once.
  const Molecule mol = charged_test_box(82);
  const ExclusionTable excl = ExclusionTable::build(mol);
  std::vector<double> q;
  for (const auto& a : mol.atoms()) q.push_back(a.charge);
  const std::vector<Vec3> pos(mol.positions().begin(), mol.positions().end());
  const double alpha = 0.46;

  std::vector<Vec3> whole_f(pos.size());
  const double whole_e =
      full_elec_exclusion_corrections(excl, mol.params, alpha, q, pos, whole_f, 0, 1);
  const double whole_self = ewald_self_energy_strided(alpha, q, 0, 1);

  const int stride = 5;
  double part_e = 0.0, part_self = 0.0;
  std::vector<Vec3> part_f(pos.size());
  for (int rem = 0; rem < stride; ++rem) {
    part_e += full_elec_exclusion_corrections(excl, mol.params, alpha, q, pos,
                                              part_f, rem, stride);
    part_self += ewald_self_energy_strided(alpha, q, rem, stride);
  }
  EXPECT_NEAR(part_e, whole_e, 1e-10 * std::fabs(whole_e) + 1e-12);
  EXPECT_NEAR(part_self, whole_self, 1e-10 * std::fabs(whole_self));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(norm(part_f[i] - whole_f[i]), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace scalemd
