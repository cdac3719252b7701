#pragma once

#include <array>
#include <complex>
#include <span>
#include <vector>

#include "ewald/ewald.hpp"
#include "ewald/fft.hpp"
#include "ff/nonbonded.hpp"
#include "util/vec3.hpp"

namespace scalemd {

/// Smooth particle-mesh Ewald options. Grid dimensions must be powers of
/// two (the in-house FFT is radix-2); `order` is the cardinal B-spline
/// interpolation order (4 = the standard choice).
struct PmeOptions {
  double alpha = 0.35;  ///< same splitting parameter as the real-space part
  int grid_x = 32;
  int grid_y = 32;
  int grid_z = 32;
  int order = 4;
};

/// One atom's interpolation stencil: for each axis, the `order` wrapped grid
/// indices its charge touches (starting at floor(u) - order + 1) with the
/// B-spline weights and their derivatives there. Entries past `order` are
/// unused.
struct PmeStencil {
  int atom = 0;  ///< index into the position and charge arrays
  std::array<int, kMaxPmeOrder> ix{}, iy{}, iz{};
  std::array<double, kMaxPmeOrder> wx{}, wy{}, wz{}, dx{}, dy{}, dz{};
};

/// The kernels and tables both PME paths share: the sequential Pme runs them
/// over the whole grid, and each slab of the parallel pipeline
/// (PmeSlabPlan) over its own z-planes. The tables — per-axis FFT plans and
/// the influence function — depend only on the box, alpha and the grid, so
/// they are built once here. No kernel allocates, apart from
/// build_stencils growing its output vector.
///
/// A z-range [z0, z1) names contiguous grid planes, stored (z - z0, y, x)
/// with x contiguous; the whole grid is the range [0, grid_z).
class PmeKernels {
 public:
  /// Throws std::invalid_argument naming the rule pme_grid_error reports.
  PmeKernels(const Vec3& box, const PmeOptions& opts);

  const PmeOptions& options() const { return opts_; }
  const FftPlan& fft_x() const { return fft_x_; }
  const FftPlan& fft_y() const { return fft_y_; }
  const FftPlan& fft_z() const { return fft_z_; }

  /// Ewald influence function at wave index (mx, my, mz), B-spline moduli
  /// included. The k = 0 entry is unused: callers zero that grid point.
  double influence(int mx, int my, int mz) const {
    const auto kx = static_cast<std::size_t>(opts_.grid_x);
    const auto kz = static_cast<std::size_t>(opts_.grid_z);
    return influence_[(static_cast<std::size_t>(my) * kx + static_cast<std::size_t>(mx)) * kz +
                      static_cast<std::size_t>(mz)];
  }

  /// Replaces `out` with the stencils of the atoms whose z-window reaches a
  /// plane in [z0, z1), in atom order.
  void build_stencils(std::span<const Vec3> pos, int z0, int z1,
                      std::vector<PmeStencil>& out) const;

  /// Adds each stencil's charge q[atom] onto the planes in [z0, z1), in
  /// stencil order.
  void spread(std::span<const PmeStencil> stencils, std::span<const double> q, int z0,
              int z1, std::span<std::complex<double>> planes) const;

  /// f[atom] -= q[atom] * grad for every stencil, with the gradient of the
  /// potential on the planes in [z0, z1) only: each slab adds its own share.
  void gather(std::span<const PmeStencil> stencils, std::span<const double> q, int z0,
              int z1, std::span<const std::complex<double>> planes,
              std::span<Vec3> f) const;

 private:
  Vec3 box_;
  PmeOptions opts_;
  FftPlan fft_x_, fft_y_, fft_z_;
  /// Indexed (my, mx, mz) with mz contiguous, the slab columns' layout.
  std::vector<double> influence_;
};

/// Smooth particle-mesh Ewald (Essmann et al. 1995): the O(N log N)
/// grid-based reciprocal-space solver — the "global grid-based component"
/// the paper's full-electrostatics discussion refers to, and reference [14]
/// [16]'s subject. Charges are spread onto a periodic grid with cardinal
/// B-splines, convolved with the Ewald influence function via FFT, and
/// forces come from analytic B-spline derivatives. Pair it with
/// EwaldSum::real_space (same alpha) and EwaldSum::self_energy for the full
/// electrostatic energy.
class Pme {
 public:
  /// Throws std::invalid_argument on options pme_grid_error rejects.
  Pme(const Vec3& box, const PmeOptions& opts);

  /// Reciprocal-space energy; forces accumulated into `f`.
  double reciprocal(std::span<const Vec3> pos, std::span<const double> q,
                    std::span<Vec3> f) const;

  const PmeOptions& options() const { return kernels_.options(); }

 private:
  PmeKernels kernels_;
};

/// Cardinal B-spline values M_order(u - j) and derivatives for the `order`
/// grid points an atom at fractional offset u in [0,1) touches. Exposed for
/// tests (partition of unity, derivative consistency); throws
/// std::invalid_argument unless order is in [2, kMaxPmeOrder] and both
/// spans hold `order` values.
void bspline_weights(double u, int order, std::span<double> w, std::span<double> dw);

/// |b(m)|^2 Euler exponential-spline modulus for one grid dimension of size
/// `n`. Feeds the influence table of PmeKernels, which both PME paths share
/// so they agree bit-for-bit on the influence function.
std::vector<double> pme_bspline_moduli(int n, int order);

}  // namespace scalemd
