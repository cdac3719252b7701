#pragma once

#include <complex>
#include <span>
#include <vector>

#include "ewald/pme.hpp"
#include "util/vec3.hpp"

namespace scalemd {

/// Geometry and per-slab math for the slab-decomposed parallel PME pipeline.
///
/// The 3D reciprocal solve is split over S slab objects. Each slab plays two
/// roles within one pipeline round:
///
///   plane role  - slab i owns the contiguous z-plane range
///                 [z_begin(i), z_end(i)): it builds the stencils of the
///                 atoms whose z-window reaches those planes (in global atom
///                 order), spreads their charges, runs the x/y 2D FFTs and,
///                 on the way back, the inverse y/x FFTs plus force
///                 gathering with the same stencils;
///   column role - slab i owns the y-row range [y_begin(i), y_end(i)) at full
///                 z extent: the z FFT, the influence-function convolution
///                 (producing this slab's reciprocal-energy partial) and the
///                 inverse z FFT.
///
/// Between the roles the grid is re-laid out by all-to-all transpose blocks
/// (extract_fwd/insert_fwd forward, extract_bwd/insert_bwd backward). Every
/// block covers a disjoint grid region, so blocks may be inserted in any
/// arrival order without changing a single bit.
///
/// The stencil, spread and gather kernels, the FFT plans and the influence
/// table are the PmeKernels the sequential Pme runs too; a slab runs them
/// over its own planes. No per-round routine allocates, apart from
/// `stencils` growing its output and the extract_* blocks, which become
/// messages.
///
/// Every routine is a deterministic pure function of its inputs: with the
/// same slab count, two runs produce bitwise-identical grids, energy
/// partials and force shares regardless of which PE a slab is placed on or
/// how the transpose messages interleave. The slab count S *is* part of the
/// numerics contract (it partitions the gather, the reciprocal-energy sum
/// and the exclusion-correction work), which is why the differential tests
/// hold S fixed while sweeping PE counts, LB strategies and backends.
///
/// Atom arrays (`pos`, `q`, `f`) are indexed by global atom id, the same
/// order the sequential Pme uses; the forward half of the pipeline (spread,
/// x/y/z FFTs, influence) therefore reproduces the sequential grid values
/// bit-for-bit, and only the partitioned sums (energy, gather, corrections)
/// differ from sequential by summation order.
class PmeSlabPlan {
 public:
  /// Throws std::invalid_argument on options pme_grid_error rejects or on
  /// fewer than one slab.
  PmeSlabPlan(const Vec3& box, const PmeOptions& opts, int slabs);

  int slabs() const { return slabs_; }
  const PmeOptions& options() const { return kernels_.options(); }

  /// Plane-role ownership: contiguous z-plane range of slab i.
  int z_begin(int slab) const;
  int z_end(int slab) const;
  /// Column-role ownership: contiguous y-row range of slab i.
  int y_begin(int slab) const;
  int y_end(int slab) const;

  /// Complex points in slab i's plane chunk: (z_end - z_begin) * ky * kx,
  /// laid out (z - z_begin, y, x) with x contiguous.
  std::size_t plane_points(int slab) const;
  /// Complex points in slab i's column chunk: (y_end - y_begin) * kx * kz,
  /// laid out (y - y_begin, x, z) with z contiguous.
  std::size_t column_points(int slab) const;
  /// Doubles (2 per complex) in the transpose block from plane slab `src`
  /// to column slab `dst` (forward) — the backward block dst -> src has the
  /// same size.
  std::size_t block_doubles(int src, int dst) const;

  /// Replaces `out` with the stencils of the atoms whose z-window reaches
  /// slab i's planes, in global atom order. The slab keeps them from its
  /// spread to its gather.
  void stencils(int slab, std::span<const Vec3> pos,
                std::vector<PmeStencil>& out) const;

  /// Spreads the stencils' charges onto the grid points falling inside slab
  /// i's z-planes, accumulating into `planes` (zeroed by the caller) in
  /// global atom order.
  void spread(int slab, std::span<const PmeStencil> stencils, std::span<const double> q,
              std::span<std::complex<double>> planes) const;

  /// 2D FFT of every owned z-plane: rows along x then columns along y
  /// (forward), unwound y then x (inverse, unnormalized like
  /// FftPlan::transform).
  void plane_fft(int slab, std::span<std::complex<double>> planes,
                 bool inverse) const;

  /// Forward transpose block: (z in src's planes) x (y in dst's rows) x
  /// (all x), flattened z-major as [re, im] pairs.
  std::vector<double> extract_fwd(int src, int dst,
                                  std::span<const std::complex<double>> planes) const;
  void insert_fwd(int src, int dst, std::span<const double> block,
                  std::span<std::complex<double>> columns) const;

  /// Column role: z FFT of every owned (y, x) line, influence-function
  /// multiply (zeroing k = 0), inverse z FFT. Returns this slab's
  /// reciprocal-energy partial, accumulated in fixed (y, x, z) order.
  double convolve(int slab, std::span<std::complex<double>> columns) const;

  /// Backward transpose block: same (z, y, x) region as the forward block
  /// dst -> src, read out of `columns`.
  std::vector<double> extract_bwd(int src, int dst,
                                  std::span<const std::complex<double>> columns) const;
  void insert_bwd(int src, int dst, std::span<const double> block,
                  std::span<std::complex<double>> planes) const;

  /// Accumulates each stencil's force share from slab i's z-planes of the
  /// convolved potential grid: f[i] -= q[i] * grad_i, stencil points outside
  /// the slab left for their owners. `stencils` are the ones this slab
  /// spread. Summed over slabs in slab order this reproduces the sequential
  /// gather up to summation order.
  void gather(int slab, std::span<const PmeStencil> stencils, std::span<const double> q,
              std::span<const std::complex<double>> planes,
              std::span<Vec3> f) const;

 private:
  PmeKernels kernels_;
  int slabs_;
};

}  // namespace scalemd
