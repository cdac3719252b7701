#pragma once

#include <span>
#include <utility>
#include <vector>

#include "util/vec3.hpp"

namespace scalemd {

/// Integer cell coordinates.
struct Int3 {
  int x = 0, y = 0, z = 0;
  friend bool operator==(const Int3&, const Int3&) = default;
};

/// Uniform grid of cells (the paper's "cubes") covering a box. Cell edges
/// are >= min_cell in every dimension, so atoms in one cell interact only
/// with the 26 surrounding cells when min_cell >= the cutoff. Shared by the
/// sequential cell-list evaluator and the parallel patch decomposition.
class CellGrid {
 public:
  /// Splits `box` into floor(box/min_cell) cells per dimension (at least 1).
  CellGrid(const Vec3& box, double min_cell);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int cell_count() const { return nx_ * ny_ * nz_; }

  /// Linear index of the cell containing `p` (clamped into the grid, so
  /// atoms that drift outside the box remain owned by edge cells; a NaN
  /// coordinate counts as 0 on its axis).
  int cell_of(const Vec3& p) const;

  Int3 coords(int index) const;
  int index(const Int3& c) const { return (c.z * ny_ + c.y) * nx_ + c.x; }
  bool in_grid(const Int3& c) const {
    return c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_ && c.z >= 0 && c.z < nz_;
  }

  /// Geometric center of a cell, used by recursive-bisection placement.
  Vec3 cell_center(int index) const;

  /// Every unordered pair of distinct neighboring cells (sharing a face,
  /// edge or corner), each listed exactly once with first < second.
  std::vector<std::pair<int, int>> neighbor_pairs() const;

  /// The paper's *upstream* neighbors of `c`: the (at most 7) in-grid cells
  /// at coordinates >= c along every axis, excluding c itself.
  std::vector<int> upstream_neighbors(int index) const;

  /// True if the two cells (which must be neighbors) share a face — the
  /// distinction Figure 1's bimodal grain-size distribution hinges on.
  bool share_face(int a, int b) const;

 private:
  Vec3 box_;
  double inv_cx_, inv_cy_, inv_cz_;
  int nx_, ny_, nz_;
};

/// CSR assignment of atoms to cells, rebuilt per force evaluation by the
/// sequential engine.
class CellList {
 public:
  CellList(const CellGrid& grid, std::span<const Vec3> pos);

  /// Atom indices (into `pos` as passed to the constructor) in cell `c`.
  std::span<const int> atoms_in(int c) const;

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<int> atoms_;
};

}  // namespace scalemd
