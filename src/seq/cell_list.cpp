#include "seq/cell_list.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace scalemd {

CellGrid::CellGrid(const Vec3& box, double min_cell) : box_(box) {
  assert(min_cell > 0.0);
  // Epsilon guards the exact-multiple case (e.g. 105.6 / 17.6 == 6) against
  // round-down from floating-point representation error.
  nx_ = std::max(1, static_cast<int>(box.x / min_cell + 1e-9));
  ny_ = std::max(1, static_cast<int>(box.y / min_cell + 1e-9));
  nz_ = std::max(1, static_cast<int>(box.z / min_cell + 1e-9));
  inv_cx_ = nx_ / box.x;
  inv_cy_ = ny_ / box.y;
  inv_cz_ = nz_ / box.z;
}

int CellGrid::cell_of(const Vec3& p) const {
  // Clamp in double before the cast: a coordinate far outside the box would
  // not fit an int, and NaN (which fails every comparison) lands in cell 0.
  const auto axis = [](double u, double inv, int n) {
    const double c = u * inv;
    return c >= 0.0 ? static_cast<int>(std::min(c, n - 1.0)) : 0;
  };
  return index({axis(p.x, inv_cx_, nx_), axis(p.y, inv_cy_, ny_), axis(p.z, inv_cz_, nz_)});
}

Int3 CellGrid::coords(int index) const {
  const int x = index % nx_;
  const int y = (index / nx_) % ny_;
  const int z = index / (nx_ * ny_);
  return {x, y, z};
}

Vec3 CellGrid::cell_center(int index) const {
  const Int3 c = coords(index);
  return {(c.x + 0.5) / inv_cx_, (c.y + 0.5) / inv_cy_, (c.z + 0.5) / inv_cz_};
}

std::vector<std::pair<int, int>> CellGrid::neighbor_pairs() const {
  std::vector<std::pair<int, int>> pairs;
  for (int z = 0; z < nz_; ++z) {
    for (int y = 0; y < ny_; ++y) {
      for (int x = 0; x < nx_; ++x) {
        const int a = index({x, y, z});
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const Int3 n{x + dx, y + dy, z + dz};
              if (!in_grid(n)) continue;
              const int b = index(n);
              if (a < b) pairs.emplace_back(a, b);
            }
          }
        }
      }
    }
  }
  return pairs;
}

std::vector<int> CellGrid::upstream_neighbors(int idx) const {
  const Int3 c = coords(idx);
  std::vector<int> out;
  out.reserve(7);
  for (int dz = 0; dz <= 1; ++dz) {
    for (int dy = 0; dy <= 1; ++dy) {
      for (int dx = 0; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const Int3 n{c.x + dx, c.y + dy, c.z + dz};
        if (in_grid(n)) out.push_back(index(n));
      }
    }
  }
  return out;
}

bool CellGrid::share_face(int a, int b) const {
  const Int3 ca = coords(a);
  const Int3 cb = coords(b);
  const int dx = std::abs(ca.x - cb.x);
  const int dy = std::abs(ca.y - cb.y);
  const int dz = std::abs(ca.z - cb.z);
  return dx + dy + dz == 1;
}

CellList::CellList(const CellGrid& grid, std::span<const Vec3> pos) {
  const int nc = grid.cell_count();
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(nc) + 1, 0);
  std::vector<int> cell_of(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    cell_of[i] = grid.cell_of(pos[i]);
    ++counts[static_cast<std::size_t>(cell_of[i]) + 1];
  }
  for (int c = 0; c < nc; ++c) counts[c + 1] += counts[c];
  offsets_ = counts;
  atoms_.resize(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    atoms_[counts[static_cast<std::size_t>(cell_of[i])]++] = static_cast<int>(i);
  }
}

std::span<const int> CellList::atoms_in(int c) const {
  const auto lo = offsets_[static_cast<std::size_t>(c)];
  const auto hi = offsets_[static_cast<std::size_t>(c) + 1];
  return {atoms_.data() + lo, hi - lo};
}

}  // namespace scalemd
