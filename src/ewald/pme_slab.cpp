#include "ewald/pme_slab.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace scalemd {

namespace {

/// Balanced contiguous partition of [0, n) into `parts` ranges.
int range_begin(int n, int parts, int i) {
  return static_cast<int>((static_cast<long long>(n) * i) / parts);
}

int checked_slabs(int slabs) {
  if (slabs < 1) {
    throw std::invalid_argument("PME slab count must be at least 1, got " +
                                std::to_string(slabs));
  }
  return slabs;
}

}  // namespace

PmeSlabPlan::PmeSlabPlan(const Vec3& box, const PmeOptions& opts, int slabs)
    : kernels_(box, opts), slabs_(checked_slabs(slabs)) {}

int PmeSlabPlan::z_begin(int slab) const {
  return range_begin(options().grid_z, slabs_, slab);
}
int PmeSlabPlan::z_end(int slab) const {
  return range_begin(options().grid_z, slabs_, slab + 1);
}
int PmeSlabPlan::y_begin(int slab) const {
  return range_begin(options().grid_y, slabs_, slab);
}
int PmeSlabPlan::y_end(int slab) const {
  return range_begin(options().grid_y, slabs_, slab + 1);
}

std::size_t PmeSlabPlan::plane_points(int slab) const {
  return static_cast<std::size_t>(z_end(slab) - z_begin(slab)) *
         static_cast<std::size_t>(options().grid_y) *
         static_cast<std::size_t>(options().grid_x);
}

std::size_t PmeSlabPlan::column_points(int slab) const {
  return static_cast<std::size_t>(y_end(slab) - y_begin(slab)) *
         static_cast<std::size_t>(options().grid_x) *
         static_cast<std::size_t>(options().grid_z);
}

std::size_t PmeSlabPlan::block_doubles(int src, int dst) const {
  return 2 * static_cast<std::size_t>(z_end(src) - z_begin(src)) *
         static_cast<std::size_t>(y_end(dst) - y_begin(dst)) *
         static_cast<std::size_t>(options().grid_x);
}

void PmeSlabPlan::stencils(int slab, std::span<const Vec3> pos,
                           std::vector<PmeStencil>& out) const {
  kernels_.build_stencils(pos, z_begin(slab), z_end(slab), out);
}

void PmeSlabPlan::spread(int slab, std::span<const PmeStencil> stencils,
                         std::span<const double> q,
                         std::span<std::complex<double>> planes) const {
  assert(planes.size() == plane_points(slab));
  kernels_.spread(stencils, q, z_begin(slab), z_end(slab), planes);
}

void PmeSlabPlan::plane_fft(int slab, std::span<std::complex<double>> planes,
                            bool inverse) const {
  assert(planes.size() == plane_points(slab));
  const auto kx = static_cast<std::size_t>(options().grid_x);
  const auto ky = static_cast<std::size_t>(options().grid_y);
  const auto nz = static_cast<std::size_t>(z_end(slab) - z_begin(slab));
  std::complex<double>* g = planes.data();
  auto pass_x = [&] {
    for (std::size_t zy = 0; zy < nz * ky; ++zy) {
      kernels_.fft_x().transform(g + zy * kx, 1, inverse);
    }
  };
  auto pass_y = [&] {
    for (std::size_t zl = 0; zl < nz; ++zl) {
      for (std::size_t x = 0; x < kx; ++x) {
        kernels_.fft_y().transform(g + zl * ky * kx + x, kx, inverse);
      }
    }
  };
  // Forward x-then-y matches the sequential fft3d's pass order bit-for-bit;
  // the inverse unwinds y-then-x.
  if (inverse) {
    pass_y();
    pass_x();
  } else {
    pass_x();
    pass_y();
  }
}

std::vector<double> PmeSlabPlan::extract_fwd(
    int src, int dst, std::span<const std::complex<double>> planes) const {
  assert(planes.size() == plane_points(src));
  const int kx = options().grid_x, ky = options().grid_y;
  const int z0 = z_begin(src), z1 = z_end(src);
  const int y0 = y_begin(dst), y1 = y_end(dst);
  std::vector<double> block;
  block.reserve(block_doubles(src, dst));
  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      const std::size_t off =
          (static_cast<std::size_t>(z - z0) * ky + y) * static_cast<std::size_t>(kx);
      for (int x = 0; x < kx; ++x) {
        block.push_back(planes[off + static_cast<std::size_t>(x)].real());
        block.push_back(planes[off + static_cast<std::size_t>(x)].imag());
      }
    }
  }
  return block;
}

void PmeSlabPlan::insert_fwd(int src, int dst, std::span<const double> block,
                             std::span<std::complex<double>> columns) const {
  assert(columns.size() == column_points(dst));
  assert(block.size() == block_doubles(src, dst));
  const int kx = options().grid_x, kz = options().grid_z;
  const int z0 = z_begin(src), z1 = z_end(src);
  const int y0 = y_begin(dst), y1 = y_end(dst);
  std::size_t k = 0;
  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < kx; ++x) {
        columns[(static_cast<std::size_t>(y - y0) * kx + x) * kz +
                static_cast<std::size_t>(z)] = {block[k], block[k + 1]};
        k += 2;
      }
    }
  }
}

double PmeSlabPlan::convolve(int slab,
                             std::span<std::complex<double>> columns) const {
  assert(columns.size() == column_points(slab));
  const int kx = options().grid_x, kz = options().grid_z;
  const int y0 = y_begin(slab), y1 = y_end(slab);
  double energy = 0.0;
  for (int my = y0; my < y1; ++my) {
    for (int mx = 0; mx < kx; ++mx) {
      std::complex<double>* line =
          columns.data() +
          (static_cast<std::size_t>(my - y0) * kx + mx) * static_cast<std::size_t>(kz);
      kernels_.fft_z().transform(line, 1, /*inverse=*/false);
      for (int mz = 0; mz < kz; ++mz) {
        std::complex<double>& g = line[mz];
        if (mx == 0 && my == 0 && mz == 0) {
          g = 0.0;
          continue;
        }
        const double influence = kernels_.influence(mx, my, mz);
        energy += 0.5 * influence * std::norm(g);
        g *= influence;
      }
      kernels_.fft_z().transform(line, 1, /*inverse=*/true);
    }
  }
  return energy;
}

std::vector<double> PmeSlabPlan::extract_bwd(
    int src, int dst, std::span<const std::complex<double>> columns) const {
  assert(columns.size() == column_points(src));
  const int kx = options().grid_x, kz = options().grid_z;
  const int z0 = z_begin(dst), z1 = z_end(dst);
  const int y0 = y_begin(src), y1 = y_end(src);
  std::vector<double> block;
  block.reserve(block_doubles(dst, src));
  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < kx; ++x) {
        const std::complex<double>& c =
            columns[(static_cast<std::size_t>(y - y0) * kx + x) * kz +
                    static_cast<std::size_t>(z)];
        block.push_back(c.real());
        block.push_back(c.imag());
      }
    }
  }
  return block;
}

void PmeSlabPlan::insert_bwd(int src, int dst, std::span<const double> block,
                             std::span<std::complex<double>> planes) const {
  assert(planes.size() == plane_points(dst));
  assert(block.size() == block_doubles(dst, src));
  const int kx = options().grid_x, ky = options().grid_y;
  const int z0 = z_begin(dst), z1 = z_end(dst);
  const int y0 = y_begin(src), y1 = y_end(src);
  std::size_t k = 0;
  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < kx; ++x) {
        planes[(static_cast<std::size_t>(z - z0) * ky + y) * kx +
               static_cast<std::size_t>(x)] = {block[k], block[k + 1]};
        k += 2;
      }
    }
  }
}

void PmeSlabPlan::gather(int slab, std::span<const PmeStencil> stencils,
                         std::span<const double> q,
                         std::span<const std::complex<double>> planes,
                         std::span<Vec3> f) const {
  assert(planes.size() == plane_points(slab));
  kernels_.gather(stencils, q, z_begin(slab), z_end(slab), planes, f);
}

}  // namespace scalemd
