#include "ewald/pme.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace scalemd {

namespace {

/// bspline_weights without the argument checks: order in [2, kMaxPmeOrder],
/// `w` and `dw` hold `order` values.
void fill_bspline(double u, int order, double* w, double* dw) {
  // m[k] = M_q(u + k) for the current order q, built by recursion from
  // M_2(t) = t on [0,1], 2 - t on [1,2].
  double m[kMaxPmeOrder] = {};
  double d[kMaxPmeOrder] = {};
  m[0] = u;
  if (order > 1) m[1] = 1.0 - u;
  if (order == 2) {
    d[0] = 1.0;
    d[1] = -1.0;
  }
  for (int q = 3; q <= order; ++q) {
    for (int k = q - 1; k >= 0; --k) {
      const double t = u + k;
      const double a = (k <= q - 2) ? m[k] : 0.0;
      const double b = (k >= 1) ? m[k - 1] : 0.0;
      if (q == order) d[k] = a - b;
      m[k] = (t * a + (static_cast<double>(q) - t) * b) / (q - 1);
    }
  }
  // Reorder so w[j] belongs to grid point floor(x) - order + 1 + j.
  for (int j = 0; j < order; ++j) {
    w[j] = m[order - 1 - j];
    dw[j] = d[order - 1 - j];
  }
}

/// Grid coordinate of `x` along an axis of length `len` split into `n`
/// points, wrapped into [0, n).
double grid_coord(double x, double len, int n) {
  double g = x / len * n;
  g -= std::floor(g / n) * n;
  return g;
}

/// One axis of a stencil: the wrapped indices of the `order` points the
/// grid coordinate `g` touches.
void stencil_indices(double g, int n, int order, int* idx) {
  const int base = static_cast<int>(std::floor(g)) - order + 1;
  for (int a = 0; a < order; ++a) idx[a] = ((base + a) % n + n) % n;
}

}  // namespace

void bspline_weights(double u, int order, std::span<double> w,
                     std::span<double> dw) {
  if (order < 2 || order > kMaxPmeOrder ||
      w.size() != static_cast<std::size_t>(order) ||
      dw.size() != static_cast<std::size_t>(order)) {
    throw std::invalid_argument(
        "bspline_weights: order must be in [2, 8] with `order` weights");
  }
  fill_bspline(u, order, w.data(), dw.data());
}

std::vector<double> pme_bspline_moduli(int n, int order) {
  // |b(m)|^2 = 1 / |sum_{l=0}^{order-2} M_order(l+1) e^{2 pi i m l / n}|^2.
  std::vector<double> m_at_int(static_cast<std::size_t>(order) - 1, 0.0);
  {
    std::vector<double> w(static_cast<std::size_t>(order));
    std::vector<double> dw(static_cast<std::size_t>(order));
    bspline_weights(0.0, order, w, dw);  // w[j] = M_order(order - 1 - j)
    // M_order at integers 1..order-1: w[order - 1 - l] holds M_order(l).
    for (int l = 1; l <= order - 1; ++l) {
      m_at_int[static_cast<std::size_t>(l - 1)] =
          w[static_cast<std::size_t>(order - 1 - l)];
    }
  }
  std::vector<double> mod(static_cast<std::size_t>(n), 0.0);
  for (int m = 0; m < n; ++m) {
    double re = 0.0, im = 0.0;
    for (int l = 0; l <= order - 2; ++l) {
      const double phase = 2.0 * M_PI * m * l / n;
      re += m_at_int[static_cast<std::size_t>(l)] * std::cos(phase);
      im += m_at_int[static_cast<std::size_t>(l)] * std::sin(phase);
    }
    mod[static_cast<std::size_t>(m)] = re * re + im * im;
  }
  // Patch near-zero denominators (can occur at the Nyquist frequency) with
  // the average of the neighbors, the standard fix.
  for (int m = 0; m < n; ++m) {
    if (mod[static_cast<std::size_t>(m)] < 1e-10) {
      const double left = mod[static_cast<std::size_t>((m + n - 1) % n)];
      const double right = mod[static_cast<std::size_t>((m + 1) % n)];
      mod[static_cast<std::size_t>(m)] = 0.5 * (left + right);
    }
  }
  return mod;
}

namespace {

const PmeOptions& checked(const PmeOptions& o) {
  if (const char* why = pme_grid_error(o.grid_x, o.grid_y, o.grid_z, o.order)) {
    throw std::invalid_argument(why);
  }
  return o;
}

}  // namespace

PmeKernels::PmeKernels(const Vec3& box, const PmeOptions& opts)
    : box_(box),
      opts_(checked(opts)),
      fft_x_(opts.grid_x),
      fft_y_(opts.grid_y),
      fft_z_(opts.grid_z) {
  const int kx = opts_.grid_x, ky = opts_.grid_y, kz = opts_.grid_z;
  const std::vector<double> bmod_x = pme_bspline_moduli(kx, opts_.order);
  const std::vector<double> bmod_y = pme_bspline_moduli(ky, opts_.order);
  const std::vector<double> bmod_z = pme_bspline_moduli(kz, opts_.order);
  const double volume = box_.x * box_.y * box_.z;
  const double a2inv = 1.0 / (4.0 * opts_.alpha * opts_.alpha);
  influence_.assign(static_cast<std::size_t>(kx) * ky * kz, 0.0);
  std::size_t i = 0;
  for (int my = 0; my < ky; ++my) {
    const int sy = my <= ky / 2 ? my : my - ky;
    for (int mx = 0; mx < kx; ++mx) {
      const int sx = mx <= kx / 2 ? mx : mx - kx;
      for (int mz = 0; mz < kz; ++mz, ++i) {
        const int sz = mz <= kz / 2 ? mz : mz - kz;
        if (sx == 0 && sy == 0 && sz == 0) continue;
        const Vec3 k{2.0 * M_PI * sx / box_.x, 2.0 * M_PI * sy / box_.y,
                     2.0 * M_PI * sz / box_.z};
        const double k2 = norm2(k);
        const double bsq = bmod_x[static_cast<std::size_t>(mx)] *
                           bmod_y[static_cast<std::size_t>(my)] *
                           bmod_z[static_cast<std::size_t>(mz)];
        influence_[i] = units::kCoulomb * (4.0 * M_PI / volume) *
                        std::exp(-k2 * a2inv) / (k2 * bsq);
      }
    }
  }
}

void PmeKernels::build_stencils(std::span<const Vec3> pos, int z0, int z1,
                                std::vector<PmeStencil>& out) const {
  const int p = opts_.order;
  out.clear();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double gz = grid_coord(pos[i].z, box_.z, opts_.grid_z);
    std::array<int, kMaxPmeOrder> iz{};
    stencil_indices(gz, opts_.grid_z, p, iz.data());
    bool reaches = false;
    for (int a = 0; a < p; ++a) reaches = reaches || (iz[a] >= z0 && iz[a] < z1);
    if (!reaches) continue;

    PmeStencil& s = out.emplace_back();
    s.atom = static_cast<int>(i);
    s.iz = iz;
    const double gx = grid_coord(pos[i].x, box_.x, opts_.grid_x);
    const double gy = grid_coord(pos[i].y, box_.y, opts_.grid_y);
    stencil_indices(gx, opts_.grid_x, p, s.ix.data());
    stencil_indices(gy, opts_.grid_y, p, s.iy.data());
    fill_bspline(gx - std::floor(gx), p, s.wx.data(), s.dx.data());
    fill_bspline(gy - std::floor(gy), p, s.wy.data(), s.dy.data());
    fill_bspline(gz - std::floor(gz), p, s.wz.data(), s.dz.data());
  }
}

void PmeKernels::spread(std::span<const PmeStencil> stencils,
                        std::span<const double> q, int z0, int z1,
                        std::span<std::complex<double>> planes) const {
  const auto kx = static_cast<std::size_t>(opts_.grid_x);
  const auto ky = static_cast<std::size_t>(opts_.grid_y);
  const int p = opts_.order;
  assert(planes.size() == static_cast<std::size_t>(z1 - z0) * ky * kx);
  for (const PmeStencil& s : stencils) {
    const double qi = q[static_cast<std::size_t>(s.atom)];
    for (int a = 0; a < p; ++a) {
      if (s.iz[a] < z0 || s.iz[a] >= z1) continue;
      std::complex<double>* plane =
          planes.data() + static_cast<std::size_t>(s.iz[a] - z0) * ky * kx;
      for (int b = 0; b < p; ++b) {
        std::complex<double>* row = plane + static_cast<std::size_t>(s.iy[b]) * kx;
        const double wzy = qi * s.wz[a] * s.wy[b];
        for (int c = 0; c < p; ++c) row[s.ix[c]] += wzy * s.wx[c];
      }
    }
  }
}

void PmeKernels::gather(std::span<const PmeStencil> stencils,
                        std::span<const double> q, int z0, int z1,
                        std::span<const std::complex<double>> planes,
                        std::span<Vec3> f) const {
  const auto kx = static_cast<std::size_t>(opts_.grid_x);
  const auto ky = static_cast<std::size_t>(opts_.grid_y);
  const int p = opts_.order;
  assert(planes.size() == static_cast<std::size_t>(z1 - z0) * ky * kx);
  const double hx = opts_.grid_x / box_.x;
  const double hy = opts_.grid_y / box_.y;
  const double hz = opts_.grid_z / box_.z;
  for (const PmeStencil& s : stencils) {
    Vec3 grad;  // d(energy)/d(r_i)
    for (int a = 0; a < p; ++a) {
      if (s.iz[a] < z0 || s.iz[a] >= z1) continue;
      const std::complex<double>* plane =
          planes.data() + static_cast<std::size_t>(s.iz[a] - z0) * ky * kx;
      const double wa = s.wz[a];
      for (int b = 0; b < p; ++b) {
        const std::complex<double>* row =
            plane + static_cast<std::size_t>(s.iy[b]) * kx;
        const double wb = s.wy[b];
        for (int c = 0; c < p; ++c) {
          const double phi = row[s.ix[c]].real();
          const double wc = s.wx[c];
          grad.x += phi * s.dx[c] * wb * wa * hx;
          grad.y += phi * wc * s.dy[b] * wa * hy;
          grad.z += phi * wc * wb * s.dz[a] * hz;
        }
      }
    }
    const auto i = static_cast<std::size_t>(s.atom);
    f[i] -= grad * q[i];
  }
}

Pme::Pme(const Vec3& box, const PmeOptions& opts) : kernels_(box, opts) {}

double Pme::reciprocal(std::span<const Vec3> pos, std::span<const double> q,
                       std::span<Vec3> f) const {
  const PmeOptions& o = kernels_.options();
  const int kx = o.grid_x, ky = o.grid_y, kz = o.grid_z;
  std::vector<std::complex<double>> grid(static_cast<std::size_t>(kx) * ky * kz,
                                         {0.0, 0.0});
  std::vector<PmeStencil> stencils;
  kernels_.build_stencils(pos, 0, kz, stencils);
  kernels_.spread(stencils, q, 0, kz, grid);

  // --- Convolution with the Ewald influence function --------------------
  fft3d(grid, kernels_.fft_x(), kernels_.fft_y(), kernels_.fft_z(), /*inverse=*/false);
  double energy = 0.0;
  std::size_t i = 0;
  for (int mz = 0; mz < kz; ++mz) {
    for (int my = 0; my < ky; ++my) {
      for (int mx = 0; mx < kx; ++mx, ++i) {
        std::complex<double>& g = grid[i];
        if (mx == 0 && my == 0 && mz == 0) {
          g = 0.0;
          continue;
        }
        const double influence = kernels_.influence(mx, my, mz);
        energy += 0.5 * influence * std::norm(g);
        g *= influence;
      }
    }
  }
  // Adjoint transform for dE/dQ(r) = Re[sum_k I(k) F(k) e^{+ikr}]: the
  // *unnormalized* inverse FFT (no 1/N — that factor belongs to signal
  // reconstruction, not to this gradient).
  fft3d(grid, kernels_.fft_x(), kernels_.fft_y(), kernels_.fft_z(), /*inverse=*/true);

  kernels_.gather(stencils, q, 0, kz, grid, f);
  return energy;
}

}  // namespace scalemd
