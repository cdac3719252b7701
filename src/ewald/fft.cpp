#include "ewald/fft.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace scalemd {

FftPlan::FftPlan(int n) : n_(n) {
  if (n <= 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("FFT size must be a power of two, got " +
                                std::to_string(n));
  }
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  forward_.reserve(static_cast<std::size_t>(n));
  inverse_.reserve(static_cast<std::size_t>(n));
  for (int len = 2; len <= n; len <<= 1) {
    for (const bool inverse : {false, true}) {
      const double angle =
          (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      std::complex<double> w(1.0, 0.0);
      std::vector<std::complex<double>>& table = inverse ? inverse_ : forward_;
      for (int k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::transform(std::complex<double>* data, std::size_t stride,
                        bool inverse) const {
  for (const auto& [i, j] : swaps_) {
    std::swap(data[static_cast<std::size_t>(i) * stride],
              data[static_cast<std::size_t>(j) * stride]);
  }
  const std::vector<std::complex<double>>& twiddles = inverse ? inverse_ : forward_;
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t k = 0; k < half; ++k) {
      const std::complex<double> w = twiddles[half - 1 + k];
      for (std::size_t i = k; i < n; i += 2 * half) {
        std::complex<double>& lo = data[i * stride];
        std::complex<double>& hi = data[(i + half) * stride];
        const std::complex<double> u = lo;
        // hi * w in real arithmetic, with libstdc++'s rounding:
        // (a+ib)(c+id) = (ac - bd) + i(ad + bc). gcc compiles the
        // std::complex product to vfmaddsub on FMA hosts despite
        // -ffp-contract=off, which would tie the bits to the host ISA.
        const double a = hi.real();
        const double b = hi.imag();
        const std::complex<double> v(a * w.real() - b * w.imag(),
                                     a * w.imag() + b * w.real());
        lo = u + v;
        hi = u - v;
      }
    }
  }
}

void fft3d(std::span<std::complex<double>> grid, const FftPlan& x, const FftPlan& y,
           const FftPlan& z, bool inverse) {
  const auto nx = static_cast<std::size_t>(x.size());
  const auto ny = static_cast<std::size_t>(y.size());
  const auto nz = static_cast<std::size_t>(z.size());
  assert(grid.size() == nx * ny * nz);
  std::complex<double>* g = grid.data();
  for (std::size_t zy = 0; zy < nz * ny; ++zy) x.transform(g + zy * nx, 1, inverse);
  for (std::size_t zi = 0; zi < nz; ++zi) {
    for (std::size_t xi = 0; xi < nx; ++xi) {
      y.transform(g + zi * ny * nx + xi, nx, inverse);
    }
  }
  for (std::size_t yx = 0; yx < ny * nx; ++yx) z.transform(g + yx, ny * nx, inverse);
}

}  // namespace scalemd
