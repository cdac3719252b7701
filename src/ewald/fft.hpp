#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace scalemd {

/// Immutable plan for an in-place iterative radix-2 Cooley-Tukey FFT of one
/// power-of-two size: the bit-reversal swaps and, for every butterfly level,
/// the twiddles of both directions. Each level's twiddles come from the
/// recurrence w_{k+1} = w_k * wlen, not from cos/sin per k, which would
/// round differently and move every PME trajectory bit. `transform`
/// allocates nothing and may run on many threads at once.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(int n);

  int size() const { return n_; }

  /// Transforms the line data[0], data[stride], ..., data[(n - 1) * stride]
  /// in place. `inverse` applies the conjugate transform *without* the 1/N
  /// normalization (callers normalize once, as PME's convolution does).
  void transform(std::complex<double>* data, std::size_t stride, bool inverse) const;

 private:
  int n_;
  std::vector<std::pair<int, int>> swaps_;  ///< bit-reversal pairs (i < j)
  /// Twiddles of the level with half-length h sit at [h - 1, 2h - 1).
  std::vector<std::complex<double>> forward_, inverse_;
};

/// 3D FFT over a dense row-major nx*ny*nz grid (x fastest), in place:
/// every line along x, then along y, then along z. The plans fix the
/// dimensions. Used by the sequential PME reciprocal convolution.
void fft3d(std::span<std::complex<double>> grid, const FftPlan& x, const FftPlan& y,
           const FftPlan& z, bool inverse);

}  // namespace scalemd
