#include "util/fixed_point.hpp"

namespace scalemd {

namespace {

using U128 = unsigned __int128;
using S128 = __int128;

Fixed128 split(U128 v) {
  return {static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(v >> 64)};
}

}  // namespace

Fixed128 to_fixed_wide(double x, bool& ok) {
  if (!(std::fabs(x) < kForceLimit)) {  // also catches NaN
    ok = false;
    return {};
  }
  // x = i + f with both parts exact and of x's sign: |i| < 2^62 fits an
  // int64, and f * 2^40 lies below 2^40 (an integer already once |x| >= 2^22,
  // so the llrint cannot round). i * 2^40 is even, so rounding f alone
  // rounds the sum half to even as well.
  double i = 0.0;
  const double f = std::modf(x, &i);
  const U128 whole = static_cast<U128>(static_cast<S128>(static_cast<std::int64_t>(i)))
                     << kForceFracBits;
  return split(whole + static_cast<U128>(static_cast<S128>(std::llrint(f * kForceScale))));
}

double from_fixed(const Fixed128& v) {
  const auto s = static_cast<S128>((static_cast<U128>(v.hi) << 64) | v.lo);
  return static_cast<double>(s) / kForceScale;
}

}  // namespace scalemd
