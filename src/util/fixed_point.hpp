#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "util/vec3.hpp"

namespace scalemd {

// Order-independent force sums, the way AMBER's SPFP mode and OpenMM make
// them deterministic: every force contribution is rounded once to a 128-bit
// two's-complement fixed-point number, and integer addition is exact and
// associative, so a set of contributions sums to the same bits in any order.
//
// Scale: 2^-40 kcal/mol/A (about 9.1e-13). A contribution must be finite and
// below 2^62 kcal/mol/A in magnitude, so a converted value stays below 2^102
// and 2^25 of the largest ones still sum inside the 128-bit range. Sums use
// wrap-around arithmetic: an intermediate wrap is harmless when the final
// total fits. 64 bits cannot hold both this resolution and the ~1e14
// kcal/mol/A forces of clashing fuzz systems.

/// Fraction bits of the fixed-point force format, and its scale 2^40.
inline constexpr int kForceFracBits = 40;
inline constexpr double kForceScale = 0x1p40;
static_assert(kForceScale == static_cast<double>(std::uint64_t{1} << kForceFracBits));
/// Every contribution must stay below this magnitude (kcal/mol/A).
inline constexpr double kForceLimit = 0x1p62;

/// One 128-bit two's-complement fixed-point value as two 64-bit words, the
/// widest integer the wire codec carries.
struct Fixed128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  Fixed128& operator+=(const Fixed128& o) {
    lo += o.lo;
    hi += o.hi + (lo < o.lo ? 1 : 0);
    return *this;
  }
  friend bool operator==(const Fixed128&, const Fixed128&) = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar(lo, hi);
  }
};

/// to_fixed() for 2^22 <= |x| (beyond the llrint fast path); see there.
Fixed128 to_fixed_wide(double x, bool& ok);

/// x * 2^40 rounded half to even, exactly. A non-finite x or |x| >= 2^62
/// returns zero and clears `ok`; nothing sets it, so one flag can collect
/// a whole batch.
inline Fixed128 to_fixed(double x, bool& ok) {
  const double y = x * kForceScale;  // exact: a power-of-two scale
  if (std::fabs(y) < 0x1p62) {
    // llrint rounds half to even in the default rounding mode.
    const long long r = std::llrint(y);
    return {static_cast<std::uint64_t>(r), r < 0 ? ~std::uint64_t{0} : 0};
  }
  return to_fixed_wide(x, ok);
}

/// The fixed-point value in kcal/mol/A, rounded to the nearest double.
double from_fixed(const Fixed128& v);

/// Three fixed-point force components.
struct FixedVec3 {
  Fixed128 x, y, z;

  FixedVec3& operator+=(const FixedVec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3 to_vec3() const { return {from_fixed(x), from_fixed(y), from_fixed(z)}; }

  template <class Ar>
  void fields(Ar& ar) {
    ar(x, y, z);
  }
};

/// acc[i] += f[i] converted, for every i < f.size() (acc is at least as
/// long). Returns false when a component was out of range; that component
/// adds nothing, the others are added.
inline bool add_fixed(std::span<FixedVec3> acc, std::span<const Vec3> f) {
  bool ok = true;
  for (std::size_t i = 0; i < f.size(); ++i) {
    acc[i].x += to_fixed(f[i].x, ok);
    acc[i].y += to_fixed(f[i].y, ok);
    acc[i].z += to_fixed(f[i].z, ok);
  }
  return ok;
}

}  // namespace scalemd
