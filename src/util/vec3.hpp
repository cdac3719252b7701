#pragma once

#include <cmath>
#include <ostream>

namespace scalemd {

/// Minimal 3-component double vector used for positions, velocities and
/// forces throughout the library. All operations are constexpr-friendly and
/// inline; there is deliberately no SIMD cleverness here — the hot kernels in
/// ff/ operate on flat arrays and let the compiler vectorize.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }

  friend constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
  friend constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
  friend constexpr Vec3 operator*(Vec3 a, double s) { return a *= s; }
  friend constexpr Vec3 operator*(double s, Vec3 a) { return a *= s; }
  friend constexpr Vec3 operator/(Vec3 a, double s) { return a *= (1.0 / s); }
  friend constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }

  friend constexpr bool operator==(const Vec3& a, const Vec3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }
};

/// Dot product.
constexpr double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

/// Cross product.
constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

/// Squared Euclidean norm (preferred in cutoff tests; avoids the sqrt).
constexpr double norm2(const Vec3& a) { return dot(a, a); }

/// Euclidean norm.
inline double norm(const Vec3& a) { return std::sqrt(norm2(a)); }

/// Unit vector in the direction of `a`; undefined for the zero vector.
inline Vec3 normalized(const Vec3& a) { return a / norm(a); }

/// Rotates `v` by `angle` radians around the unit vector `axis` (Rodrigues'
/// formula). `axis` must be normalized.
inline Vec3 rotate(const Vec3& v, const Vec3& axis, double angle) {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  return v * c + cross(axis, v) * s + axis * (dot(axis, v) * (1.0 - c));
}

/// Wire field list (rts/wire.hpp).
template <class Ar>
void fields(Ar& ar, Vec3& v) {
  ar(v.x, v.y, v.z);
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace scalemd
