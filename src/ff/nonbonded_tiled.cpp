#include "ff/nonbonded_tiled.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "util/units.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#define SCALEMD_TILED_AVX512 1
#include <immintrin.h>
// GCC 12's AVX-512 headers seed some intrinsics with a self-initialised
// placeholder that -Wuninitialized reports once they are inlined.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace scalemd {

namespace {

/// Padding slots' coordinates and the empty boxes that round a box array up
/// to a multiple of 8: far from any atom, yet finite.
constexpr double kFar = 1e30;

/// Columns along one axis of extent `len` for a column edge `edge`, 1..64.
int columns_along(double len, double edge) {
  const double c = len / edge + 0.5;
  if (!(c >= 1.0)) return 1;  // also a NaN extent
  return static_cast<int>(std::min(c, 64.0));
}

/// Index in [0, cells) of coordinate v on an axis starting at lo with
/// `scale` cells per unit.
int cell_of(double v, double lo, double scale, int cells) {
  const double t = (v - lo) * scale;
  if (!(t >= 0.0)) return 0;
  return t >= cells ? cells - 1 : static_cast<int>(t);
}

/// An unsigned key in the order of v (a total order: NaNs sort last).
std::uint64_t order_key(double v) {
  const auto b = std::bit_cast<std::uint64_t>(v);
  return (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
}

}  // namespace

void ClusterTile::lay_out(const NonbondedContext& ctx, std::span<const int> atoms,
                          std::span<const Vec3> pos, int set,
                          std::span<const AtomSlot> where) {
  assert(atoms.size() == pos.size());
  const std::size_t n = atoms.size();

  // The xy column grid: columns as wide as a cube that holds two j-clusters
  // at the set's mean density. On the 97 A water box's 12 A cells that is
  // 2 x 2 columns, 7% padding; columns sized for one j-cluster per cube
  // (3 x 3) padded 15% of the slots and ran a sweep 6% slower.
  Vec3 lo{kFar, kFar, kFar}, hi{-kFar, -kFar, -kFar};
  for (const Vec3& p : pos) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  const Vec3 len = hi - lo;
  const double vol = std::max(len.x, 1.0) * std::max(len.y, 1.0) * std::max(len.z, 1.0);
  const double edge =
      std::cbrt(2 * kClusterJ * vol / static_cast<double>(std::max<std::size_t>(n, 1)));
  const int ncx = columns_along(len.x, edge);
  const int ncy = columns_along(len.y, edge);
  const double sx = len.x > 0.0 ? ncx / len.x : 0.0;
  const double sy = len.y > 0.0 ? ncy / len.y : 0.0;

  // Rows sorted by (column, z, row): bucketed by column in row order, then
  // each column sorted by z (an order-preserving key) and row. The scratch
  // is per thread, not per tile: every patch of a run has a tile, and the
  // runtime's workers lay theirs out concurrently.
  thread_local std::vector<std::uint64_t> keys;
  thread_local std::vector<int> col_of, order, start, cursor;
  const auto ncol = static_cast<std::size_t>(ncx * ncy);
  keys.resize(n);
  col_of.resize(n);
  order.resize(n);
  start.assign(ncol + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    col_of[r] = cell_of(pos[r].x, lo.x, sx, ncx) * ncy + cell_of(pos[r].y, lo.y, sy, ncy);
    keys[r] = order_key(pos[r].z);
    ++start[static_cast<std::size_t>(col_of[r]) + 1];
  }
  for (std::size_t c = 0; c < ncol; ++c) start[c + 1] += start[c];
  cursor.assign(start.begin(), start.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    order[static_cast<std::size_t>(cursor[static_cast<std::size_t>(col_of[r])]++)] =
        static_cast<int>(r);
  }
  // Slots: each column padded to a multiple of kClusterJ.
  std::size_t slots = 0;
  for (std::size_t c = 0; c < ncol; ++c) {
    std::sort(order.begin() + start[c], order.begin() + start[c + 1], [&](int a, int b) {
      const auto ua = static_cast<std::size_t>(a), ub = static_cast<std::size_t>(b);
      return keys[ua] != keys[ub] ? keys[ua] < keys[ub] : a < b;
    });
    const auto count = static_cast<std::size_t>(start[c + 1] - start[c]);
    slots += (count + kClusterJ - 1) / kClusterJ * kClusterJ;
  }

  // Two allocations per tile, reused from round to round: every patch of a
  // run has a tile, and many small ones fragment the heap.
  const std::size_t clusters = slots / kClusterJ;
  const std::size_t boxes = (clusters + 7) / 8 * 8;
  n_ = n;
  slots_ = slots;
  boxes_ = boxes;
  fp_.assign(4 * slots + 6 * boxes, kFar);
  ints_.resize(2 * slots + clusters + 2 * n);
  double* x = fp_.data();
  double* y = x + slots;
  double* z = y + slots;
  double* q = z + slots;
  double* bb = q + slots;
  int* type = ints_.data();
  int* row = type + slots;
  int* col = row + slots;
  int* slot = col + clusters;
  int* global = slot + n;
  std::fill(q, q + slots, 0.0);
  std::fill(type, type + slots, 0);
  std::fill(row, row + slots, TileView::kPadRow);
  std::size_t s = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto r = static_cast<std::size_t>(order[k]);
    const int c = col_of[r];
    if (k > 0 && c != col_of[static_cast<std::size_t>(order[k - 1])]) {
      s = (s + kClusterJ - 1) / kClusterJ * kClusterJ;
    }
    col[s / kClusterJ] = c;
    x[s] = pos[r].x;
    y[s] = pos[r].y;
    z[s] = pos[r].z;
    q[s] = ctx.charge(atoms[r]);
    type[s] = ctx.lj_type(atoms[r]);
    row[s] = static_cast<int>(r);
    slot[r] = static_cast<int>(s);
    ++s;
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto in_set = [&](std::span<const int> partners) {
      return std::all_of(partners.begin(), partners.end(), [&](int g) {
        return where[static_cast<std::size_t>(g)].first == set;
      });
    };
    const bool local = in_set(ctx.exclusions().excluded(atoms[r])) &&
                       in_set(ctx.exclusions().modified(atoms[r]));
    global[r] = local ? atoms[r] : ~atoms[r];
  }

  // Bounding boxes over each cluster's atoms; boxes past the last cluster
  // stay empty and far away.
  for (std::size_t c = 0; c < clusters; ++c) {
    double b[6] = {kFar, -kFar, kFar, -kFar, kFar, -kFar};
    for (std::size_t t = c * kClusterJ; t < (c + 1) * kClusterJ; ++t) {
      if (row[t] == TileView::kPadRow) continue;
      b[0] = std::min(b[0], x[t]);
      b[1] = std::max(b[1], x[t]);
      b[2] = std::min(b[2], y[t]);
      b[3] = std::max(b[3], y[t]);
      b[4] = std::min(b[4], z[t]);
      b[5] = std::max(b[5], z[t]);
    }
    for (std::size_t k = 0; k < 6; ++k) bb[k * boxes + c] = b[k];
  }
}

TileView ClusterTile::view() const {
  TileView v;
  v.n = n_;
  v.slots = slots_;
  v.boxes = boxes_;
  v.x = fp_.data();
  v.y = v.x + slots_;
  v.z = v.y + slots_;
  v.q = v.z + slots_;
  v.bb = v.q + slots_;
  v.type = ints_.data();
  v.row = v.type + slots_;
  v.col = v.row + slots_;
  v.slot = v.col + slots_ / kClusterJ;
  v.global = v.slot + n_;
  return v;
}

void SetLayout::clear(int atom_count) {
  off_.assign(1, 0);
  atoms_.clear();
  pos_.clear();
  where_.assign(static_cast<std::size_t>(atom_count), AtomSlot{-1, -1});
  tiled_ = 0;
}

void SetLayout::add(std::span<const int> atoms, std::span<const Vec3> pos) {
  const int set = sets();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    where_[static_cast<std::size_t>(atoms[i])] = {set, static_cast<int>(i)};
    atoms_.push_back(atoms[i]);
    pos_.push_back(pos[static_cast<std::size_t>(atoms[i])]);
  }
  off_.push_back(atoms_.size());
}

void SetLayout::gather_tiles(const NonbondedContext& ctx) {
  tiled_ = static_cast<std::size_t>(sets());
  if (tiles_.size() < tiled_) tiles_.resize(tiled_);
  for (int s = 0; s < sets(); ++s) {
    tiles_[static_cast<std::size_t>(s)].lay_out(ctx, atoms(s), pos(s), s, where_);
  }
}

namespace {

/// Switching/shift constants hoisted out of the inner loop. Built from the
/// same inputs as SwitchFunction / ElecShift so values match the scalar
/// kernel's bit for bit.
struct KernelConsts {
  double cutoff2, rs2, rc2, inv_denom, inv_rc2;
  bool fe;               ///< full-elec mode: erfc screen instead of shift
  double fe_alpha, fe_alpha_spi;

  explicit KernelConsts(const NonbondedContext& ctx) {
    const SwitchFunction& sw = ctx.switching();
    cutoff2 = ctx.cutoff2();
    rs2 = sw.switch_dist() * sw.switch_dist();
    rc2 = sw.cutoff() * sw.cutoff();
    const double d = rc2 - rs2;
    inv_denom = 1.0 / (d * d * d);
    inv_rc2 = 1.0 / rc2;
    fe = ctx.full_elec();
    fe_alpha = ctx.fe_alpha();
    fe_alpha_spi = ctx.fe_alpha_over_sqrt_pi();
  }
};

/// The Verlet path's pass 2: full force/energy math over the packed pairs
/// that survived the cutoff/exclusion filter. Purely elementwise (no
/// reductions, no branches beyond the clamp blends), so the compiler turns
/// it into vector divisions and square roots. The arithmetic is identical to
/// the scalar eval_pair(), so results agree to summation-order rounding.
/// `scale` is 1 for plain pairs and scale14 for modified 1-4 pairs.
/// Templated on full-elec mode so the cutoff path keeps its branch-free
/// vector body and the erfc path evaluates the exact expressions of the
/// scalar eval_pair() (bitwise kernel equivalence is a pinned contract).
template <bool FE>
inline void pair_math_impl(std::size_t np, const double* __restrict pr2,
                      const double* __restrict pdx, const double* __restrict pdy,
                      const double* __restrict pdz, const double* __restrict pqj,
                      const double* __restrict plja, const double* __restrict pljb,
                      const double* __restrict pscale, double qi_c,
                      const KernelConsts& kc, double* __restrict pfx,
                      double* __restrict pfy, double* __restrict pfz,
                      double* __restrict pelj, double* __restrict peel) {
  for (std::size_t k = 0; k < np; ++k) {
    const double r2 = pr2[k];
    const double scale = pscale[k];
    const double inv_r2 = 1.0 / r2;
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const double inv_r12 = inv_r6 * inv_r6;
    const double a = plja[k];
    const double b = pljb[k];
    const double u_lj = a * inv_r12 - b * inv_r6;

    // Branch-free switching: clamping r^2 into [rs^2, rc^2] reproduces the
    // piecewise S (1 below the window, 0 above) and makes dS vanish outside.
    // min/max (not ternaries) so the clamp compiles to vector min/max ops.
    const double rcl = std::min(std::max(r2, kc.rs2), kc.rc2);
    const double am = kc.rc2 - rcl;
    const double s = am * am * (kc.rc2 + 2.0 * rcl - 3.0 * kc.rs2) * kc.inv_denom;
    const double ds = 6.0 * am * (kc.rs2 - rcl) * kc.inv_denom;
    const double du = (-6.0 * a * inv_r12 + 3.0 * b * inv_r6) * inv_r2;
    double de = scale * (s * du + ds * u_lj);

    const double qq = qi_c * pqj[k];
    const double inv_r = std::sqrt(inv_r2);
    double t, dt;
    if constexpr (FE) {
      t = std::erfc(kc.fe_alpha * r2 * inv_r);
      dt = -kc.fe_alpha_spi * std::exp(-kc.fe_alpha * kc.fe_alpha * r2) * inv_r;
    } else {
      const double t1 = 1.0 - r2 * kc.inv_rc2;
      t = t1 * t1;
      dt = -2.0 * t1 * kc.inv_rc2;
    }
    de += scale * qq * (-0.5 * inv_r * inv_r2 * t + inv_r * dt);

    pelj[k] = scale * s * u_lj;
    peel[k] = scale * qq * inv_r * t;
    const double g = -2.0 * de;
    pfx[k] = pdx[k] * g;
    pfy[k] = pdy[k] * g;
    pfz[k] = pdz[k] * g;
  }
}

inline void pair_math(std::size_t np, const double* __restrict pr2,
                      const double* __restrict pdx, const double* __restrict pdy,
                      const double* __restrict pdz, const double* __restrict pqj,
                      const double* __restrict plja, const double* __restrict pljb,
                      const double* __restrict pscale, double qi_c,
                      const KernelConsts& kc, double* __restrict pfx,
                      double* __restrict pfy, double* __restrict pfz,
                      double* __restrict pelj, double* __restrict peel) {
  if (kc.fe) {
    pair_math_impl<true>(np, pr2, pdx, pdy, pdz, pqj, plja, pljb, pscale, qi_c,
                         kc, pfx, pfy, pfz, pelj, peel);
  } else {
    pair_math_impl<false>(np, pr2, pdx, pdy, pdz, pqj, plja, pljb, pscale, qi_c,
                          kc, pfx, pfy, pfz, pelj, peel);
  }
}

/// The Verlet path's pass 1b: compacts into pj the neighbor slots k with
/// rr[k] < cutoff2 whose exclusion code is not kFull, in ascending order, and
/// returns their count (an AVX-512 compress store where the build has it).
inline std::size_t compact_codes(const double* rr, std::size_t m, double cutoff2,
                                 const std::uint8_t* codes, int* pj) {
  std::size_t np = 0;
  std::size_t k = 0;
  constexpr std::uint8_t kFullCode = static_cast<std::uint8_t>(ExclusionKind::kFull);
#if SCALEMD_TILED_AVX512
  const __m512d vc2 = _mm512_set1_pd(cutoff2);
  const __m128i vfull = _mm_set1_epi8(static_cast<char>(kFullCode));
  __m256i vk = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i v8 = _mm256_set1_epi32(8);
  for (; k + 8 <= m; k += 8) {
    const __m512d vr = _mm512_loadu_pd(rr + k);
    __mmask8 keep = _mm512_cmp_pd_mask(vr, vc2, _CMP_LT_OQ);
    const __m128i c8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + k));
    const int excl = _mm_movemask_epi8(_mm_cmpeq_epi8(c8, vfull)) & 0xFF;
    keep &= static_cast<__mmask8>(~excl);
    _mm256_mask_compressstoreu_epi32(pj + np, keep, vk);
    np += static_cast<unsigned>(__builtin_popcount(keep));
    vk = _mm256_add_epi32(vk, v8);
  }
#endif
  for (; k < m; ++k) {
    pj[np] = static_cast<int>(k);
    const bool keep = rr[k] < cutoff2 && codes[k] != kFullCode;
    np += static_cast<std::size_t>(keep);
  }
  return np;
}

/// The per-call inputs of the block bodies besides the tiles: the cutoff
/// scheme's constants and the LJ tables. The block math carries the factor
/// -2 of F = -2 dE/d(r^2) dr in its constants, where scaling by a power of
/// two changes no rounding.
struct BlockConsts {
  KernelConsts kc;
  double s14;
  double c1;          ///< rc^2 - 3 rs^2
  double c4;          ///< 4 / rc^2: -2 dT/d(r^2) = c4 (1 - r^2/rc^2)
  double spi2;        ///< 2 alpha / sqrt(pi) (full electrostatics)
  double neg_alpha2;  ///< -alpha^2
  const LJPair* pairs;  ///< ntypes x ntypes
  std::size_t ntypes;
  /// ntypes <= 8: rows of A and B padded to 8 entries, read by an
  /// in-register permute (the portable body reads `pairs`; same values).
  bool permute;
  const double* lj_a8;
  const double* lj_b8;

  BlockConsts(const NonbondedContext& ctx, std::vector<double>& tables)
      : kc(ctx),
        s14(ctx.params().scale14),
        c1(kc.rc2 - 3.0 * kc.rs2),
        c4(4.0 * kc.inv_rc2),
        spi2(2.0 * kc.fe_alpha_spi),
        neg_alpha2(-kc.fe_alpha * kc.fe_alpha),
        pairs(ctx.params().lj_pair_row(0)),
        ntypes(ctx.params().lj_type_count()),
        permute(ntypes <= 8) {
    tables.assign(2 * 64, 0.0);
    if (permute) {
      for (std::size_t i = 0; i < ntypes; ++i) {
        for (std::size_t j = 0; j < ntypes; ++j) {
          tables[i * 8 + j] = pairs[i * ntypes + j].a;
          tables[64 + i * 8 + j] = pairs[i * ntypes + j].b;
        }
      }
    }
    lj_a8 = tables.data();
    lj_b8 = tables.data() + 64;
  }
};

/// The lanes of a vector summed in a fixed tree order:
/// ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)).
inline double fold8(const double* v) {
  double s4[4], s2[2];
  for (int k = 0; k < 4; ++k) s4[k] = v[k] + v[k + 4];
  for (int k = 0; k < 2; ++k) s2[k] = s4[k] + s4[k + 2];
  return s2[0] + s2[1];
}

/// What one i-cluster's j-loop leaves behind: the i-forces (folded, per
/// lane) and the pairs it computed. Energies accumulate per lane in the
/// call's acc_lj / acc_el across i-clusters.
struct ClusterOut {
  double fx[kClusterI], fy[kClusterI], fz[kClusterI];
  std::uint64_t computed = 0;
};

/// One i-cluster of the call (index ic in the scratch) against the
/// j-clusters `jl` of partner tile `b`, in the portable lane loop: the
/// intrinsic body's IEEE operations, lane by lane in the same order. A lane
/// outside the cutoff, the row order or the exclusions adds nothing.
template <bool FE>
void icluster_portable(const BlockConsts& bc, const TileScratch& ws, std::size_t ic,
                       const TileView& b, const int* jl, std::size_t nj, double* fbx,
                       double* fby, double* fbz, double* acc_lj, double* acc_el,
                       ClusterOut& out) {
  const KernelConsts& kc = bc.kc;
  const std::size_t i0 = ic * kClusterI;
  double fix[kClusterI][8] = {}, fiy[kClusterI][8] = {}, fiz[kClusterI][8] = {};
  for (std::size_t k = 0; k < nj; ++k) {
    const auto j0 = static_cast<std::size_t>(jl[k]) * kClusterJ;
    const std::uint64_t em = ws.emask[static_cast<std::size_t>(jl[k])];
    double jfx[8] = {}, jfy[8] = {}, jfz[8] = {};
    bool any = false;
    for (int il = 0; il < kClusterI; ++il) {
      const double xi = ws.ix[i0 + il], yi = ws.iy[i0 + il], zi = ws.iz[i0 + il];
      const int ri = ws.irow[i0 + il];
      const unsigned full = static_cast<unsigned>(em >> (il * 8)) & 0xFFu;
      const unsigned mod = static_cast<unsigned>(em >> (32 + il * 8)) & 0xFFu;
      const LJPair* lj_row =
          bc.pairs + static_cast<std::size_t>(ws.itype[i0 + il]) * bc.ntypes;
      const double qi_c = ws.iqc[i0 + il];
      double dxs[8], dys[8], dzs[8], rrs[8];
      unsigned keep = 0, outside = 0;  // lanes kept; kept lanes past rs
      for (int l = 0; l < 8; ++l) {
        dxs[l] = xi - b.x[j0 + l];
        dys[l] = yi - b.y[j0 + l];
        dzs[l] = zi - b.z[j0 + l];
        rrs[l] = dxs[l] * dxs[l] + dys[l] * dys[l] + dzs[l] * dzs[l];
        const bool kept =
            rrs[l] < kc.cutoff2 && b.row[j0 + l] > ri && ((full >> l) & 1u) == 0;
        keep |= static_cast<unsigned>(kept) << l;
        outside |= static_cast<unsigned>(kept && !(rrs[l] <= kc.rs2)) << l;
      }
      for (int l = 0; l < 8; ++l) {
        if (((keep >> l) & 1u) == 0) continue;
        const double dx = dxs[l], dy = dys[l], dz = dzs[l], rr = rrs[l];
        any = true;
        ++out.computed;
        const double sc = ((mod >> l) & 1u) != 0 ? bc.s14 : 1.0;
        const LJPair& lj = lj_row[b.type[j0 + l]];
        const double inv_r2 = 1.0 / rr;
        const double inv_r = std::sqrt(inv_r2);
        const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
        const double inv_r12 = inv_r6 * inv_r6;
        const double a12 = lj.a * inv_r12;
        const double b6 = lj.b * inv_r6;
        const double u = a12 - b6;
        const double du2 = (12.0 * a12 - 6.0 * b6) * inv_r2;
        double lj_de = du2, elj = u;  // S = 1 inside the switching distance
        if (outside != 0) {
          // The row has a lane in the switching region: every lane takes
          // S(r^2), with S = 1 and dS = 0 at r <= rs.
          const bool in = rr <= kc.rs2;
          const double am = kc.rc2 - rr;
          const double amd = am * kc.inv_denom;
          const double s = in ? 1.0 : am * amd * (rr + rr + bc.c1);
          const double ds2 = in ? 0.0 : amd * (kc.rs2 - rr) * -12.0;
          lj_de = s * du2 + ds2 * u;
          elj = s * u;
        }
        lj_de = lj_de * sc;
        elj = elj * sc;
        const double qs = qi_c * b.q[j0 + l] * inv_r * sc;
        double t, dt2;
        if constexpr (FE) {
          t = std::erfc(kc.fe_alpha * rr * inv_r);
          dt2 = bc.spi2 * std::exp(bc.neg_alpha2 * rr) * inv_r;
        } else {
          const double t1 = 1.0 - rr * kc.inv_rc2;
          t = t1 * t1;
          dt2 = t1 * bc.c4;
        }
        const double eel = qs * t;
        const double de2 = lj_de + qs * (inv_r2 * t + dt2);
        const double fx = dx * de2, fy = dy * de2, fz = dz * de2;
        fix[il][l] += fx;
        fiy[il][l] += fy;
        fiz[il][l] += fz;
        jfx[l] += fx;
        jfy[l] += fy;
        jfz[l] += fz;
        acc_lj[l] += elj;
        acc_el[l] += eel;
      }
    }
    if (!any) continue;
    for (int l = 0; l < 8; ++l) {
      fbx[j0 + l] -= jfx[l];
      fby[j0 + l] -= jfy[l];
      fbz[j0 + l] -= jfz[l];
    }
  }
  for (int il = 0; il < kClusterI; ++il) {
    out.fx[il] = fold8(fix[il]);
    out.fy[il] = fold8(fiy[il]);
    out.fz[il] = fold8(fiz[il]);
  }
}

#if SCALEMD_TILED_AVX512

/// fold8 on a vector, in the same tree order.
inline double fold8(__m512d v) {
  const __m256d h =
      _mm256_add_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd(v, 1));
  const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
  return _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
}

/// icluster_portable with AVX-512 intrinsics: one vector per block row, the
/// lanes that add nothing masked off.
template <bool FE>
void icluster_avx512(const BlockConsts& bc, const TileScratch& ws, std::size_t ic,
                     const TileView& b, const int* jl, std::size_t nj, double* fbx,
                     double* fby, double* fbz, double* acc_lj, double* acc_el,
                     ClusterOut& out) {
  const KernelConsts& kc = bc.kc;
  const std::size_t i0 = ic * kClusterI;
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d c2 = _mm512_set1_pd(kc.cutoff2);
  const __m512d rs2 = _mm512_set1_pd(kc.rs2);
  const __m512d rc2 = _mm512_set1_pd(kc.rc2);
  const __m512d c1 = _mm512_set1_pd(bc.c1);
  const __m512d inv_denom = _mm512_set1_pd(kc.inv_denom);
  alignas(64) double fi[3][kClusterI][8] = {};
  __m512d elj_acc = _mm512_loadu_pd(acc_lj);
  __m512d eel_acc = _mm512_loadu_pd(acc_el);
  for (std::size_t k = 0; k < nj; ++k) {
    const auto j0 = static_cast<std::size_t>(jl[k]) * kClusterJ;
    const std::uint64_t em = ws.emask[static_cast<std::size_t>(jl[k])];
    const __m512d jx = _mm512_loadu_pd(b.x + j0);
    const __m512d jy = _mm512_loadu_pd(b.y + j0);
    const __m512d jz = _mm512_loadu_pd(b.z + j0);
    const __m256i jrow = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.row + j0));
    // The block's rows first: distances and lane masks; then the math on
    // the rows that keep a lane.
    alignas(64) double d[4][kClusterI][8];
    __mmask8 keeps[kClusterI];
    unsigned rows = 0;
    for (int il = 0; il < kClusterI; ++il) {
      const __m512d dx = _mm512_sub_pd(_mm512_set1_pd(ws.ix[i0 + il]), jx);
      const __m512d dy = _mm512_sub_pd(_mm512_set1_pd(ws.iy[i0 + il]), jy);
      const __m512d dz = _mm512_sub_pd(_mm512_set1_pd(ws.iz[i0 + il]), jz);
      const __m512d r2 =
          _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                        _mm512_mul_pd(dz, dz));
      const auto full = static_cast<__mmask8>(em >> (il * 8));
      keeps[il] = _mm512_cmp_pd_mask(r2, c2, _CMP_LT_OQ) &
                  _mm256_cmpgt_epi32_mask(jrow, _mm256_set1_epi32(ws.irow[i0 + il])) &
                  static_cast<__mmask8>(~full);
      rows |= (keeps[il] != 0 ? 1u : 0u) << il;
      _mm512_store_pd(d[0][il], dx);
      _mm512_store_pd(d[1][il], dy);
      _mm512_store_pd(d[2][il], dz);
      _mm512_store_pd(d[3][il], r2);
    }
    if (rows == 0) continue;
    const __m512d jq = _mm512_loadu_pd(b.q + j0);
    const __m256i jt = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.type + j0));
    const __m512i jt64 = _mm512_cvtepi32_epi64(jt);
    const __m256i jt2 = _mm256_slli_epi32(jt, 1);
    __m512d jfx = zero, jfy = zero, jfz = zero;
    for (unsigned m = rows; m != 0; m &= m - 1) {
      const int il = std::countr_zero(m);
      const __mmask8 keep = keeps[il];
      const auto mod = static_cast<__mmask8>(em >> (32 + il * 8));
      const __m512d dx = _mm512_load_pd(d[0][il]);
      const __m512d dy = _mm512_load_pd(d[1][il]);
      const __m512d dz = _mm512_load_pd(d[2][il]);
      const __m512d r2 = _mm512_load_pd(d[3][il]);
      out.computed += static_cast<unsigned>(std::popcount(static_cast<unsigned>(keep)));
      const auto ti = static_cast<std::size_t>(ws.itype[i0 + il]);
      __m512d a, bb;
      if (bc.permute) {
        a = _mm512_permutexvar_pd(jt64, _mm512_loadu_pd(bc.lj_a8 + ti * 8));
        bb = _mm512_permutexvar_pd(jt64, _mm512_loadu_pd(bc.lj_b8 + ti * 8));
      } else {
        const LJPair* lj_row = bc.pairs + ti * bc.ntypes;
        a = _mm512_i32gather_pd(jt2, &lj_row->a, 8);
        bb = _mm512_i32gather_pd(jt2, &lj_row->b, 8);
      }
      // Lanes that add nothing compute on r^2 = 1 so no lane overflows.
      const __m512d rr = _mm512_mask_blend_pd(keep, one, r2);
      const __m512d inv_r2 = _mm512_div_pd(one, rr);
      const __m512d inv_r = _mm512_sqrt_pd(inv_r2);
      const __m512d inv_r6 = _mm512_mul_pd(_mm512_mul_pd(inv_r2, inv_r2), inv_r2);
      const __m512d inv_r12 = _mm512_mul_pd(inv_r6, inv_r6);
      const __m512d a12 = _mm512_mul_pd(a, inv_r12);
      const __m512d b6 = _mm512_mul_pd(bb, inv_r6);
      const __m512d u = _mm512_sub_pd(a12, b6);
      const __m512d du2 = _mm512_mul_pd(
          _mm512_sub_pd(_mm512_mul_pd(_mm512_set1_pd(12.0), a12),
                        _mm512_mul_pd(_mm512_set1_pd(6.0), b6)),
          inv_r2);
      __m512d lj_de = du2, elj = u;
      const __mmask8 in = _mm512_cmp_pd_mask(rr, rs2, _CMP_LE_OQ);
      if ((keep & ~in) != 0) {
        const __m512d am = _mm512_sub_pd(rc2, rr);
        const __m512d amd = _mm512_mul_pd(am, inv_denom);
        const __m512d s = _mm512_mask_blend_pd(
            in,
            _mm512_mul_pd(_mm512_mul_pd(am, amd),
                          _mm512_add_pd(_mm512_add_pd(rr, rr), c1)),
            one);
        const __m512d ds2 = _mm512_maskz_mul_pd(
            static_cast<__mmask8>(~in), _mm512_mul_pd(amd, _mm512_sub_pd(rs2, rr)),
            _mm512_set1_pd(-12.0));
        lj_de = _mm512_add_pd(_mm512_mul_pd(s, du2), _mm512_mul_pd(ds2, u));
        elj = _mm512_mul_pd(s, u);
      }
      __m512d qs =
          _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(ws.iqc[i0 + il]), jq), inv_r);
      if (mod != 0) {
        // 1-4 lanes scale by s14, the others by 1 (exact): the portable
        // body scales every lane.
        const __m512d sc = _mm512_mask_blend_pd(mod, one, _mm512_set1_pd(bc.s14));
        lj_de = _mm512_mul_pd(lj_de, sc);
        elj = _mm512_mul_pd(elj, sc);
        qs = _mm512_mul_pd(qs, sc);
      }
      __m512d t, dt2;
      if constexpr (FE) {
        alignas(64) double at[8], ae[8], tv[8], ev[8];
        _mm512_store_pd(
            at, _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(kc.fe_alpha), rr), inv_r));
        _mm512_store_pd(ae, _mm512_mul_pd(_mm512_set1_pd(bc.neg_alpha2), rr));
        for (int l = 0; l < 8; ++l) {
          const bool kept = ((keep >> l) & 1u) != 0;
          tv[l] = kept ? std::erfc(at[l]) : 0.0;
          ev[l] = kept ? std::exp(ae[l]) : 0.0;
        }
        t = _mm512_load_pd(tv);
        dt2 = _mm512_mul_pd(
            _mm512_mul_pd(_mm512_set1_pd(bc.spi2), _mm512_load_pd(ev)), inv_r);
      } else {
        const __m512d t1 =
            _mm512_sub_pd(one, _mm512_mul_pd(rr, _mm512_set1_pd(kc.inv_rc2)));
        t = _mm512_mul_pd(t1, t1);
        dt2 = _mm512_mul_pd(t1, _mm512_set1_pd(bc.c4));
      }
      const __m512d eel = _mm512_mul_pd(qs, t);
      const __m512d de2 = _mm512_add_pd(
          lj_de, _mm512_mul_pd(qs, _mm512_add_pd(_mm512_mul_pd(inv_r2, t), dt2)));
      const __m512d fx = _mm512_mul_pd(dx, de2);
      const __m512d fy = _mm512_mul_pd(dy, de2);
      const __m512d fz = _mm512_mul_pd(dz, de2);
      const __m512d f[3] = {fx, fy, fz};
      for (int d = 0; d < 3; ++d) {
        const __m512d acc = _mm512_load_pd(fi[d][il]);
        _mm512_store_pd(fi[d][il], _mm512_mask_add_pd(acc, keep, acc, f[d]));
      }
      jfx = _mm512_mask_add_pd(jfx, keep, jfx, fx);
      jfy = _mm512_mask_add_pd(jfy, keep, jfy, fy);
      jfz = _mm512_mask_add_pd(jfz, keep, jfz, fz);
      elj_acc = _mm512_mask_add_pd(elj_acc, keep, elj_acc, elj);
      eel_acc = _mm512_mask_add_pd(eel_acc, keep, eel_acc, eel);
    }
    _mm512_storeu_pd(fbx + j0, _mm512_sub_pd(_mm512_loadu_pd(fbx + j0), jfx));
    _mm512_storeu_pd(fby + j0, _mm512_sub_pd(_mm512_loadu_pd(fby + j0), jfy));
    _mm512_storeu_pd(fbz + j0, _mm512_sub_pd(_mm512_loadu_pd(fbz + j0), jfz));
  }
  _mm512_storeu_pd(acc_lj, elj_acc);
  _mm512_storeu_pd(acc_el, eel_acc);
  for (int il = 0; il < kClusterI; ++il) {
    out.fx[il] = fold8(fi[0][il]);
    out.fy[il] = fold8(fi[1][il]);
    out.fz[il] = fold8(fi[2][il]);
  }
}

#endif  // SCALEMD_TILED_AVX512

/// Writes into `jl` the j-clusters of `b` whose boxes come within the cutoff
/// of box `ib` (x lo, x hi, y lo, y hi, z lo, z hi), ascending; returns their
/// count. The per-axis gap and its squared sum take the pair distance's IEEE
/// operations in the same order on bounds that enclose both atoms, so a
/// pruned box holds no pair the scalar kernel would count as in the cutoff.
std::size_t near_clusters(const double* ib, const TileView& b, double cutoff2, int* jl) {
  const double* bb = b.bb;
  const std::size_t nb = b.boxes;
  std::size_t nj = 0;
#if SCALEMD_TILED_AVX512
  const __m512d zero = _mm512_setzero_pd();
  const __m512d c2 = _mm512_set1_pd(cutoff2);
  __m512d lo[3], hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = _mm512_set1_pd(ib[2 * d]);
    hi[d] = _mm512_set1_pd(ib[2 * d + 1]);
  }
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t c = 0; c < nb; c += 8) {
    __m512d g2[3];
    for (int d = 0; d < 3; ++d) {
      const __m512d jlo = _mm512_loadu_pd(bb + (2 * d) * nb + c);
      const __m512d jhi = _mm512_loadu_pd(bb + (2 * d + 1) * nb + c);
      const __m512d g = _mm512_max_pd(
          zero, _mm512_max_pd(_mm512_sub_pd(jlo, hi[d]), _mm512_sub_pd(lo[d], jhi)));
      g2[d] = _mm512_mul_pd(g, g);
    }
    const __m512d d2 = _mm512_add_pd(_mm512_add_pd(g2[0], g2[1]), g2[2]);
    const __mmask8 m = _mm512_cmp_pd_mask(d2, c2, _CMP_LT_OQ);
    _mm256_mask_compressstoreu_epi32(jl + nj, m, idx);
    nj += static_cast<unsigned>(std::popcount(static_cast<unsigned>(m)));
    idx = _mm256_add_epi32(idx, _mm256_set1_epi32(8));
  }
#else
  for (std::size_t c = 0; c < nb; ++c) {
    double g2[3];
    for (int d = 0; d < 3; ++d) {
      const double jlo = bb[(2 * d) * nb + c];
      const double jhi = bb[(2 * d + 1) * nb + c];
      const double g = std::max(0.0, std::max(jlo - ib[2 * d + 1], ib[2 * d] - jhi));
      g2[d] = g * g;
    }
    if (g2[0] + g2[1] + g2[2] < cutoff2) jl[nj++] = static_cast<int>(c);
  }
#endif
  return nj;
}

/// Groups the rows [begin, end) of `a` into i-clusters in slot order: up to
/// kClusterI consecutive rows of one xy column each. Padding lanes get row
/// INT_MAX (no partner passes row_j > row_i), far coordinates and charge 0;
/// real lanes get their row for a self call and -1 (every partner row
/// passes) otherwise.
std::size_t build_iclusters(const TileView& a, std::size_t begin, std::size_t end,
                            bool self, TileScratch& ws) {
  // At most one cluster per row, kClusterI lanes each.
  const std::size_t cap = kClusterI * (end - begin);
  if (ws.ix.size() < cap) {
    for (auto* v : {&ws.ix, &ws.iy, &ws.iz, &ws.iqc}) v->resize(cap);
    for (auto* v : {&ws.itype, &ws.irow, &ws.islot}) v->resize(cap);
    ws.ibb.resize(6 * (end - begin));
  }
  std::size_t k = 0;  // next lane
  int col = -1;
  const auto close_cluster = [&] {
    for (; k % kClusterI != 0; ++k) {
      ws.ix[k] = ws.iy[k] = ws.iz[k] = -kFar;
      ws.iqc[k] = 0.0;
      ws.itype[k] = 0;
      ws.irow[k] = INT_MAX;
      ws.islot[k] = -1;
    }
  };
  for (std::size_t s = 0; s < a.slots; ++s) {
    const int r = a.row[s];
    if (r < static_cast<long long>(begin) || r >= static_cast<long long>(end)) continue;
    const int c = a.col[s / kClusterJ];
    if (c != col) {
      close_cluster();
      col = c;
    }
    ws.ix[k] = a.x[s];
    ws.iy[k] = a.y[s];
    ws.iz[k] = a.z[s];
    ws.iqc[k] = units::kCoulomb * a.q[s];
    ws.itype[k] = a.type[s];
    ws.irow[k] = self ? r : -1;
    ws.islot[k] = static_cast<int>(s);
    ++k;
  }
  close_cluster();
  const std::size_t nic = k / kClusterI;
  for (std::size_t ic = 0; ic < nic; ++ic) {
    double* b = ws.ibb.data() + 6 * ic;
    const std::size_t l0 = ic * kClusterI;
    b[0] = b[1] = ws.ix[l0];
    b[2] = b[3] = ws.iy[l0];
    b[4] = b[5] = ws.iz[l0];
    for (std::size_t l = l0 + 1; l < l0 + kClusterI && ws.islot[l] >= 0; ++l) {
      b[0] = std::min(b[0], ws.ix[l]);
      b[1] = std::max(b[1], ws.ix[l]);
      b[2] = std::min(b[2], ws.iy[l]);
      b[3] = std::max(b[3], ws.iy[l]);
      b[4] = std::min(b[4], ws.iz[l]);
      b[5] = std::max(b[5], ws.iz[l]);
    }
  }
  return nic;
}

/// Sets the exclusion bits of i-cluster ic against the partner tile b: bit
/// lane_i * 8 + lane_j of the j-cluster word, full exclusions in the low 32
/// bits and 1-4 pairs in the high 32. Against another set, atoms whose
/// partners are all local have none. The words it sets are listed in
/// ws.ewords, for clearing.
void mark_exclusions(const NonbondedContext& ctx, const TileView& a, const TileView& b,
                     int b_set, bool self, std::span<const AtomSlot> where,
                     std::size_t ic, TileScratch& ws) {
  ws.ewords.clear();
  for (int l = 0; l < kClusterI; ++l) {
    const int s = ws.islot[ic * kClusterI + static_cast<std::size_t>(l)];
    if (s < 0) continue;
    const int g = a.global[a.row[s]];
    if (g >= 0 && !self) continue;
    const int gi = g >= 0 ? g : ~g;
    const auto mark = [&](std::span<const int> partners, int shift) {
      for (int g : partners) {
        const AtomSlot& w = where[static_cast<std::size_t>(g)];
        if (w.first != b_set) continue;
        const int js = b.slot[w.second];
        ws.emask[static_cast<std::size_t>(js / kClusterJ)] |=
            std::uint64_t{1} << (shift + l * 8 + js % kClusterJ);
        ws.ewords.push_back(js / kClusterJ);
      }
    };
    mark(ctx.exclusions().excluded(gi), 0);
    mark(ctx.exclusions().modified(gi), 32);
  }
}

/// One tile call: rows [begin, end) of `a` against `b` (b == a for a self
/// call). Forces are added into f_a and f_b by row.
EnergyTerms cluster_call(const NonbondedContext& ctx, const TileView& a,
                         std::span<Vec3> f_a, const TileView& b, int b_set, bool self,
                         std::span<const AtomSlot> where, std::span<Vec3> f_b,
                         std::size_t begin, std::size_t end, WorkCounters& work,
                         TileScratch& ws) {
  assert(begin <= end && end <= a.n);
  // pairs_tested is the scalar loop's count: every (i, j > i) of the rows
  // for a self call, every (i, j) otherwise.
  EnergyTerms e;
  const std::uint64_t rows = end - begin;
  if (rows == 0) return e;
  work.pairs_tested += self ? rows * (2 * a.n - begin - end - 1) / 2 : rows * b.n;
  if (b.n == 0) return e;

  const BlockConsts bc(ctx, ws.lj8);
  const std::size_t nic = build_iclusters(a, begin, end, self, ws);
  ws.emask.assign(b.boxes, 0);
  for (auto* v : {&ws.fbx, &ws.fby, &ws.fbz}) v->assign(b.slots, 0.0);
  if (!self) {
    for (auto* v : {&ws.fax, &ws.fay, &ws.faz}) v->assign(a.slots, 0.0);
  }
  double* fax = self ? ws.fbx.data() : ws.fax.data();
  double* fay = self ? ws.fby.data() : ws.fay.data();
  double* faz = self ? ws.fbz.data() : ws.faz.data();
  std::vector<int>& jl = ws.jlist;
  jl.resize(b.boxes);
  alignas(64) double acc_lj[8] = {}, acc_el[8] = {};
  std::uint64_t computed = 0;
  const bool fe = bc.kc.fe;
#if SCALEMD_TILED_AVX512
  const bool avx = ws.path == BlockPath::kAvx512;
#endif
  for (std::size_t ic = 0; ic < nic; ++ic) {
    const std::size_t nj =
        near_clusters(ws.ibb.data() + 6 * ic, b, bc.kc.cutoff2, jl.data());
    if (nj == 0) continue;
    ws.blocks += nj;
    mark_exclusions(ctx, a, b, b_set, self, where, ic, ws);
    ClusterOut out;
#if SCALEMD_TILED_AVX512
    if (avx) {
      (fe ? icluster_avx512<true> : icluster_avx512<false>)(
          bc, ws, ic, b, jl.data(), nj, ws.fbx.data(), ws.fby.data(), ws.fbz.data(),
          acc_lj, acc_el, out);
    } else
#endif
    {
      (fe ? icluster_portable<true> : icluster_portable<false>)(
          bc, ws, ic, b, jl.data(), nj, ws.fbx.data(), ws.fby.data(), ws.fbz.data(),
          acc_lj, acc_el, out);
    }
    for (int w : ws.ewords) ws.emask[static_cast<std::size_t>(w)] = 0;
    computed += out.computed;
    for (int l = 0; l < kClusterI; ++l) {
      const int s = ws.islot[ic * kClusterI + static_cast<std::size_t>(l)];
      if (s < 0) continue;
      fax[s] += out.fx[l];
      fay[s] += out.fy[l];
      faz[s] += out.fz[l];
    }
  }
  work.pairs_computed += computed;

  // Back to row order: every row of b (and of a, for a pair call).
  const auto scatter = [](const TileView& t, std::span<Vec3> f, const double* x,
                          const double* y, const double* z) {
    for (std::size_t r = 0; r < t.n; ++r) {
      const auto s = static_cast<std::size_t>(t.slot[r]);
      f[r] += Vec3{x[s], y[s], z[s]};
    }
  };
  scatter(b, f_b, ws.fbx.data(), ws.fby.data(), ws.fbz.data());
  if (!self) scatter(a, f_a, fax, fay, faz);
  e.lj = fold8(acc_lj);
  e.elec = fold8(acc_el);
  return e;
}

}  // namespace

BlockPath native_block_path() {
#if SCALEMD_TILED_AVX512
  return BlockPath::kAvx512;
#else
  return BlockPath::kPortable;
#endif
}

const char* block_path_name(BlockPath path) {
  return path == BlockPath::kAvx512 ? "avx512" : "portable";
}

EnergyTerms nonbonded_self_tile_range(const NonbondedContext& ctx, const TileView& a,
                                      int a_set, std::span<const AtomSlot> where,
                                      std::span<Vec3> f, std::size_t i_begin,
                                      std::size_t i_end, WorkCounters& work,
                                      TileScratch& ws) {
  assert(f.size() == a.n);
  return cluster_call(ctx, a, f, a, a_set, true, where, f, i_begin, i_end, work, ws);
}

EnergyTerms nonbonded_ab_tile_range(const NonbondedContext& ctx, const TileView& a,
                                    std::span<Vec3> f_a, const TileView& b, int b_set,
                                    std::span<const AtomSlot> where,
                                    std::span<Vec3> f_b, std::size_t a_begin,
                                    std::size_t a_end, WorkCounters& work,
                                    TileScratch& ws) {
  assert(f_a.size() == a.n && f_b.size() == b.n);
  return cluster_call(ctx, a, f_a, b, b_set, false, where, f_b, a_begin, a_end, work, ws);
}

void RowScratch::ensure(std::size_t n) {
  if (rr.size() >= n) return;
  for (auto* v : {&rr, &pdx, &pdy, &pdz, &pr2, &pqj, &plja, &pljb, &pscale, &pfx,
                  &pfy, &pfz, &pelj, &peel}) {
    v->resize(n);
  }
  pj.resize(n);
}

EnergyTerms nonbonded_neighbors_tiled(const NonbondedContext& ctx, int gi,
                                      std::span<const Vec3> pos,
                                      std::span<const int> nbrs,
                                      std::span<const std::uint8_t> codes,
                                      std::span<Vec3> f, WorkCounters& work,
                                      RowScratch& rs) {
  assert(codes.size() == nbrs.size());
  const std::size_t m = nbrs.size();
  work.pairs_tested += m;
  EnergyTerms e;
  if (m == 0) return e;

  const double s14 = ctx.params().scale14;
  const KernelConsts kc(ctx);
  rs.ensure(m);
  const Vec3 ri = pos[static_cast<std::size_t>(gi)];
  const double qi_c = units::kCoulomb * ctx.charge(gi);
  const LJPair* lj_row = ctx.params().lj_pair_row(ctx.lj_type(gi));

  // Pass 1a: squared distance to every cached neighbor (vectorizes).
  double* __restrict rr = rs.rr.data();
  int* __restrict pj = rs.pj.data();
  for (std::size_t k = 0; k < m; ++k) {
    const auto j = static_cast<std::size_t>(nbrs[k]);
    const double dx = ri.x - pos[j].x;
    const double dy = ri.y - pos[j].y;
    const double dz = ri.z - pos[j].z;
    rr[k] = dx * dx + dy * dy + dz * dz;
  }

  // Pass 1b: compaction of surviving candidate slots.
  const std::size_t np = compact_codes(rr, m, kc.cutoff2, codes.data(), pj);
  work.pairs_computed += np;

  // Pass 1c: gather survivor pair data; pj[k] becomes the global partner id
  // (safe in place: slot k is read before it is overwritten).
  for (std::size_t k = 0; k < np; ++k) {
    const auto c = static_cast<std::size_t>(pj[k]);
    const auto j = static_cast<std::size_t>(nbrs[c]);
    rs.pdx[k] = ri.x - pos[j].x;
    rs.pdy[k] = ri.y - pos[j].y;
    rs.pdz[k] = ri.z - pos[j].z;
    rs.pr2[k] = rr[c];
    rs.pqj[k] = ctx.charge(nbrs[c]);
    const LJPair& lj = lj_row[ctx.lj_type(nbrs[c])];
    rs.plja[k] = lj.a;
    rs.pljb[k] = lj.b;
    rs.pscale[k] =
        codes[c] == static_cast<std::uint8_t>(ExclusionKind::kModified14) ? s14 : 1.0;
    pj[k] = nbrs[c];
  }

  // Pass 2: vectorized math on the survivors.
  pair_math(np, rs.pr2.data(), rs.pdx.data(), rs.pdy.data(), rs.pdz.data(),
            rs.pqj.data(), rs.plja.data(), rs.pljb.data(), rs.pscale.data(), qi_c, kc,
            rs.pfx.data(), rs.pfy.data(), rs.pfz.data(), rs.pelj.data(),
            rs.peel.data());

  // Pass 3: accumulate atom i, scatter neighbor reactions, sum energies.
  double fxs = 0.0, fys = 0.0, fzs = 0.0, elj = 0.0, eel = 0.0;
  for (std::size_t k = 0; k < np; ++k) {
    const auto j = static_cast<std::size_t>(rs.pj[k]);
    fxs += rs.pfx[k];
    fys += rs.pfy[k];
    fzs += rs.pfz[k];
    f[j] -= Vec3{rs.pfx[k], rs.pfy[k], rs.pfz[k]};
    elj += rs.pelj[k];
    eel += rs.peel[k];
  }
  f[static_cast<std::size_t>(gi)] += Vec3{fxs, fys, fzs};
  e.lj += elj;
  e.elec += eel;
  return e;
}

const char* kernel_name(NonbondedKernel k) {
  switch (k) {
    case NonbondedKernel::kScalar:
      return "scalar";
    case NonbondedKernel::kTiled:
      return "tiled";
    case NonbondedKernel::kTiledThreads:
      return "tiled+threads";
  }
  return "?";
}

bool kernel_from_name(std::string_view name, NonbondedKernel& out) {
  if (name == "scalar") {
    out = NonbondedKernel::kScalar;
  } else if (name == "tiled") {
    out = NonbondedKernel::kTiled;
  } else if (name == "tiled+threads" || name == "tiled-threads") {
    out = NonbondedKernel::kTiledThreads;
  } else {
    return false;
  }
  return true;
}

}  // namespace scalemd
