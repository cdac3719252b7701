#include "ff/nonbonded_tiled.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "util/units.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#define SCALEMD_TILED_AVX512 1
#include <immintrin.h>
#endif

namespace scalemd {

void TileSoA::resize(std::size_t rows) {
  n = rows;
  x.resize(rows);
  y.resize(rows);
  z.resize(rows);
  q.resize(rows);
  type.resize(rows);
  global.resize(rows);
}

void TileSoA::gather_at(std::size_t off, const NonbondedContext& ctx,
                        std::span<const int> idx, std::span<const Vec3> pos) {
  assert(off + idx.size() <= n);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    x[off + k] = pos[k].x;
    y[off + k] = pos[k].y;
    z[off + k] = pos[k].z;
    q[off + k] = ctx.charge(idx[k]);
    type[off + k] = ctx.lj_type(idx[k]);
    global[off + k] = idx[k];
  }
}

TileView TileSoA::view(std::size_t off, std::size_t rows) const {
  assert(off + rows <= n);
  return {rows,          x.data() + off,    y.data() + off,      z.data() + off,
          q.data() + off, type.data() + off, global.data() + off};
}

void SetLayout::clear(int atom_count) {
  off_.assign(1, 0);
  atoms_.clear();
  pos_.clear();
  where_.assign(static_cast<std::size_t>(atom_count), AtomSlot{-1, -1});
  tiles_.n = 0;
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
  tiles_.resize(atoms_.size());
  tiles_.gather_at(0, ctx, atoms_, pos_);
}

void TilePair::attach(const NonbondedContext& ctx, const TileView& a, const TileView* b,
                      int b_set, std::span<const AtomSlot> where, std::size_t i0,
                      std::size_t i1) {
  a_ = a;
  b_ = b != nullptr ? *b : a;
  self_ = b == nullptr;
  assert(i0 <= i1 && i1 <= a_.n);
  row0_ = i0;
  row1_ = i1;
  const std::size_t rows = i1 - i0;
  words_ = (b_.n + 63) / 64;
  full_.assign(rows * words_, 0u);
  mod_.assign(rows * words_, 0u);
  row_masked_.assign(rows, 0);

  // Sets bit (row r, partner of global atom g) in `mask` when g is in b's
  // set; returns whether it did.
  const auto mark = [&](std::vector<std::uint64_t>& mask, std::size_t r, int g) {
    const AtomSlot& s = where[static_cast<std::size_t>(g)];
    if (s.first != b_set) return false;
    const auto j = static_cast<std::size_t>(s.second);
    mask[r * words_ + j / 64] |= std::uint64_t{1} << (j & 63);
    return true;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const int gi = a_.global[i0 + r];
    bool any = false;
    for (int g : ctx.exclusions().excluded(gi)) any |= mark(full_, r, g);
    for (int g : ctx.exclusions().modified(gi)) any |= mark(mod_, r, g);
    row_masked_[r] = any ? 1 : 0;
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

/// Pass 2 of the filtered loop: full force/energy math over the packed pairs
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

/// Compacts the indices j in [jb, jn) with rr[j] < cutoff2 and (for masked
/// rows) full-exclusion bit clear into pj, preserving ascending order.
/// Returns the survivor count. This is the hot filter over every tested
/// pair; on AVX-512 hosts it runs 8 candidates per step with a compress
/// store, elsewhere as a branchless conditional-increment loop.
inline std::size_t compact_row(const double* rr, std::size_t jb, std::size_t jn,
                               double cutoff2, const std::uint64_t* fr, bool masked,
                               int* pj) {
  std::size_t np = 0;
  std::size_t j = jb;
#if SCALEMD_TILED_AVX512
  const auto keep1 = [&](std::size_t jj) {
    pj[np] = static_cast<int>(jj);
    const bool keep = rr[jj] < cutoff2 &&
                      (!masked || ((fr[jj >> 6] >> (jj & 63)) & 1u) == 0);
    np += static_cast<std::size_t>(keep);
  };
  for (; j < jn && (j & 7) != 0; ++j) keep1(j);
  const __m512d vc2 = _mm512_set1_pd(cutoff2);
  __m256i vj = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(j)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i v8 = _mm256_set1_epi32(8);
  for (; j + 8 <= jn; j += 8) {
    const __m512d vr = _mm512_loadu_pd(rr + j);
    __mmask8 k = _mm512_cmp_pd_mask(vr, vc2, _CMP_LT_OQ);
    if (masked) {
      // j is 8-aligned, so the row's 8 exclusion bits sit in one mask byte.
      k &= static_cast<__mmask8>(~((fr[j >> 6] >> (j & 63)) & 0xFFu));
    }
    _mm256_mask_compressstoreu_epi32(pj + np, k, vj);
    np += static_cast<unsigned>(__builtin_popcount(k));
    vj = _mm256_add_epi32(vj, v8);
  }
  for (; j < jn; ++j) keep1(j);
#else
  if (masked) {
    for (; j < jn; ++j) {
      pj[np] = static_cast<int>(j);
      const bool keep =
          rr[j] < cutoff2 && ((fr[j >> 6] >> (j & 63)) & 1u) == 0;
      np += static_cast<std::size_t>(keep);
    }
  } else {
    for (; j < jn; ++j) {
      pj[np] = static_cast<int>(j);
      np += static_cast<std::size_t>(rr[j] < cutoff2);
    }
  }
#endif
  return np;
}

/// Neighbor-list analogue of compact_row: keeps slots k with rr[k] < cutoff2
/// whose exclusion code is not kFull.
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

}  // namespace

void RowScratch::ensure(std::size_t n) {
  if (rr.size() >= n) return;
  for (auto* v : {&rr, &pdx, &pdy, &pdz, &pr2, &pqj, &plja, &pljb, &pscale, &pfx,
                  &pfy, &pfz, &pelj, &peel}) {
    v->resize(n);
  }
  pj.resize(n);
}

EnergyTerms TilePair::eval_rows(const NonbondedContext& ctx, std::size_t i0,
                                std::size_t i1, double* fax, double* fay, double* faz,
                                double* fbx, double* fby, double* fbz, RowScratch& rs,
                                WorkCounters& work) const {
  assert(row0_ <= i0 && i1 <= row1_);
  const TileView& at = a_;
  const TileView& bt = b_;
  const KernelConsts kc(ctx);
  const double s14 = ctx.params().scale14;
  rs.ensure(bt.n);
  const double* __restrict bx = bt.x;
  const double* __restrict by = bt.y;
  const double* __restrict bz = bt.z;
  const double* bq = bt.q;
  const int* btype = bt.type;
  double* __restrict rr = rs.rr.data();
  int* __restrict pj = rs.pj.data();

  EnergyTerms e;
  std::uint64_t tested = 0;
  std::uint64_t computed = 0;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t jb = self_ ? i + 1 : 0;
    const std::size_t jn = bt.n;
    if (jb >= jn) continue;
    tested += jn - jb;

    const double xi = at.x[i];
    const double yi = at.y[i];
    const double zi = at.z[i];
    const double qi_c = units::kCoulomb * at.q[i];
    const LJPair* lj_row = ctx.params().lj_pair_row(at.type[i]);

    // Pass 1a: squared distance for every candidate, full width (vectorizes).
    for (std::size_t j = jb; j < jn; ++j) {
      const double dx = xi - bx[j];
      const double dy = yi - by[j];
      const double dz = zi - bz[j];
      rr[j] = dx * dx + dy * dy + dz * dz;
    }

    // Pass 1b: compaction of the surviving partner indices — a compress
    // store (or, without AVX-512, a conditional increment) instead of a
    // 15%-taken branch the predictor would keep missing.
    const std::size_t r = i - row0_;
    const bool masked = row_masked_[r] != 0;
    const std::size_t np = compact_row(rr, jb, jn, kc.cutoff2,
                                       full_.data() + r * words_, masked, pj);
    computed += np;

    // Pass 1c: gather the survivors' pair data into packed SoA.
    const std::uint64_t* mr = mod_.data() + r * words_;
    for (std::size_t k = 0; k < np; ++k) {
      const auto j = static_cast<std::size_t>(pj[k]);
      rs.pdx[k] = xi - bx[j];
      rs.pdy[k] = yi - by[j];
      rs.pdz[k] = zi - bz[j];
      rs.pr2[k] = rr[j];
      rs.pqj[k] = bq[j];
      const LJPair& lj = lj_row[btype[j]];
      rs.plja[k] = lj.a;
      rs.pljb[k] = lj.b;
      rs.pscale[k] =
          masked && ((mr[j >> 6] >> (j & 63)) & 1u) != 0 ? s14 : 1.0;
    }

    // Pass 2: vectorized force/energy math on the packed pairs.
    pair_math(np, rs.pr2.data(), rs.pdx.data(), rs.pdy.data(), rs.pdz.data(),
              rs.pqj.data(), rs.plja.data(), rs.pljb.data(), rs.pscale.data(), qi_c,
              kc, rs.pfx.data(), rs.pfy.data(), rs.pfz.data(), rs.pelj.data(),
              rs.peel.data());

    // Pass 3: reduce the row and scatter partner reactions (j ascending, so
    // accumulation order matches the scalar kernel's).
    double fxs = 0.0, fys = 0.0, fzs = 0.0, elj = 0.0, eel = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      const auto j = static_cast<std::size_t>(rs.pj[k]);
      fxs += rs.pfx[k];
      fys += rs.pfy[k];
      fzs += rs.pfz[k];
      fbx[j] -= rs.pfx[k];
      fby[j] -= rs.pfy[k];
      fbz[j] -= rs.pfz[k];
      elj += rs.pelj[k];
      eel += rs.peel[k];
    }
    fax[i] += fxs;
    fay[i] += fys;
    faz[i] += fzs;
    e.lj += elj;
    e.elec += eel;
  }
  work.pairs_tested += tested;
  work.pairs_computed += computed;
  return e;
}

namespace {

/// Zeroes rows [b, e) of an SoA force accumulator sized for n rows.
void zero3(std::vector<double>& x, std::vector<double>& y, std::vector<double>& z,
           std::size_t n, std::size_t b = 0, std::size_t e = SIZE_MAX) {
  x.resize(n);
  y.resize(n);
  z.resize(n);
  e = std::min(e, n);
  std::fill(x.begin() + b, x.begin() + e, 0.0);
  std::fill(y.begin() + b, y.begin() + e, 0.0);
  std::fill(z.begin() + b, z.begin() + e, 0.0);
}

/// Adds rows [b, e) of an SoA force accumulator into `f`.
void scatter3(std::span<Vec3> f, const std::vector<double>& x,
              const std::vector<double>& y, const std::vector<double>& z,
              std::size_t b = 0, std::size_t e = SIZE_MAX) {
  e = std::min(e, f.size());
  for (std::size_t j = b; j < e; ++j) {
    f[j] += Vec3{x[j], y[j], z[j]};
  }
}

}  // namespace

EnergyTerms nonbonded_self_tile_range(const NonbondedContext& ctx, const TileView& a,
                                      int a_set, std::span<const AtomSlot> where,
                                      std::span<Vec3> f, std::size_t i_begin,
                                      std::size_t i_end, WorkCounters& work,
                                      TileScratch& ws) {
  assert(i_end <= a.n && f.size() == a.n);
  ws.pair.attach(ctx, a, nullptr, a_set, where, i_begin, i_end);
  // Rows [i_begin, i_end) touch force rows [i_begin, n) only (partners are
  // j > i), so only those are zeroed and scattered. The untouched rows would
  // add +0.0, which changes no bit of a caller's buffer unless it holds -0.0.
  zero3(ws.fax, ws.fay, ws.faz, a.n, i_begin);
  const EnergyTerms e = ws.pair.eval_rows(
      ctx, i_begin, i_end, ws.fax.data(), ws.fay.data(), ws.faz.data(),
      ws.fax.data(), ws.fay.data(), ws.faz.data(), ws.row, work);
  scatter3(f, ws.fax, ws.fay, ws.faz, i_begin);
  return e;
}

EnergyTerms nonbonded_ab_tile_range(const NonbondedContext& ctx, const TileView& a,
                                    std::span<Vec3> f_a, const TileView& b, int b_set,
                                    std::span<const AtomSlot> where,
                                    std::span<Vec3> f_b, std::size_t a_begin,
                                    std::size_t a_end, WorkCounters& work,
                                    TileScratch& ws) {
  assert(a_end <= a.n && f_a.size() == a.n && f_b.size() == b.n);
  ws.pair.attach(ctx, a, &b, b_set, where, a_begin, a_end);
  zero3(ws.fax, ws.fay, ws.faz, a.n, a_begin, a_end);
  zero3(ws.fbx, ws.fby, ws.fbz, b.n);
  const EnergyTerms e = ws.pair.eval_rows(
      ctx, a_begin, a_end, ws.fax.data(), ws.fay.data(), ws.faz.data(),
      ws.fbx.data(), ws.fby.data(), ws.fbz.data(), ws.row, work);
  scatter3(f_a, ws.fax, ws.fay, ws.faz, a_begin, a_end);
  scatter3(f_b, ws.fbx, ws.fby, ws.fbz);
  return e;
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
