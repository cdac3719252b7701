#include "ff/nonbonded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/units.hpp"

namespace scalemd {

NonbondedContext::NonbondedContext(const ParameterTable& params,
                                   const ExclusionTable& excl,
                                   std::span<const double> charge,
                                   std::span<const int> lj_type,
                                   const NonbondedOptions& opts)
    : params_(&params),
      excl_(&excl),
      charge_(charge),
      type_(lj_type),
      opts_(opts),
      switch_(opts.switch_dist, opts.cutoff),
      shift_(opts.cutoff),
      cutoff2_(opts.cutoff * opts.cutoff),
      fe_enabled_(opts.full_elec.enabled),
      fe_alpha_(opts.full_elec.alpha),
      fe_alpha_spi_(opts.full_elec.alpha / std::sqrt(M_PI)) {
  assert(!fe_enabled_ || full_elec_error(opts.full_elec) == nullptr);
}

const char* pme_grid_error(int grid_x, int grid_y, int grid_z, int order) {
  const auto pow2 = [](int n) { return n > 0 && (n & (n - 1)) == 0; };
  if (order < 2 || order > kMaxPmeOrder) return "PME order must be in [2, 8]";
  if (!pow2(grid_x)) return "PME grid_x must be a power of two";
  if (!pow2(grid_y)) return "PME grid_y must be a power of two";
  if (!pow2(grid_z)) return "PME grid_z must be a power of two";
  if (order > grid_x || order > grid_y || order > grid_z) {
    return "PME order must not exceed any grid dimension";
  }
  return nullptr;
}

const char* full_elec_error(const FullElecOptions& fe) {
  if (!fe.enabled) return nullptr;
  if (!(fe.alpha > 0.0) || fe.alpha > 10.0)
    return "full-elec alpha must be in (0, 10]";
  if (fe.grid_x < 4 || fe.grid_x > 256) return "full-elec grid_x must be in [4, 256]";
  if (fe.grid_y < 4 || fe.grid_y > 256) return "full-elec grid_y must be in [4, 256]";
  if (fe.grid_z < 4 || fe.grid_z > 256) return "full-elec grid_z must be in [4, 256]";
  return pme_grid_error(fe.grid_x, fe.grid_y, fe.grid_z, fe.order);
}

namespace {

/// Full force/energy math for one in-cutoff pair. Adds the pair force to
/// `fi` / `fj` and the energies to `e`. `scale` is 1 for normal pairs and
/// params.scale14 for modified 1-4 pairs.
inline void eval_pair(const NonbondedContext& ctx, int gi, int gj, const Vec3& dr,
                      double r2, double scale, Vec3& fi, Vec3& fj, EnergyTerms& e) {
  const LJPair& lj = ctx.params().lj_pair(ctx.lj_type(gi), ctx.lj_type(gj));
  const double inv_r2 = 1.0 / r2;
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  const double inv_r12 = inv_r6 * inv_r6;

  // Lennard-Jones with switching: E = S(r2) * U(r), U = A r^-12 - B r^-6.
  const double u_lj = lj.a * inv_r12 - lj.b * inv_r6;
  const double s = ctx.switching().value(r2);
  const double ds_dr2 = ctx.switching().dvalue_dr2(r2);
  // dU/d(r2) = (-6 A r^-12 + 3 B r^-6) / r2
  const double du_dr2 = (-6.0 * lj.a * inv_r12 + 3.0 * lj.b * inv_r6) * inv_r2;
  double de_dr2 = scale * (s * du_dr2 + ds_dr2 * u_lj);
  double e_lj = scale * s * u_lj;

  // Electrostatics: E = C q_i q_j / r * T(r2). Cutoff mode uses the NAMD
  // shift T = (1 - r2/rc2)^2; full-elec mode uses the Ewald real-space
  // screen T = erfc(alpha r) (the reciprocal remainder is the PME stage's
  // job). Only the (T, dT/dr2) pair differs between the modes.
  const double qq = units::kCoulomb * ctx.charge(gi) * ctx.charge(gj);
  const double inv_r = std::sqrt(inv_r2);
  double t, dt_dr2;
  if (ctx.full_elec()) {
    const double a = ctx.fe_alpha();
    t = std::erfc(a * r2 * inv_r);
    dt_dr2 = -ctx.fe_alpha_over_sqrt_pi() * std::exp(-a * a * r2) * inv_r;
  } else {
    t = ctx.elec_shift().shift_factor(r2);
    dt_dr2 = ctx.elec_shift().dshift_factor_dr2(r2);
  }
  // d/d(r2) [ qq * r^-1 * T ] = qq * ( -0.5 r^-3 T + r^-1 dT/dr2 )
  const double e_elec = scale * qq * inv_r * t;
  de_dr2 += scale * qq * (-0.5 * inv_r * inv_r2 * t + inv_r * dt_dr2);

  // F_i = -dE/d(r_i); with dr = r_i - r_j, dE/dr_i = 2 * de_dr2 * dr.
  const Vec3 f = dr * (-2.0 * de_dr2);
  fi += f;
  fj -= f;
  e.lj += e_lj;
  e.elec += e_elec;
}

/// Shared inner loop: one outer atom (ai/global gi) against a span of inner
/// atoms starting at `j_begin`.
inline void inner_loop(const NonbondedContext& ctx, int gi, const Vec3& ri, Vec3& fi,
                       std::span<const int> idx_b, std::span<const Vec3> pos_b,
                       std::span<Vec3> f_b, std::size_t j_begin, EnergyTerms& e,
                       WorkCounters& work) {
  const double cutoff2 = ctx.cutoff2();
  const auto excl = ctx.exclusions().excluded(gi);
  const auto mod = ctx.exclusions().modified(gi);
  const bool has_excl = !excl.empty() || !mod.empty();
  for (std::size_t j = j_begin; j < idx_b.size(); ++j) {
    ++work.pairs_tested;
    const Vec3 dr = ri - pos_b[j];
    const double r2 = norm2(dr);
    if (r2 >= cutoff2) continue;
    const int gj = idx_b[j];
    double scale = 1.0;
    if (has_excl) {
      // The vast majority of pairs are unexcluded; the binary searches are
      // over short per-atom lists (< 32 entries for biomolecules).
      if (std::binary_search(excl.begin(), excl.end(), gj)) continue;
      if (std::binary_search(mod.begin(), mod.end(), gj))
        scale = ctx.params().scale14;
    }
    ++work.pairs_computed;
    eval_pair(ctx, gi, gj, dr, r2, scale, fi, f_b[j], e);
  }
}

}  // namespace

bool nonbonded_pair_eval(const NonbondedContext& ctx, int gi, int gj,
                         const Vec3& ri, const Vec3& rj, Vec3& fi, Vec3& fj,
                         EnergyTerms& energy, WorkCounters& work) {
  ++work.pairs_tested;
  const Vec3 dr = ri - rj;
  const double r2 = norm2(dr);
  if (r2 >= ctx.cutoff2()) return false;
  double scale = 1.0;
  switch (ctx.exclusions().check(gi, gj)) {
    case ExclusionKind::kFull:
      return false;
    case ExclusionKind::kModified14:
      scale = ctx.params().scale14;
      break;
    case ExclusionKind::kNone:
      break;
  }
  ++work.pairs_computed;
  eval_pair(ctx, gi, gj, dr, r2, scale, fi, fj, energy);
  return true;
}

EnergyTerms nonbonded_ab(const NonbondedContext& ctx, std::span<const int> idx_a,
                         std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                         std::span<const int> idx_b, std::span<const Vec3> pos_b,
                         std::span<Vec3> f_b, WorkCounters& work) {
  return nonbonded_ab_range(ctx, idx_a, pos_a, f_a, idx_b, pos_b, f_b, 0,
                            idx_a.size(), work);
}

EnergyTerms nonbonded_ab_range(const NonbondedContext& ctx, std::span<const int> idx_a,
                               std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                               std::span<const int> idx_b,
                               std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                               std::size_t a_begin, std::size_t a_end,
                               WorkCounters& work) {
  assert(a_end <= idx_a.size());
  EnergyTerms e;
  for (std::size_t i = a_begin; i < a_end; ++i) {
    inner_loop(ctx, idx_a[i], pos_a[i], f_a[i], idx_b, pos_b, f_b, 0, e, work);
  }
  return e;
}

EnergyTerms nonbonded_self(const NonbondedContext& ctx, std::span<const int> idx,
                           std::span<const Vec3> pos, std::span<Vec3> f,
                           WorkCounters& work) {
  return nonbonded_self_range(ctx, idx, pos, f, 0, idx.size(), work);
}

EnergyTerms nonbonded_self_range(const NonbondedContext& ctx, std::span<const int> idx,
                                 std::span<const Vec3> pos, std::span<Vec3> f,
                                 std::size_t i_begin, std::size_t i_end,
                                 WorkCounters& work) {
  assert(i_end <= idx.size());
  EnergyTerms e;
  for (std::size_t i = i_begin; i < i_end; ++i) {
    inner_loop(ctx, idx[i], pos[i], f[i], idx, pos, f, i + 1, e, work);
  }
  return e;
}

}  // namespace scalemd
