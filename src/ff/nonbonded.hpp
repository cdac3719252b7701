#pragma once

#include <cstdint>
#include <span>

#include "ff/switching.hpp"
#include "topo/exclusions.hpp"
#include "topo/parameters.hpp"
#include "util/vec3.hpp"

namespace scalemd {

/// Which implementation evaluates the cutoff non-bonded interactions. All
/// variants produce the same forces/energies (within summation-order
/// rounding) and identical WorkCounters; they differ only in layout and
/// parallelism (see ff/nonbonded_tiled.hpp).
enum class NonbondedKernel {
  kScalar,        ///< reference AoS loop, per-pair exclusion binary search
  kTiled,         ///< SoA tiles + precomputed exclusion bitmasks
  kTiledThreads,  ///< tiled kernel, sequential engine tasks on a thread pool
};

/// Full-electrostatics (smooth particle-mesh Ewald) parameters. When
/// `enabled`, the pairwise kernels swap the shifted-Coulomb factor for the
/// erfc(alpha r) Ewald screen and the engines add the grid-based reciprocal
/// sum, the self-energy, and the exclusion corrections (see src/ewald/).
/// Lives here (not in src/ewald/) so the option flows through
/// NonbondedOptions to every engine without a layering inversion.
struct FullElecOptions {
  bool enabled = false;
  double alpha = 0.35;  ///< Ewald splitting parameter, 1/A
  int grid_x = 32;      ///< PME grid dims; must be powers of two (radix-2 FFT)
  int grid_y = 32;
  int grid_z = 32;
  int order = 4;  ///< cardinal B-spline interpolation order, 2..kMaxPmeOrder
};

/// Highest supported PME B-spline order: the PME stencils hold their
/// weights in fixed arrays of this size.
inline constexpr int kMaxPmeOrder = 8;

/// nullptr when a PME grid of these dimensions can run with this B-spline
/// order, else a static string naming the first broken rule: `order` in
/// [2, kMaxPmeOrder], every grid dimension a power of two and at least
/// `order`. full_elec_error applies it, and so do the Pme and PmeSlabPlan
/// constructors, in every build.
const char* pme_grid_error(int grid_x, int grid_y, int grid_z, int order);

/// Validates `fe` (when enabled): returns nullptr if usable, else a static
/// string naming the offending field. Used by scenario parsing and engine
/// setup so bad parameters become named errors, never asserts deep in the
/// FFT.
const char* full_elec_error(const FullElecOptions& fe);

/// Cutoff scheme parameters. The paper's benchmarks use a 12 A cutoff; we
/// default the switch distance to 10 A as NAMD does for that cutoff.
struct NonbondedOptions {
  double cutoff = 12.0;       ///< A
  double switch_dist = 10.0;  ///< A
  /// kTiled everywhere by default; kScalar stays selectable as the
  /// reference the other kernels are tested against.
  NonbondedKernel kernel = NonbondedKernel::kTiled;
  /// Worker count for kTiledThreads; 0 means ThreadPool::default_threads().
  /// Only the sequential engine runs kTiledThreads; ParallelSim rejects it.
  int threads = 0;
  FullElecOptions full_elec;
};

/// Work performed by a kernel invocation, fed into the DES cost model.
/// `pairs_tested` counts distance evaluations; `pairs_computed` counts pairs
/// that fell inside the cutoff and had full force math applied.
struct WorkCounters {
  std::uint64_t pairs_tested = 0;
  std::uint64_t pairs_computed = 0;
  std::uint64_t bonded_terms = 0;
  std::uint64_t atoms_integrated = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    pairs_tested += o.pairs_tested;
    pairs_computed += o.pairs_computed;
    bonded_terms += o.bonded_terms;
    atoms_integrated += o.atoms_integrated;
    return *this;
  }
};

/// Accumulated potential-energy components of one evaluation.
struct EnergyTerms {
  double lj = 0.0;
  double elec = 0.0;
  double bond = 0.0;
  double angle = 0.0;
  double dihedral = 0.0;
  double improper = 0.0;

  double total() const { return lj + elec + bond + angle + dihedral + improper; }

  EnergyTerms& operator+=(const EnergyTerms& o) {
    lj += o.lj;
    elec += o.elec;
    bond += o.bond;
    angle += o.angle;
    dihedral += o.dihedral;
    improper += o.improper;
    return *this;
  }
};

/// Wire field list (rts/wire.hpp).
template <class Ar>
void fields(Ar& ar, EnergyTerms& t) {
  ar(t.lj, t.elec, t.bond, t.angle, t.dihedral, t.improper);
}

/// Immutable per-system inputs shared by every non-bonded kernel call:
/// force-field parameters, exclusion table, per-atom charge/type arrays
/// (indexed by *global* atom id), and the cutoff scheme.
class NonbondedContext {
 public:
  /// All referenced objects must outlive the context. `params` must be
  /// finalized.
  NonbondedContext(const ParameterTable& params, const ExclusionTable& excl,
                   std::span<const double> charge, std::span<const int> lj_type,
                   const NonbondedOptions& opts);

  const ParameterTable& params() const { return *params_; }
  const ExclusionTable& exclusions() const { return *excl_; }
  double charge(int global) const { return charge_[static_cast<std::size_t>(global)]; }
  int lj_type(int global) const { return type_[static_cast<std::size_t>(global)]; }
  const NonbondedOptions& options() const { return opts_; }
  const SwitchFunction& switching() const { return switch_; }
  const ElecShift& elec_shift() const { return shift_; }
  double cutoff2() const { return cutoff2_; }

  /// Full-electrostatics mode: pairwise elec term is qq erfc(alpha r)/r
  /// instead of the shifted Coulomb. The reciprocal/self/exclusion pieces are
  /// the engines' responsibility (seq: SequentialEngine, parallel: PME slabs).
  bool full_elec() const { return fe_enabled_; }
  double fe_alpha() const { return fe_alpha_; }
  /// alpha/sqrt(pi), the d(erfc(alpha r))/d(r2) prefactor.
  double fe_alpha_over_sqrt_pi() const { return fe_alpha_spi_; }

 private:
  const ParameterTable* params_;
  const ExclusionTable* excl_;
  std::span<const double> charge_;
  std::span<const int> type_;
  NonbondedOptions opts_;
  SwitchFunction switch_;
  ElecShift shift_;
  double cutoff2_;
  bool fe_enabled_;
  double fe_alpha_;
  double fe_alpha_spi_;
};

/// Computes switched LJ + shifted electrostatic interactions between every
/// atom of set A and every atom of set B (the sets must be disjoint).
/// `idx_*` are global atom ids parallel to `pos_*`; forces are accumulated
/// into `f_*` (not zeroed). Returns the energy contribution.
EnergyTerms nonbonded_ab(const NonbondedContext& ctx, std::span<const int> idx_a,
                         std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                         std::span<const int> idx_b, std::span<const Vec3> pos_b,
                         std::span<Vec3> f_b, WorkCounters& work);

/// As nonbonded_ab but restricted to outer-loop atoms a in [a_begin, a_end).
/// This is the unit of grain-size splitting for face-pair computes
/// (paper section 4.2.1).
EnergyTerms nonbonded_ab_range(const NonbondedContext& ctx, std::span<const int> idx_a,
                               std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                               std::span<const int> idx_b,
                               std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                               std::size_t a_begin, std::size_t a_end,
                               WorkCounters& work);

/// Interactions among all i < j pairs within one atom set.
EnergyTerms nonbonded_self(const NonbondedContext& ctx, std::span<const int> idx,
                           std::span<const Vec3> pos, std::span<Vec3> f,
                           WorkCounters& work);

/// Evaluates one candidate pair (global ids gi/gj at ri/rj): applies the
/// cutoff and exclusion checks, accumulates forces and energies on hit.
/// Returns true if the pair was inside the cutoff and unexcluded. The
/// pairlist evaluation path (seq/pairlist) drives the kernels pair-by-pair
/// through this entry.
bool nonbonded_pair_eval(const NonbondedContext& ctx, int gi, int gj,
                         const Vec3& ri, const Vec3& rj, Vec3& fi, Vec3& fj,
                         EnergyTerms& energy, WorkCounters& work);

/// As nonbonded_self but restricted to outer-loop atoms i in
/// [i_begin, i_end); pairs are (i, j) with j > i, so the union over a
/// partition of [0, n) covers every pair exactly once. This is the unit of
/// grain-size splitting for within-cube computes.
EnergyTerms nonbonded_self_range(const NonbondedContext& ctx, std::span<const int> idx,
                                 std::span<const Vec3> pos, std::span<Vec3> f,
                                 std::size_t i_begin, std::size_t i_end,
                                 WorkCounters& work);

}  // namespace scalemd
