#pragma once

#include <span>

#include "core/compute_plan.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "topo/molecule.hpp"

namespace scalemd {

/// One patch as a compute object sees it during one force evaluation: the
/// patch's atoms and positions, the same atoms as SoA tile rows, and the
/// compute's own force buffer for them.
struct ComputePatch {
  int id = -1;                 ///< patch id: the set in the AtomSlot table
  std::span<const int> atoms;  ///< global atom ids, patch order
  std::span<const Vec3> pos;   ///< positions, parallel to atoms
  TileView tile;               ///< the same atoms in SoA (tiled kernel only)
  std::span<Vec3> frc;         ///< the compute's forces, parallel to atoms
};

/// Runs compute `desc` on `patches`, its dependency patches (for the
/// non-bonded kinds in desc.patches order): the [frac_begin, frac_end)
/// outer-row range of a self or pair kernel call — tiled unless `nb` selects
/// the scalar kernel — or its list of bonded terms. `where` maps each global
/// atom id to (patch id, index in patch); the tiled kernel locates
/// exclusion partners and bonded terms locate their atoms through it.
/// Returns the compute's energy and adds its work to `work`.
///
/// The one compute dispatch: the WorkCache passes that price compute
/// objects for the DES and the runtime's numeric computes both call it, so
/// the model charges exactly what the runtime runs.
EnergyTerms evaluate_compute(const ComputeDesc& desc, const Molecule& mol,
                             const NonbondedContext& nb,
                             std::span<const AtomSlot> where,
                             std::span<const ComputePatch> patches,
                             WorkCounters& work, TileScratch& scratch);

}  // namespace scalemd
