#include "core/compute_eval.hpp"

#include <cassert>
#include <cmath>

#include "ff/bonded.hpp"

namespace scalemd {

namespace {

/// One atom of a bonded term: its position and force slot in the patch
/// that holds it.
struct TermAtom {
  const Vec3& pos;
  Vec3& frc;
};

}  // namespace

EnergyTerms evaluate_compute(const ComputeDesc& desc, const Molecule& mol,
                             const NonbondedContext& nb,
                             std::span<const AtomSlot> where,
                             std::span<const ComputePatch> patches,
                             WorkCounters& work, TileScratch& scratch) {
  if (is_nonbonded(desc.kind)) {
    const ComputePatch& a = patches[0];
    const std::size_t n = a.atoms.size();
    const auto b = static_cast<std::size_t>(std::lround(desc.frac_begin * n));
    const auto e = static_cast<std::size_t>(std::lround(desc.frac_end * n));
    const bool tiled = nb.options().kernel != NonbondedKernel::kScalar;
    if (desc.kind == ComputeKind::kSelf) {
      return tiled ? nonbonded_self_tile_range(nb, a.tile, a.id, where, a.frc, b, e,
                                               work, scratch)
                   : nonbonded_self_range(nb, a.atoms, a.pos, a.frc, b, e, work);
    }
    const ComputePatch& p = patches[1];
    return tiled ? nonbonded_ab_tile_range(nb, a.tile, a.frc, p.tile, p.id, where,
                                           p.frc, b, e, work, scratch)
                 : nonbonded_ab_range(nb, a.atoms, a.pos, a.frc, p.atoms, p.pos,
                                      p.frc, b, e, work);
  }

  const auto at = [&](int atom) -> TermAtom {
    const auto [p, i] = where[static_cast<std::size_t>(atom)];
    const auto si = static_cast<std::size_t>(i);
    for (const ComputePatch& cp : patches) {
      if (cp.id == p) return {cp.pos[si], cp.frc[si]};
    }
    assert(false && "bonded term atom outside the compute's patches");
    return {patches[0].pos[0], patches[0].frc[0]};
  };
  EnergyTerms e;
  for (int t : desc.terms) {
    const auto ts = static_cast<std::size_t>(t);
    switch (desc.kind) {
      case ComputeKind::kBonds: {
        const Bond& term = mol.bonds()[ts];
        const TermAtom a = at(term.a), b = at(term.b);
        e.bond += bond_energy_force(a.pos, b.pos, mol.params.bond(term.param), a.frc,
                                    b.frc);
        break;
      }
      case ComputeKind::kAngles: {
        const Angle& term = mol.angles()[ts];
        const TermAtom a = at(term.a), b = at(term.b), c = at(term.c);
        e.angle += angle_energy_force(a.pos, b.pos, c.pos, mol.params.angle(term.param),
                                      a.frc, b.frc, c.frc);
        break;
      }
      case ComputeKind::kDihedrals: {
        const Dihedral& term = mol.dihedrals()[ts];
        const TermAtom a = at(term.a), b = at(term.b), c = at(term.c), d = at(term.d);
        e.dihedral += dihedral_energy_force(a.pos, b.pos, c.pos, d.pos,
                                            mol.params.dihedral(term.param), a.frc,
                                            b.frc, c.frc, d.frc);
        break;
      }
      default: {
        const Improper& term = mol.impropers()[ts];
        const TermAtom a = at(term.a), b = at(term.b), c = at(term.c), d = at(term.d);
        e.improper += improper_energy_force(a.pos, b.pos, c.pos, d.pos,
                                            mol.params.improper(term.param), a.frc,
                                            b.frc, c.frc, d.frc);
        break;
      }
    }
  }
  work.bonded_terms += desc.terms.size();
  return e;
}

}  // namespace scalemd
