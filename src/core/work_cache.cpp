#include "core/work_cache.hpp"

#include <cmath>

#include "ff/bonded.hpp"
#include "ff/nonbonded_tiled.hpp"

namespace scalemd {

WorkCache::WorkCache(const Molecule& mol, const Decomposition& decomp,
                     const ComputePlan& plan, const NonbondedOptions& nb) {
  const ExclusionTable excl = ExclusionTable::build(mol);
  std::vector<double> charges;
  std::vector<int> types;
  charges.reserve(static_cast<std::size_t>(mol.atom_count()));
  for (const Atom& a : mol.atoms()) {
    charges.push_back(a.charge);
    types.push_back(a.lj_type);
  }
  const NonbondedContext ctx(mol.params, excl, charges, types, nb);
  // The configured kernel, so the probe costs what the runtime will run.
  // kTiledThreads runs its single-thread body here: both give the same
  // counters, and a probe pass has no pool to fan out over.
  const bool tiled = nb.kernel != NonbondedKernel::kScalar;
  TiledWorkspace ws;

  // Patch-local gathered coordinates; throwaway force buffers.
  const auto& patch_atoms = decomp.patch_atoms();
  std::vector<std::vector<Vec3>> ppos(patch_atoms.size());
  std::vector<std::vector<Vec3>> pfrc(patch_atoms.size());
  for (std::size_t p = 0; p < patch_atoms.size(); ++p) {
    ppos[p].reserve(patch_atoms[p].size());
    for (int a : patch_atoms[p]) {
      ppos[p].push_back(mol.positions()[static_cast<std::size_t>(a)]);
    }
    pfrc[p].assign(patch_atoms[p].size(), Vec3{});
  }
  std::vector<Vec3> gfrc(static_cast<std::size_t>(mol.atom_count()));

  work_.reserve(plan.computes().size());
  for (const ComputeDesc& c : plan.computes()) {
    WorkCounters w;
    switch (c.kind) {
      case ComputeKind::kSelf: {
        const auto p = static_cast<std::size_t>(c.patches[0]);
        const std::size_t n = patch_atoms[p].size();
        const auto b = static_cast<std::size_t>(std::lround(c.frac_begin * n));
        const auto e = static_cast<std::size_t>(std::lround(c.frac_end * n));
        energy_ += tiled ? nonbonded_self_range_tiled(ctx, patch_atoms[p], ppos[p],
                                                      pfrc[p], b, e, w, ws)
                         : nonbonded_self_range(ctx, patch_atoms[p], ppos[p],
                                                pfrc[p], b, e, w);
        break;
      }
      case ComputeKind::kPair: {
        const auto pa = static_cast<std::size_t>(c.patches[0]);
        const auto pb = static_cast<std::size_t>(c.patches[1]);
        const std::size_t n = patch_atoms[pa].size();
        const auto b = static_cast<std::size_t>(std::lround(c.frac_begin * n));
        const auto e = static_cast<std::size_t>(std::lround(c.frac_end * n));
        energy_ += tiled ? nonbonded_ab_range_tiled(ctx, patch_atoms[pa], ppos[pa],
                                                    pfrc[pa], patch_atoms[pb],
                                                    ppos[pb], pfrc[pb], b, e, w, ws)
                         : nonbonded_ab_range(ctx, patch_atoms[pa], ppos[pa],
                                              pfrc[pa], patch_atoms[pb], ppos[pb],
                                              pfrc[pb], b, e, w);
        break;
      }
      case ComputeKind::kBonds:
        for (int t : c.terms) {
          const Bond& term = mol.bonds()[static_cast<std::size_t>(t)];
          energy_.bond += bond_energy_force(
              mol.positions()[static_cast<std::size_t>(term.a)],
              mol.positions()[static_cast<std::size_t>(term.b)],
              mol.params.bond(term.param), gfrc[static_cast<std::size_t>(term.a)],
              gfrc[static_cast<std::size_t>(term.b)]);
        }
        w.bonded_terms += c.terms.size();
        break;
      case ComputeKind::kAngles:
        for (int t : c.terms) {
          const Angle& term = mol.angles()[static_cast<std::size_t>(t)];
          energy_.angle += angle_energy_force(
              mol.positions()[static_cast<std::size_t>(term.a)],
              mol.positions()[static_cast<std::size_t>(term.b)],
              mol.positions()[static_cast<std::size_t>(term.c)],
              mol.params.angle(term.param), gfrc[static_cast<std::size_t>(term.a)],
              gfrc[static_cast<std::size_t>(term.b)],
              gfrc[static_cast<std::size_t>(term.c)]);
        }
        w.bonded_terms += c.terms.size();
        break;
      case ComputeKind::kDihedrals:
        for (int t : c.terms) {
          const Dihedral& term = mol.dihedrals()[static_cast<std::size_t>(t)];
          energy_.dihedral += dihedral_energy_force(
              mol.positions()[static_cast<std::size_t>(term.a)],
              mol.positions()[static_cast<std::size_t>(term.b)],
              mol.positions()[static_cast<std::size_t>(term.c)],
              mol.positions()[static_cast<std::size_t>(term.d)],
              mol.params.dihedral(term.param), gfrc[static_cast<std::size_t>(term.a)],
              gfrc[static_cast<std::size_t>(term.b)],
              gfrc[static_cast<std::size_t>(term.c)],
              gfrc[static_cast<std::size_t>(term.d)]);
        }
        w.bonded_terms += c.terms.size();
        break;
      case ComputeKind::kImpropers:
        for (int t : c.terms) {
          const Improper& term = mol.impropers()[static_cast<std::size_t>(t)];
          energy_.improper += improper_energy_force(
              mol.positions()[static_cast<std::size_t>(term.a)],
              mol.positions()[static_cast<std::size_t>(term.b)],
              mol.positions()[static_cast<std::size_t>(term.c)],
              mol.positions()[static_cast<std::size_t>(term.d)],
              mol.params.improper(term.param), gfrc[static_cast<std::size_t>(term.a)],
              gfrc[static_cast<std::size_t>(term.b)],
              gfrc[static_cast<std::size_t>(term.c)],
              gfrc[static_cast<std::size_t>(term.d)]);
        }
        w.bonded_terms += c.terms.size();
        break;
    }
    total_ += w;
    work_.push_back(w);
  }
  total_.atoms_integrated += static_cast<std::uint64_t>(mol.atom_count());
}

WorkCounters WorkCache::total() const { return total_; }

double work_cost(const WorkCounters& w, const MachineModel& m) {
  return static_cast<double>(w.pairs_computed) * m.pair_cost +
         static_cast<double>(w.pairs_tested - w.pairs_computed) * m.pair_test_cost +
         static_cast<double>(w.bonded_terms) * m.bonded_cost +
         static_cast<double>(w.atoms_integrated) * m.integrate_cost;
}

}  // namespace scalemd
