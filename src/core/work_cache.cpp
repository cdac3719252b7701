#include "core/work_cache.hpp"

#include <cmath>

#include "core/compute_eval.hpp"

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

  // The atoms in patch order, laid out as the runtime lays out its patches,
  // so every compute runs the configured kernel (kTiledThreads runs its
  // single-thread body: both give the same counters) on the runtime's data.
  // Forces land in a throwaway buffer.
  SetLayout layout;
  layout.clear(mol.atom_count());
  for (const std::vector<int>& atoms : decomp.patch_atoms()) {
    layout.add(atoms, mol.positions());
  }
  if (nb.kernel != NonbondedKernel::kScalar) layout.gather_tiles(ctx);
  std::vector<Vec3> frc(layout.atom_count());
  TileScratch scratch;
  std::vector<ComputePatch> patches;

  work_.reserve(plan.computes().size());
  for (const ComputeDesc& c : plan.computes()) {
    patches.clear();
    for (int p : c.patches) {
      patches.push_back({p, layout.atoms(p), layout.pos(p), layout.tile(p),
                         {frc.data() + layout.offset(p), layout.size(p)}});
    }
    WorkCounters w;
    energy_ += evaluate_compute(c, mol, ctx, layout.where(), patches, w, scratch);
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
