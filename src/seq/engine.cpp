#include "seq/engine.hpp"

#include <algorithm>
#include <cassert>

#include "ewald/full_elec.hpp"

namespace scalemd {

SequentialEngine::SequentialEngine(const Molecule& mol, const EngineOptions& opts)
    : mol_(mol),
      opts_(opts),
      excl_(ExclusionTable::build(mol)),
      grid_(mol.box, std::max(opts.nonbonded.cutoff,
                              mol.suggested_patch_size > 0.0 ? mol.suggested_patch_size
                                                             : opts.nonbonded.cutoff)),
      integrator_(opts.dt_fs),
      forces_(static_cast<std::size_t>(mol.atom_count())),
      cell_pairs_(grid_.neighbor_pairs()) {
  mol_.params.finalize();
  charges_.reserve(forces_.size());
  lj_types_.reserve(forces_.size());
  masses_.reserve(forces_.size());
  for (const auto& a : mol_.atoms()) {
    charges_.push_back(a.charge);
    lj_types_.push_back(a.lj_type);
    masses_.push_back(a.mass);
  }
  if (opts_.nonbonded.full_elec.enabled) {
    assert(full_elec_error(opts_.nonbonded.full_elec) == nullptr);
    pme_ = std::make_unique<Pme>(mol_.box, to_pme_options(opts_.nonbonded.full_elec));
  }
  compute_forces();
}

ThreadPool& SequentialEngine::pool() {
  if (pool_ == nullptr) {
    const int t = opts_.nonbonded.threads > 0 ? opts_.nonbonded.threads
                                              : ThreadPool::default_threads();
    pool_ = std::make_unique<ThreadPool>(t);
  }
  return *pool_;
}

EnergyTerms SequentialEngine::evaluate_nonbonded(std::span<Vec3> out) {
  const NonbondedContext ctx(mol_.params, excl_, charges_, lj_types_,
                             opts_.nonbonded);
  const bool threaded = opts_.nonbonded.kernel == NonbondedKernel::kTiledThreads;

  if (opts_.use_pairlist) {
    if (pairlist_ == nullptr) {
      pairlist_ = std::make_unique<VerletList>(mol_.box, opts_.nonbonded.cutoff,
                                               opts_.pairlist_skin);
    }
    if (pairlist_->needs_rebuild(mol_.positions())) pairlist_->build(mol_.positions());
    if (opts_.nonbonded.kernel != NonbondedKernel::kScalar) refresh_pairlist_codes();
    EnergyTerms e = threaded ? eval_pairlist_mt(ctx, out) : eval_pairlist(ctx, out);
    e.elec += evaluate_reciprocal(out);
    return e;
  }
  EnergyTerms e = threaded ? eval_cells_mt(ctx, out) : eval_cells(ctx, out);
  e.elec += evaluate_reciprocal(out);
  return e;
}

double SequentialEngine::evaluate_reciprocal(std::span<Vec3> out) {
  if (pme_ == nullptr) return 0.0;
  // The long-range remainder of the Ewald split: grid-based reciprocal sum
  // over all atoms, the constant self-energy, and the erf complement for
  // pairs the short-range kernels excluded or scaled. Folded into the elec
  // energy term so trajectory formats stay unchanged.
  const double alpha = opts_.nonbonded.full_elec.alpha;
  double e = pme_->reciprocal(mol_.positions(), charges_, out);
  e += ewald_self_energy_strided(alpha, charges_, 0, 1);
  e += full_elec_exclusion_corrections(excl_, mol_.params, alpha, charges_,
                                       mol_.positions(), out, 0, 1);
  return e;
}

void SequentialEngine::layout_cells(const NonbondedContext& ctx) {
  const auto& pos = mol_.positions();
  const CellList cells(grid_, pos);
  cells_.clear(mol_.atom_count());
  for (int c = 0; c < grid_.cell_count(); ++c) cells_.add(cells.atoms_in(c), pos);
  if (opts_.nonbonded.kernel != NonbondedKernel::kScalar) cells_.gather_tiles(ctx);
}

EnergyTerms SequentialEngine::eval_cell_task(const NonbondedContext& ctx,
                                             std::size_t task, std::span<Vec3> frc,
                                             WorkCounters& work, TileScratch& scratch) {
  const auto slice = [&](int c) {
    return frc.subspan(cells_.offset(c), cells_.size(c));
  };
  const bool tiled = opts_.nonbonded.kernel != NonbondedKernel::kScalar;
  const auto nc = static_cast<std::size_t>(cells_.sets());
  if (task < nc) {
    const int c = static_cast<int>(task);
    return tiled ? nonbonded_self_tile_range(ctx, cells_.tile(c), c, cells_.where(),
                                             slice(c), 0, cells_.size(c), work,
                                             scratch)
                 : nonbonded_self(ctx, cells_.atoms(c), cells_.pos(c), slice(c), work);
  }
  const auto [a, b] = cell_pairs_[task - nc];
  return tiled ? nonbonded_ab_tile_range(ctx, cells_.tile(a), slice(a), cells_.tile(b),
                                         b, cells_.where(), slice(b), 0,
                                         cells_.size(a), work, scratch)
               : nonbonded_ab(ctx, cells_.atoms(a), cells_.pos(a), slice(a),
                              cells_.atoms(b), cells_.pos(b), slice(b), work);
}

SequentialEngine::TileShape SequentialEngine::tile_shape() const {
  TileShape shape;
  shape.blocks = tile_scratch_.blocks;
  for (const NbWorker& w : nb_workers_) shape.blocks += w.scratch.blocks;
  for (int c = 0; c < cells_.sets(); ++c) {
    const TileView t = cells_.tile(c);
    shape.atoms += t.n;
    shape.slots += t.slots;
  }
  return shape;
}

EnergyTerms SequentialEngine::eval_cells(const NonbondedContext& ctx,
                                         std::span<Vec3> out) {
  layout_cells(ctx);
  // Tasks in order: every cell's self interactions, then every neighbor
  // pair, accumulating into cell-ordered forces scattered at the end.
  cell_frc_.assign(cells_.atom_count(), Vec3{});
  tile_scratch_.blocks = 0;
  EnergyTerms energy;
  const std::size_t ntasks = static_cast<std::size_t>(cells_.sets()) + cell_pairs_.size();
  for (std::size_t t = 0; t < ntasks; ++t) {
    energy += eval_cell_task(ctx, t, cell_frc_, work_, tile_scratch_);
  }
  const auto atoms = cells_.atoms();
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    out[static_cast<std::size_t>(atoms[k])] += cell_frc_[k];
  }
  return energy;
}

EnergyTerms SequentialEngine::eval_cells_mt(const NonbondedContext& ctx,
                                            std::span<Vec3> out) {
  layout_cells(ctx);
  ThreadPool& tp = pool();
  nb_workers_.resize(static_cast<std::size_t>(tp.size()));
  for (auto& w : nb_workers_) {
    w.frc.assign(cells_.atom_count(), Vec3{});
    w.work = {};
    w.scratch.blocks = 0;
  }

  // The serial path's tasks on the pool. The static schedule plus
  // per-worker buffers keeps the reduction deterministic for a fixed thread
  // count.
  const std::size_t ntasks = static_cast<std::size_t>(cells_.sets()) + cell_pairs_.size();
  task_energy_.assign(ntasks, EnergyTerms{});
  tp.run(ntasks, [&](std::size_t t, int worker) {
    NbWorker& w = nb_workers_[static_cast<std::size_t>(worker)];
    task_energy_[t] = eval_cell_task(ctx, t, w.frc, w.work, w.scratch);
  });

  EnergyTerms energy;
  for (const EnergyTerms& e : task_energy_) energy += e;
  const auto atoms = cells_.atoms();
  for (const auto& w : nb_workers_) {
    work_ += w.work;
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      out[static_cast<std::size_t>(atoms[k])] += w.frc[k];
    }
  }
  return energy;
}

void SequentialEngine::refresh_pairlist_codes() {
  if (codes_builds_ == pairlist_->builds()) return;
  codes_builds_ = pairlist_->builds();
  const int n = mol_.atom_count();
  code_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  codes_.clear();
  codes_.reserve(pairlist_->pair_count());
  for (int i = 0; i < n; ++i) {
    for (int j : pairlist_->neighbors(i)) {
      codes_.push_back(static_cast<std::uint8_t>(excl_.check(i, j)));
    }
    code_off_[static_cast<std::size_t>(i) + 1] =
        static_cast<std::uint32_t>(codes_.size());
  }
}

EnergyTerms SequentialEngine::eval_pairlist(const NonbondedContext& ctx,
                                            std::span<Vec3> out) {
  EnergyTerms energy;
  const auto& pos = mol_.positions();
  const int n = mol_.atom_count();
  if (opts_.nonbonded.kernel == NonbondedKernel::kScalar) {
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      for (int j : pairlist_->neighbors(i)) {
        const auto sj = static_cast<std::size_t>(j);
        nonbonded_pair_eval(ctx, i, j, pos[si], pos[sj], out[si], out[sj], energy,
                            work_);
      }
    }
    return energy;
  }
  for (int i = 0; i < n; ++i) {
    const auto nbrs = pairlist_->neighbors(i);
    const auto off = code_off_[static_cast<std::size_t>(i)];
    energy += nonbonded_neighbors_tiled(
        ctx, i, pos, nbrs, {codes_.data() + off, nbrs.size()}, out, work_,
        tile_scratch_.row);
  }
  return energy;
}

EnergyTerms SequentialEngine::eval_pairlist_mt(const NonbondedContext& ctx,
                                               std::span<Vec3> out) {
  const auto& pos = mol_.positions();
  const auto n = static_cast<std::size_t>(mol_.atom_count());
  ThreadPool& tp = pool();

  // Outer-atom chunks are the task unit (paper section 4.2.1's grain-size
  // unit); per-worker global force buffers absorb the scattered j-forces.
  constexpr std::size_t kChunkAtoms = 256;
  const std::size_t nchunks = (n + kChunkAtoms - 1) / kChunkAtoms;
  nb_workers_.resize(static_cast<std::size_t>(tp.size()));
  for (auto& w : nb_workers_) {
    w.frc.assign(n, Vec3{});
    w.work = {};
  }
  task_energy_.assign(nchunks, EnergyTerms{});
  tp.run(nchunks, [&](std::size_t t, int worker) {
    NbWorker& w = nb_workers_[static_cast<std::size_t>(worker)];
    const std::size_t lo = t * kChunkAtoms;
    const std::size_t hi = std::min(n, lo + kChunkAtoms);
    EnergyTerms e;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto nbrs = pairlist_->neighbors(static_cast<int>(i));
      const auto off = code_off_[i];
      e += nonbonded_neighbors_tiled(ctx, static_cast<int>(i), pos, nbrs,
                                     {codes_.data() + off, nbrs.size()}, w.frc,
                                     w.work, w.scratch.row);
    }
    task_energy_[t] = e;
  });

  EnergyTerms energy;
  for (const EnergyTerms& e : task_energy_) energy += e;
  for (const auto& w : nb_workers_) {
    work_ += w.work;
    for (std::size_t i = 0; i < n; ++i) out[i] += w.frc[i];
  }
  return energy;
}

EnergyTerms SequentialEngine::evaluate_bonded(std::span<Vec3> out) {
  EnergyTerms energy;
  const auto& pos = mol_.positions();
  energy += evaluate_bonds(mol_.params, mol_.bonds(), pos, out, work_);
  energy += evaluate_angles(mol_.params, mol_.angles(), pos, out, work_);
  energy += evaluate_dihedrals(mol_.params, mol_.dihedrals(), pos, out, work_);
  energy += evaluate_impropers(mol_.params, mol_.impropers(), pos, out, work_);
  return energy;
}

void SequentialEngine::compute_forces() {
  energy_ = {};
  work_ = {};
  std::fill(forces_.begin(), forces_.end(), Vec3{});
  energy_ += evaluate_nonbonded(forces_);
  energy_ += evaluate_bonded(forces_);
}

void SequentialEngine::step() {
  integrator_.half_kick(forces_, masses_, mol_.velocities());
  integrator_.drift(mol_.velocities(), mol_.positions());
  compute_forces();
  work_.atoms_integrated += static_cast<std::uint64_t>(mol_.atom_count());
  integrator_.half_kick(forces_, masses_, mol_.velocities());
  ++steps_done_;
  if (observer_) observer_(*this, steps_done_);
}

void SequentialEngine::run(int n) {
  for (int i = 0; i < n; ++i) step();
}

double SequentialEngine::kinetic() const {
  return kinetic_energy(mol_.velocities(), masses_);
}

}  // namespace scalemd
