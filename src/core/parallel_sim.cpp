#include "core/parallel_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "ewald/full_elec.hpp"
#include "lb/diffusion.hpp"
#include "lb/evacuate.hpp"
#include "lb/greedy.hpp"
#include "lb/naive.hpp"
#include "lb/problem.hpp"
#include "lb/rcb.hpp"
#include "lb/refine.hpp"
#include "rts/multicast.hpp"
#include "rts/threaded_backend.hpp"
#include "rts/wire.hpp"
#include "seq/integrator.hpp"
#include "util/fixed_point.hpp"
#include "util/units.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Runtime state structs
// ---------------------------------------------------------------------------

/// Home-patch runtime state: the atoms it owns plus step bookkeeping.
struct ParallelSim::PatchRt {
  std::vector<int> atoms;  ///< global atom ids
  std::vector<Vec3> pos, vel, frc;
  std::vector<double> mass;   ///< derived: refresh_atom_index()
  int step = 0;               ///< next advance index within the cycle
  int contrib_expected = 0;   ///< PEs (incl. home) that send force contributions
  int contrib_received = 0;
  /// Numeric mode: this force round's sum of every proxy accumulator and
  /// PME share, in fixed point; advance() converts it to frc once.
  std::vector<FixedVec3> acc;

  int natoms() const { return static_cast<int>(atoms.size()); }

  /// Wire field list: the part of a patch a SimState keeps. The rest is
  /// derived or per-round, and rebuilt after a restore.
  template <class Ar>
  void fields(Ar& ar) {
    ar(atoms, pos, vel, frc, step);
  }
};

/// Proxy-patch state for one (patch, pe): the compute objects on that PE
/// that read the patch, plus one fixed-point force accumulator they all add
/// into. The proxy ships it home as one contribution per force round.
/// Fixed-point addition is exact, so neither the order the computes ran in
/// nor the order the proxies arrive in can change a bit: message faults,
/// retries, placement changes and real thread timing reorder execution but
/// not the physics.
struct ParallelSim::ProxyRt {
  int patch = 0;
  int pe = 0;
  std::vector<int> computes;
  int pending = 0;  ///< computes not yet finished this step
  std::vector<FixedVec3> acc;  ///< numeric mode: this round's forces on the patch
};

/// Per-compute runtime state.
struct ParallelSim::ComputeRt {
  std::vector<int> deps;  ///< current patch dependencies (bonded deps can
                          ///< change after atom migration)
  int deps_pending = 0;
  WorkCounters work;      ///< live-measured work (numeric mode)
};

/// Runtime state of one parallel-PME slab object. Every buffer is per-round
/// transient: the PME pipeline is a per-step barrier (all patches deposit
/// atoms before any slab spreads; all patches wait on every slab's force
/// share before advancing), so by the time any step-(s+1) message can reach
/// a slab its step-s state has been fully consumed — one set of buffers
/// suffices, with no per-step keying.
struct ParallelSim::PmeSlabRt {
  int step = 0;             ///< local step currently assembling
  int atoms_pending = 0;    ///< patch deposits yet to arrive this round
  int fwd_pending = 0;      ///< forward transpose blocks yet to arrive
  int bwd_pending = 0;      ///< backward transpose blocks yet to arrive
  double recip_energy = 0.0;  ///< phase-2 reciprocal partial of this round
  // Numeric mode only: per-patch position deposits, the assembled
  // global-order snapshot, the stencils built at the spread and reused by
  // the gather, and the two grid chunks (plane / column roles).
  std::vector<std::vector<Vec3>> patch_pos;
  std::vector<Vec3> all_pos;
  std::vector<PmeStencil> stencils;
  std::vector<std::complex<double>> planes, columns;
};

/// Everything needed to resume from a quiesced cycle boundary, and nothing
/// the sim can rebuild: atom_loc_, masses and the bonded computes' patch
/// dependencies follow from the patches' atom ids (refresh_atom_index).
/// Every checkpoint (DES in memory, process on disk) and every
/// export_state() blob is this record, encoded. Placement is captured, so a
/// restore rewinds any load balancing done since and evacuation always
/// starts from a self-consistent snapshot.
struct ParallelSim::SimState {
  std::vector<PatchRt> patches;  ///< pos/vel/frc empty in frozen mode
  std::vector<int> patch_home;
  std::vector<int> compute_pe;
  std::vector<int> slab_pe;  ///< PME slab placement (empty when PME is off)
  // Per-step history.
  std::vector<double> reduction_totals;
  std::vector<EnergyTerms> potential_per_step;
  std::vector<double> step_completion;
  std::vector<double> step_last_advance;
  std::vector<int> steps_done_counter;
  int global_steps = 0;
  Rng::State rng{};

  template <class Ar>
  void fields(Ar& ar) {
    ar(patches, patch_home, compute_pe, slab_pe, reduction_totals, potential_per_step,
       step_completion, step_last_advance, steps_done_counter, global_steps, rng);
  }
};

namespace {

/// Checks a record from a forked worker of the same run. A bad one is a
/// bug, not an input error, so it aborts.
void wire_check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "[scalemd] process wire: %s\n", what);
  std::abort();
}

// Message records crossing a worker boundary (process backend). Senders
// attach the encoded record only when the receiver lives in another worker;
// in-process receivers read the sender's state directly.

/// One patch's per-atom vectors for one force round: coordinates to a
/// proxy, an atom deposit to a PME slab, or a slab's force share back.
struct PatchRound {
  int patch = 0;
  int step = 0;
  int slab = -1;  ///< PME messages only
  std::vector<Vec3> v;

  template <class Ar>
  void fields(Ar& ar) {
    ar(patch, step, slab, v);
  }
};

/// One proxy's force accumulator, back to the patch home.
struct ProxyForces {
  int patch = 0;
  int proxy = 0;
  std::vector<FixedVec3> acc;

  template <class Ar>
  void fields(Ar& ar) {
    ar(patch, proxy, acc);
  }
};

/// One PME transpose block between two slabs (either direction).
struct TransposeBlock {
  int dst = 0;
  int src = 0;
  std::vector<double> block;

  template <class Ar>
  void fields(Ar& ar) {
    ar(dst, src, block);
  }
};

template <class T>
T decode_record(const WirePayload& w, const char* what) {
  T rec;
  wire_check(wire::decode(w, rec), what);
  return rec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

namespace {

/// Probe pass: run the unsplit non-bonded kernels once to measure real
/// per-object costs, so grain-size splitting works from measurements.
MeasuredCosts probe_costs(const Molecule& mol, const Decomposition& d,
                          const MachineModel& machine, const NonbondedOptions& nb) {
  ComputePlanOptions probe_opts;
  probe_opts.split_self = false;
  probe_opts.split_face_pairs = false;
  probe_opts.migratable_intra_bonded = false;
  const ComputePlan probe(d, mol, machine, probe_opts);
  const WorkCache w(mol, d, probe, nb);
  MeasuredCosts mc;
  mc.self.assign(static_cast<std::size_t>(d.patch_count()), 0.0);
  for (std::size_t i = 0; i < probe.computes().size(); ++i) {
    const ComputeDesc& desc = probe.computes()[i];
    const double cost = work_cost(w.per_compute(i), machine);
    if (desc.kind == ComputeKind::kSelf) {
      mc.self[static_cast<std::size_t>(desc.patches[0])] = cost;
    } else if (desc.kind == ComputeKind::kPair) {
      mc.pair[{desc.patches[0], desc.patches[1]}] = cost;
    }
  }
  return mc;
}

/// Rejects options no kernel can run before the probe pass runs a kernel.
const NonbondedOptions& checked(const NonbondedOptions& nb) {
  if (const char* why = full_elec_error(nb.full_elec)) {
    throw ParallelConfigError(std::string("invalid full-electrostatics options: ") +
                              why);
  }
  return nb;
}

}  // namespace

Workload::Workload(const Molecule& molecule, const MachineModel& machine,
                   const NonbondedOptions& nonbonded_opts,
                   const ComputePlanOptions& plan_opts)
    : mol(&molecule),
      nonbonded(checked(nonbonded_opts)),
      decomp(molecule, nonbonded_opts.cutoff),
      measured(probe_costs(molecule, decomp, machine, nonbonded_opts)),
      plan(decomp, molecule, machine, plan_opts, &measured),
      work(molecule, decomp, plan, nonbonded_opts) {}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

namespace {

/// "" when `opts` can run `workload`, else the first broken rule (listed at
/// the ParallelSim constructor's declaration).
std::string config_error(const ParallelOptions& opts, const Workload& workload) {
  const bool real = opts.backend != BackendKind::kSimulated;
  if (real && !opts.numeric) {
    return std::string(backend_name(opts.backend)) +
           " backend requires numeric mode";
  }
  if (workload.nonbonded.kernel == NonbondedKernel::kTiledThreads) {
    return "kernel tiled+threads runs only in the sequential engine; use tiled "
           "(the runtime already runs computes on every PE at once)";
  }
  if (real && !opts.fault.empty()) {
    return "fault plans require the simulated backend";
  }
  if (real && opts.reliable) {
    return "reliable delivery requires the simulated backend";
  }
  if (opts.backend == BackendKind::kThreaded && opts.checkpoint_every != 0) {
    return "checkpoints require the simulated or process backend";
  }
  if (const char* why = full_elec_error(workload.nonbonded.full_elec)) {
    return std::string("invalid full-electrostatics options: ") + why;
  }
  if (opts.pme.slabs < 1) {
    return "pme.slabs must be at least 1, got " + std::to_string(opts.pme.slabs);
  }
  if (opts.pme.dedicated_ranks < 0) {
    return "pme.dedicated_ranks must not be negative, got " +
           std::to_string(opts.pme.dedicated_ranks);
  }
  return "";
}

}  // namespace

ParallelSim::ParallelSim(const Workload& workload, const ParallelOptions& opts)
    : wl_(&workload), opts_(opts), mol_(workload.mol) {
  if (const std::string why = config_error(opts_, workload); !why.empty()) {
    throw ParallelConfigError(why);
  }
  if (opts_.numeric) {
    excl_ = ExclusionTable::build(*mol_);
    charges_.reserve(static_cast<std::size_t>(mol_->atom_count()));
    for (const Atom& a : mol_->atoms()) {
      charges_.push_back(a.charge);
      lj_types_.push_back(a.lj_type);
    }
    nb_ctx_ = std::make_unique<NonbondedContext>(mol_->params, excl_, charges_,
                                                 lj_types_, wl_->nonbonded);
    pe_scratch_.resize(static_cast<std::size_t>(opts_.num_pes));
  }

  // Both real backends run tasks for real, so only numeric mode has work to
  // run, and the layers built on DES timer semantics (fault injection,
  // reliable delivery) stay DES-only; config_error() enforced all of that
  // above. The process backend DOES support checkpointing: failures there
  // are real worker deaths (SIGKILL, crash, hang), and recovery replays
  // from an on-disk checkpoint.
  if (opts_.backend == BackendKind::kThreaded) {
    exec_ = std::make_unique<ThreadedBackend>(opts_.num_pes, opts_.machine,
                                              opts_.threads);
  } else if (opts_.backend == BackendKind::kProcess) {
    auto proc = std::make_unique<ProcessBackend>(opts_.num_pes, opts_.machine,
                                                 opts_.process);
    proc_ = proc.get();
    exec_ = std::move(proc);
  } else {
    auto des = std::make_unique<Simulator>(opts_.num_pes, opts_.machine);
    des_ = des.get();
    exec_ = std::move(des);
    if (!opts_.fault.empty()) des_->set_fault_plan(opts_.fault);
  }
  EntryRegistry& reg = exec_->entries();
  e_advance_ = reg.add("Patch::integrate", WorkCategory::kIntegration);
  e_coords_ = reg.add("Proxy::recvCoordinates", WorkCategory::kComm);
  e_forces_ = reg.add("Patch::recvForces", WorkCategory::kComm);
  e_self_ = reg.add("ComputeNonbondedSelf::doWork", WorkCategory::kNonbonded);
  e_pair_ = reg.add("ComputeNonbondedPair::doWork", WorkCategory::kNonbonded);
  e_bonded_intra_ = reg.add("ComputeBondedIntra::doWork", WorkCategory::kBonded);
  e_bonded_inter_ = reg.add("ComputeBondedInter::doWork", WorkCategory::kBonded);
  e_reduction_ = reg.add("Reduction::combine", WorkCategory::kComm);
  e_migrate_ = reg.add("Migrate::recv", WorkCategory::kComm);
  e_checkpoint_ = reg.add("Checkpoint::store", WorkCategory::kComm);
  if (wl_->nonbonded.full_elec.enabled) {
    // Full electrostatics: S slab objects carry the reciprocal solve. The
    // entries exist on every backend (the process wire needs their ids
    // before setup_process_wire registers decoders).
    pme_plan_ = std::make_unique<PmeSlabPlan>(
        mol_->box, to_pme_options(wl_->nonbonded.full_elec), opts_.pme.slabs);
    e_pme_atoms_ = reg.add("PmeSlab::recvAtoms", WorkCategory::kNonbonded);
    e_pme_tr_fwd_ =
        reg.add("PmeSlab::recvTransposeFwd", WorkCategory::kNonbonded);
    e_pme_tr_bwd_ =
        reg.add("PmeSlab::recvTransposeBwd", WorkCategory::kNonbonded);
    e_pme_force_ = reg.add("Patch::recvPmeForces", WorkCategory::kComm);
  }
  if (opts_.reliable) {
    reliable_ = std::make_unique<ReliableComm>(*des_, opts_.reliable_opts);
  }
  if (proc_ != nullptr) setup_process_wire();

  // PME slabs are load-balancer objects too: their task records use ids
  // just past the migratable computes (see load_balance).
  db_ = std::make_unique<LoadDatabase>(
      static_cast<std::size_t>(wl_->plan.migratable_count()) +
          (pme_plan_ != nullptr ? static_cast<std::size_t>(pme_plan_->slabs())
                                : 0),
      opts_.num_pes);
  sinks_.add(db_.get());
  exec_->set_sink(&sinks_);

  // Patch runtime state from the decomposition.
  const auto& patch_atoms = wl_->decomp.patch_atoms();
  patches_.resize(patch_atoms.size());
  atom_loc_.resize(static_cast<std::size_t>(mol_->atom_count()));
  for (std::size_t p = 0; p < patch_atoms.size(); ++p) {
    PatchRt& pr = patches_[p];
    pr.atoms = patch_atoms[p];
    if (opts_.numeric) {
      pr.pos.reserve(pr.atoms.size());
      pr.vel.reserve(pr.atoms.size());
      pr.mass.reserve(pr.atoms.size());
      for (int a : pr.atoms) {
        pr.pos.push_back(mol_->positions()[static_cast<std::size_t>(a)]);
        pr.vel.push_back(mol_->velocities()[static_cast<std::size_t>(a)]);
        pr.mass.push_back(mol_->atoms()[static_cast<std::size_t>(a)].mass);
      }
      pr.frc.assign(pr.atoms.size(), Vec3{});
    }
    for (std::size_t i = 0; i < pr.atoms.size(); ++i) {
      atom_loc_[static_cast<std::size_t>(pr.atoms[i])] = {static_cast<int>(p),
                                                          static_cast<int>(i)};
    }
  }
  active_patches_ = static_cast<int>(patches_.size());
  if (opts_.numeric && wl_->nonbonded.kernel == NonbondedKernel::kTiled) {
    tiles_.resize(static_cast<std::size_t>(mol_->atom_count()));
    tile_off_.resize(patches_.size());
  }

  // Compute runtime state.
  computes_.resize(wl_->plan.computes().size());
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    computes_[i].deps = wl_->plan.computes()[i].patches;
  }

  if (pme_plan_ != nullptr) {
    pme_slabs_.resize(static_cast<std::size_t>(pme_plan_->slabs()));
    pme_place_slabs();
  }

  build_initial_placement();
  rebuild_dataflow();
  rebuild_reducer();
}

ParallelSim::~ParallelSim() = default;

Simulator* ParallelSim::des_or_throw() const {
  if (des_ == nullptr) {
    throw ParallelConfigError(std::string("sim() requires the simulated backend; this "
                                          "sim runs on the ") +
                              backend_name(opts_.backend) + " backend");
  }
  return des_;
}

void ParallelSim::build_initial_placement() {
  // Stage 1 of the paper's load balancing: recursive coordinate bisection of
  // patches, then computes placed on the home PE of their base patch. A
  // caller that already has the RCB result (the serve topology cache shares
  // one across identical-topology jobs) passes it in instead.
  if (opts_.initial_patch_home != nullptr &&
      opts_.initial_patch_home->size() ==
          static_cast<std::size_t>(wl_->decomp.patch_count())) {
    patch_home_ = *opts_.initial_patch_home;
  } else {
    patch_home_ = rcb_patch_map(wl_->decomp.patch_centers(),
                                wl_->decomp.patch_weights(), opts_.num_pes);
  }
  compute_pe_.resize(wl_->plan.computes().size());
  for (std::size_t i = 0; i < compute_pe_.size(); ++i) {
    compute_pe_[i] =
        patch_home_[static_cast<std::size_t>(wl_->plan.computes()[i].base_patch)];
  }
}

void ParallelSim::rebuild_reducer() {
  // Per-step energy reduction: one contribution per patch, from its home PE.
  // Rebuilt whenever patch homes change (evacuation): the tree spans the
  // contributing PEs. A rebuild also discards any partially filled round,
  // which is exactly what checkpoint restart needs.
  std::vector<int> contributor_pes;
  contributor_pes.reserve(patches_.size());
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    contributor_pes.push_back(patch_home_[p]);
  }
  reducer_ = std::make_unique<Reducer>(
      contributor_pes, e_reduction_, [this](int round, double total) {
        if (static_cast<std::size_t>(round) >= reduction_totals_.size()) {
          reduction_totals_.resize(static_cast<std::size_t>(round) + 1, 0.0);
        }
        reduction_totals_[static_cast<std::size_t>(round)] = total;
      });
  if (reliable_) reducer_->set_reliable(reliable_.get());
  if (proc_ != nullptr) reducer_->set_wire(true);
}

void ParallelSim::rsend(ExecContext& ctx, int dest, TaskMsg msg) {
  if (reliable_) {
    reliable_->send(ctx, dest, std::move(msg));
  } else {
    ctx.send(dest, std::move(msg));
  }
}

void ParallelSim::rebuild_dataflow() {
  proxies_.clear();
  patch_proxy_ids_.assign(patches_.size(), {});

  auto proxy_for = [&](int patch, int pe) -> ProxyRt& {
    for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
      if (proxies_[static_cast<std::size_t>(id)].pe == pe) {
        return proxies_[static_cast<std::size_t>(id)];
      }
    }
    patch_proxy_ids_[static_cast<std::size_t>(patch)].push_back(
        static_cast<int>(proxies_.size()));
    proxies_.push_back(ProxyRt{patch, pe, {}, 0, {}});
    return proxies_.back();
  };

  for (std::size_t i = 0; i < computes_.size(); ++i) {
    for (int patch : computes_[i].deps) {
      proxy_for(patch, compute_pe_[i]).computes.push_back(static_cast<int>(i));
    }
    computes_[i].deps_pending = static_cast<int>(computes_[i].deps.size());
  }

  // Tile slices follow the (possibly migrated) patch sizes.
  std::size_t tile_rows = 0;
  for (std::size_t p = 0; p < tile_off_.size(); ++p) {
    tile_off_[p] = tile_rows;
    tile_rows += patches_[p].atoms.size();
  }
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    patches_[p].contrib_expected =
        static_cast<int>(patch_proxy_ids_[p].size());
    // Full electrostatics: the patch also waits for one force share from
    // every PME slab each round.
    if (pme_plan_ != nullptr) {
      patches_[p].contrib_expected += pme_plan_->slabs();
    }
    patches_[p].contrib_received = 0;
    if (opts_.numeric) {
      const std::size_t n = patches_[p].atoms.size();
      patches_[p].acc.assign(n, FixedVec3{});
      for (int id : patch_proxy_ids_[p]) {
        proxies_[static_cast<std::size_t>(id)].acc.assign(n, FixedVec3{});
      }
    }
  }
}

double ParallelSim::noisy(double cost) {
  const double sigma = opts_.machine.task_noise;
  if (sigma <= 0.0) return cost;
  return cost * std::max(0.2, 1.0 + sigma * noise_rng_.normal());
}

int ParallelSim::proxy_index(int patch, int pe) const {
  for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
    if (proxies_[static_cast<std::size_t>(id)].pe == pe) return id;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Step dataflow
// ---------------------------------------------------------------------------

void ParallelSim::gather_tile(int patch) {
  if (tile_off_.empty()) return;
  const PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  tiles_.gather_at(tile_off_[static_cast<std::size_t>(patch)], *nb_ctx_, pr.atoms,
                   pr.pos);
}

TileView ParallelSim::tile_of(int patch) const {
  if (tile_off_.empty()) return {};
  return tiles_.view(tile_off_[static_cast<std::size_t>(patch)],
                     patches_[static_cast<std::size_t>(patch)].atoms.size());
}

void ParallelSim::publish_coords(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  // This round's tile, before any compute reading the patch can be
  // scheduled (the home proxy below runs them straight away).
  gather_tile(patch);
  const std::size_t bytes = msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_coord);

  // Home-side proxy (if any computes run here) is serviced directly.
  std::vector<int> remote;
  for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
    const int pe = proxies_[static_cast<std::size_t>(id)].pe;
    if (pe == home) {
      on_recv_coords(ctx, patch, pe);
    } else {
      remote.push_back(pe);
    }
  }
  multicast(
      ctx, remote, bytes, opts_.optimized_multicast,
      [this, patch, home, &pr](int pe) {
        TaskMsg msg;
        msg.entry = e_coords_;
        msg.priority = -1;
        // Proxies in another worker process cannot read the home replica;
        // ship the step index and the coordinates themselves.
        if (proc_ != nullptr && proc_->owner_of(pe) != proc_->owner_of(home)) {
          msg.wire = wire::encode(PatchRound{patch, pr.step, -1, pr.pos});
        }
        msg.fn = [this, patch, pe](ExecContext& c) {
          c.charge_pack(
              static_cast<double>(
                  msg_bytes(patches_[static_cast<std::size_t>(patch)].atoms.size(),
                            opts_.bytes_per_atom_coord)) *
              c.machine().unpack_byte_cost);
          on_recv_coords(c, patch, pe);
        };
        return msg;
      },
      reliable_.get());

  // Full electrostatics: deposit this patch's positions on every PME slab
  // (with PME on, contrib_expected >= slabs > 0, so the empty-patch special
  // case below stays dormant and even an empty patch is gated on the slab
  // force shares).
  if (pme_plan_ != nullptr) publish_pme_atoms(ctx, patch);

  // A patch no compute reads (e.g. an empty cube) must still advance.
  if (pr.contrib_expected == 0) {
    on_contribution(ctx, patch, -1);
  }
}

void ParallelSim::on_recv_coords(ExecContext& ctx, int patch, int pe) {
  ProxyRt& proxy = proxies_[static_cast<std::size_t>(proxy_index(patch, pe))];
  proxy.pending = static_cast<int>(proxy.computes.size());
  if (opts_.numeric) std::fill(proxy.acc.begin(), proxy.acc.end(), FixedVec3{});
  for (int c : proxy.computes) {
    if (--computes_[static_cast<std::size_t>(c)].deps_pending == 0) {
      computes_[static_cast<std::size_t>(c)].deps_pending =
          static_cast<int>(computes_[static_cast<std::size_t>(c)].deps.size());
      const ComputeDesc& desc = wl_->plan.computes()[static_cast<std::size_t>(c)];
      TaskMsg msg;
      msg.entry = desc.kind == ComputeKind::kSelf   ? e_self_
                  : desc.kind == ComputeKind::kPair ? e_pair_
                  : desc.migratable                 ? e_bonded_intra_
                                                    : e_bonded_inter_;
      const int mi = wl_->plan.migratable_index()[static_cast<std::size_t>(c)];
      msg.object = mi >= 0 ? static_cast<std::uint64_t>(mi) + 1 : 0;
      msg.fn = [this, c](ExecContext& cc) { run_compute(cc, c); };
      ctx.send(pe, std::move(msg));
    }
  }
}

void ParallelSim::run_compute(ExecContext& ctx, int compute) {
  const ComputeDesc& desc = wl_->plan.computes()[static_cast<std::size_t>(compute)];
  ComputeRt& rt = computes_[static_cast<std::size_t>(compute)];
  const int pe = ctx.pe();

  if (opts_.numeric) {
    // The step comes from a patch this compute reads this round: after atom
    // migration a bonded compute's first planned patch may no longer be one
    // of its dependencies, and that patch can be a round ahead or behind.
    const int step_global = step_base_ + patches_[static_cast<std::size_t>(
                                             rt.deps[0])].step;
    // The compute evaluates into the PE's zeroed double scratch, one buffer
    // per dependency patch, and adds the result to that patch's proxy
    // accumulator in fixed point.
    PeScratch& scratch = pe_scratch_[static_cast<std::size_t>(pe)];
    scratch.patches.clear();
    if (scratch.frc.size() < rt.deps.size()) scratch.frc.resize(rt.deps.size());
    for (std::size_t k = 0; k < rt.deps.size(); ++k) {
      const int patch = rt.deps[k];
      const PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
      scratch.frc[k].assign(pr.atoms.size(), Vec3{});
      scratch.patches.push_back({patch, pr.atoms, pr.pos, tile_of(patch), scratch.frc[k]});
    }
    WorkCounters w;
    const EnergyTerms e = evaluate_compute(desc, *mol_, *nb_ctx_, atom_loc_,
                                           scratch.patches, w, scratch.tile);
    rt.work = w;
    for (std::size_t k = 0; k < rt.deps.size(); ++k) {
      const int patch = rt.deps[k];
      if (fold_arrival()) {
        // INJECTED DEFECT (ParallelOptions::debug_fold_arrival_order): a
        // double sum in execution order, which rounds by schedule. The
        // scenario fuzzer's self-test must detect and shrink this.
        std::vector<Vec3>& frc = patches_[static_cast<std::size_t>(patch)].frc;
        for (std::size_t i = 0; i < frc.size(); ++i) frc[i] += scratch.frc[k][i];
      } else if (!add_fixed(proxies_[static_cast<std::size_t>(proxy_index(patch, pe))].acc,
                            scratch.frc[k])) {
        scratch.force_range_error = true;
      }
    }
    // Potential energy goes into this compute's private (compute, step)
    // slot by assignment — no shared accumulator to race on or to
    // double-count under fault replay. attempt_cycle folds the slots in
    // compute-id order once the cycle has quiesced.
    const int local_step = step_global - step_base_;
    if (local_step >= 0 && local_step <= cycle_target_) {
      potential_scratch_[static_cast<std::size_t>(compute) *
                             static_cast<std::size_t>(cycle_target_ + 1) +
                         static_cast<std::size_t>(local_step)] = e;
    }
    if (ctx.models_cost()) ctx.charge(noisy(work_cost(w, ctx.machine())));
  } else {
    ctx.charge(noisy(
        work_cost(wl_->work.per_compute(static_cast<std::size_t>(compute)),
                  ctx.machine())));
  }

  for (int patch : rt.deps) {
    ProxyRt& proxy = proxies_[static_cast<std::size_t>(proxy_index(patch, pe))];
    if (--proxy.pending == 0) {
      complete_patch_on_pe(ctx, patch, pe);
    }
  }
}

void ParallelSim::complete_patch_on_pe(ExecContext& ctx, int patch, int pe) {
  // All of this PE's computes reading `patch` are done: the home patch adds
  // the proxy's accumulator when this signal arrives. Under the threaded
  // backend the mailbox handoff of the signal is also what makes the
  // accumulator's writes visible to the home PE's worker.
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  const int pxy = proxy_index(patch, pe);
  if (pe == home) {
    on_contribution(ctx, patch, pxy);
    return;
  }
  const std::size_t bytes = msg_bytes(
      patches_[static_cast<std::size_t>(patch)].atoms.size(), opts_.bytes_per_atom_force);
  TaskMsg msg;
  msg.entry = e_forces_;
  msg.priority = -2;
  msg.bytes = bytes;
  // Crossing a worker boundary: the home process cannot read this worker's
  // accumulator, so ship it.
  if (proc_ != nullptr && proc_->owner_of(pe) != proc_->owner_of(home)) {
    msg.wire =
        wire::encode(ProxyForces{patch, pxy, proxies_[static_cast<std::size_t>(pxy)].acc});
  }
  msg.fn = [this, patch, pxy, bytes](ExecContext& c) {
    c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
    on_contribution(c, patch, pxy);
  };
  // The sender also pays to pack the outgoing force message.
  ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
  rsend(ctx, home, std::move(msg));
}

void ParallelSim::on_contribution(ExecContext& ctx, int patch, int from_proxy) {
  // Runs on the home PE only, so the patch's sums need no lock.
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  if (opts_.numeric && from_proxy >= 0) {
    const std::vector<FixedVec3>& src = proxies_[static_cast<std::size_t>(from_proxy)].acc;
    for (std::size_t i = 0; i < src.size(); ++i) pr.acc[i] += src[i];
  }
  ++pr.contrib_received;
  if (pr.contrib_received < pr.contrib_expected) return;
  pr.contrib_received = 0;
  TaskMsg msg;
  msg.entry = e_advance_;
  msg.priority = -3;
  msg.fn = [this, patch](ExecContext& c) { advance(c, patch); };
  // on_contribution always runs on the home PE, so this send is local and
  // cannot be faulted; rsend keeps the routing uniform anyway.
  rsend(ctx, patch_home_[static_cast<std::size_t>(patch)], std::move(msg));
}

void ParallelSim::advance(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int s = pr.step;
  const int global = step_base_ + s;
  if (ctx.models_cost()) {
    ctx.charge(noisy(static_cast<double>(pr.natoms()) * ctx.machine().integrate_cost));
  }

  const double dt = opts_.dt_fs / units::kAkmaTimeFs;
  double reduction_value = 1.0;
  if (opts_.numeric && !fold_arrival() && !(s == 0 && carried_)) {
    // Every contribution of the round is in: convert the exact sum once and
    // rearm the accumulator for the next round. A cycle that opens on
    // carried forces ran no round 0; frc already holds them.
    for (std::size_t i = 0; i < pr.frc.size(); ++i) {
      pr.frc[i] = pr.acc[i].to_vec3();
      pr.acc[i] = FixedVec3{};
    }
  }
  if (opts_.numeric) {
    const double kick_scale = s == static_cast<int>(cycle_target_) ? 0.5
                              : s == 0                             ? 0.5
                                                                   : 1.0;
    for (std::size_t i = 0; i < pr.vel.size(); ++i) {
      pr.vel[i] += pr.frc[i] * (kick_scale * dt / pr.mass[i]);
    }
    reduction_value = kinetic_energy(pr.vel, pr.mass);
  }

  if (s < cycle_target_) {
    if (opts_.numeric) {
      for (std::size_t i = 0; i < pr.pos.size(); ++i) pr.pos[i] += pr.vel[i] * dt;
      // The injected defect sums the next round straight into frc.
      if (fold_arrival()) std::fill(pr.frc.begin(), pr.frc.end(), Vec3{});
    }
    pr.step = s + 1;
    publish_coords(ctx, patch);
  }

  reducer_->contribute(ctx, patch, global, reduction_value);

  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++steps_done_counter_[static_cast<std::size_t>(global)];
    step_last_advance_[static_cast<std::size_t>(global)] =
        std::max(step_last_advance_[static_cast<std::size_t>(global)], ctx.now());
    if (steps_done_counter_[static_cast<std::size_t>(global)] == active_patches_) {
      step_completion_[static_cast<std::size_t>(global)] = ctx.now();
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel PME pipeline
// ---------------------------------------------------------------------------
//
// Full-electrostatics runs add S slab objects to the machine, each a
// first-class message-driven object with a home PE, placeable and migratable
// like any compute. One force round runs a five-hop pipeline:
//
//   patches --atoms--> slabs   every patch deposits its positions on every
//       slab (spreading is z-local but atoms are not sorted by z, so each
//       slab needs the whole system). On the last deposit the slab spreads
//       charge onto its z-planes in global atom order and 2D-FFTs them.
//   slabs --fwd transpose--> slabs   S blocks re-lay the grid from z-planes
//       into y-row columns; the column owner z-FFTs each line, applies the
//       influence function (accumulating its reciprocal-energy partial in
//       fixed order), inverse z-FFTs, and
//   slabs --bwd transpose--> slabs   returns the blocks to the plane owners,
//       which inverse 2D-FFT, gather each atom's force share from their
//       planes, add their (slab mod S)-strided share of the exclusion
//       corrections and Ewald self energy, and
//   slabs --forces--> patches   one force share per patch; the patch adds
//       it to its fixed-point accumulator like any proxy's.
//
// Determinism: every slab computes a pure function of the step's positions,
// every transpose block covers a disjoint grid region (insertion order
// cannot matter), energy partials fold in slab order and force shares add
// exactly in fixed point — so trajectories are bitwise identical across PE
// counts, placements, LB strategies and backends. The slab count partitions the sums, so S *is* part of the
// numerics contract and stays fixed across the differential matrix.
//
// The pipeline is a per-step barrier both ways (all patches feed all slabs,
// all patches then wait on all slabs), so one set of per-slab buffers
// suffices: no step-(s+1) message can reach a slab before its step-s state
// has been fully consumed.

void ParallelSim::pme_place_slabs() {
  const int s_count = pme_plan_->slabs();
  slab_pe_.resize(static_cast<std::size_t>(s_count));
  const int dedicated = std::min(opts_.pme.dedicated_ranks, opts_.num_pes);
  for (int s = 0; s < s_count; ++s) {
    if (dedicated > 0) {
      // Dedicated-PME-ranks mode (the trade-off NAMD weighs for its
      // reciprocal work): slabs pinned round-robin onto the last
      // `dedicated` PEs and excluded from load balancing.
      slab_pe_[static_cast<std::size_t>(s)] =
          opts_.num_pes - dedicated + (s % dedicated);
    } else {
      slab_pe_[static_cast<std::size_t>(s)] = s % opts_.num_pes;
    }
  }
}

double ParallelSim::pme_phase_cost(int slab, int phase) const {
  const MachineModel& m = opts_.machine;
  const PmeOptions& o = pme_plan_->options();
  const double stencil_work =
      static_cast<double>(mol_->atom_count()) *
      std::pow(static_cast<double>(o.order), 3.0) /
      static_cast<double>(pme_plan_->slabs());
  const double lx = std::log2(static_cast<double>(o.grid_x));
  const double ly = std::log2(static_cast<double>(o.grid_y));
  const double lz = std::log2(static_cast<double>(o.grid_z));
  const double plane_fft =
      static_cast<double>(pme_plan_->plane_points(slab)) * (lx + ly) *
      m.fft_point_cost;
  switch (phase) {
    case 0:  // spread + forward 2D FFT
      return stencil_work * m.pme_spread_cost + plane_fft;
    case 1:  // z FFT + influence multiply + inverse z FFT
      return static_cast<double>(pme_plan_->column_points(slab)) *
             (2.0 * lz + 1.0) * m.fft_point_cost;
    default:  // inverse 2D FFT + gather
      return plane_fft + stencil_work * m.pme_spread_cost;
  }
}

void ParallelSim::publish_pme_atoms(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  const int step = pr.step;
  const std::size_t bytes = msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_coord);
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int s = 0; s < pme_plan_->slabs(); ++s) {
    const int pe = slab_pe_[static_cast<std::size_t>(s)];
    TaskMsg msg;
    msg.entry = e_pme_atoms_;
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(s);
    // A slab in another worker process cannot read the home replica; ship
    // the positions themselves. In-process slabs copy from the replica at
    // handler time, which is safe because the patch cannot advance past
    // this step until the slab's force share comes back.
    if (proc_ != nullptr && proc_->owner_of(pe) != proc_->owner_of(home)) {
      msg.wire = wire::encode(PatchRound{patch, step, s, pr.pos});
    }
    msg.fn = [this, s, patch, step, bytes](ExecContext& c) {
      c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
      on_pme_atoms(c, s, patch, step, nullptr);
    };
    if (pe != home) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

void ParallelSim::on_pme_atoms(ExecContext& ctx, int slab, int patch, int step,
                               std::vector<Vec3>* wire_pos) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  assert(step == rt.step && "PME deposit for a round the slab is not in");
  (void)step;
  if (opts_.numeric) {
    std::vector<Vec3>& buf = rt.patch_pos[static_cast<std::size_t>(patch)];
    if (wire_pos != nullptr) {
      buf = std::move(*wire_pos);
    } else {
      buf = patches_[static_cast<std::size_t>(patch)].pos;
    }
  }
  if (--rt.atoms_pending > 0) return;
  rt.atoms_pending = static_cast<int>(patches_.size());
  pme_spread_and_transpose(ctx, slab);
}

void ParallelSim::pme_spread_and_transpose(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 0)));
  if (opts_.numeric) {
    // Assemble the positions in global atom order — the order the
    // sequential Pme spreads in, so the grid values match it bitwise.
    rt.all_pos.resize(static_cast<std::size_t>(mol_->atom_count()));
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      const std::vector<int>& atoms = patches_[p].atoms;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        rt.all_pos[static_cast<std::size_t>(atoms[i])] = rt.patch_pos[p][i];
      }
    }
    std::fill(rt.planes.begin(), rt.planes.end(), std::complex<double>{});
    pme_plan_->stencils(slab, rt.all_pos, rt.stencils);
    pme_plan_->spread(slab, rt.stencils, charges_, rt.planes);
    pme_plan_->plane_fft(slab, rt.planes, /*inverse=*/false);
  }
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int dst = 0; dst < pme_plan_->slabs(); ++dst) {
    const int pe = slab_pe_[static_cast<std::size_t>(dst)];
    const std::size_t bytes =
        msg_bytes(pme_plan_->block_doubles(slab, dst), sizeof(double));
    TaskMsg msg;
    msg.entry = e_pme_tr_fwd_;
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(dst);
    std::vector<double> block;
    if (opts_.numeric) block = pme_plan_->extract_fwd(slab, dst, rt.planes);
    if (proc_ != nullptr &&
        proc_->owner_of(pe) !=
            proc_->owner_of(slab_pe_[static_cast<std::size_t>(slab)])) {
      msg.wire = wire::encode(TransposeBlock{dst, slab, block});
    }
    msg.fn = [this, dst, slab, bytes,
              block = std::move(block)](ExecContext& c) {
      c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
      on_pme_fwd(c, dst, slab, block);
    };
    if (pe != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

void ParallelSim::on_pme_fwd(ExecContext& ctx, int slab, int src,
                             const std::vector<double>& block) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (opts_.numeric) pme_plan_->insert_fwd(src, slab, block, rt.columns);
  if (--rt.fwd_pending > 0) return;
  rt.fwd_pending = pme_plan_->slabs();
  pme_convolve_and_return(ctx, slab);
}

void ParallelSim::pme_convolve_and_return(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 1)));
  if (opts_.numeric) rt.recip_energy = pme_plan_->convolve(slab, rt.columns);
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int dst = 0; dst < pme_plan_->slabs(); ++dst) {
    const int pe = slab_pe_[static_cast<std::size_t>(dst)];
    // The backward block dst <- slab covers the same grid region as the
    // forward block dst -> slab, so it has the same size.
    const std::size_t bytes =
        msg_bytes(pme_plan_->block_doubles(dst, slab), sizeof(double));
    TaskMsg msg;
    msg.entry = e_pme_tr_bwd_;
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(dst);
    std::vector<double> block;
    if (opts_.numeric) block = pme_plan_->extract_bwd(slab, dst, rt.columns);
    if (proc_ != nullptr &&
        proc_->owner_of(pe) !=
            proc_->owner_of(slab_pe_[static_cast<std::size_t>(slab)])) {
      msg.wire = wire::encode(TransposeBlock{dst, slab, block});
    }
    msg.fn = [this, dst, slab, bytes,
              block = std::move(block)](ExecContext& c) {
      c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
      on_pme_bwd(c, dst, slab, block);
    };
    if (pe != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

void ParallelSim::on_pme_bwd(ExecContext& ctx, int slab, int src,
                             const std::vector<double>& block) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (opts_.numeric) pme_plan_->insert_bwd(src, slab, block, rt.planes);
  if (--rt.bwd_pending > 0) return;
  rt.bwd_pending = pme_plan_->slabs();
  pme_gather_and_send(ctx, slab);
}

void ParallelSim::pme_gather_and_send(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 2)));
  std::vector<Vec3> all_frc;
  if (opts_.numeric) {
    pme_plan_->plane_fft(slab, rt.planes, /*inverse=*/true);
    all_frc.assign(static_cast<std::size_t>(mol_->atom_count()), Vec3{});
    pme_plan_->gather(slab, rt.stencils, charges_, rt.planes, all_frc);
    // This slab's deterministic share of the terms the grid sum does not
    // carry: the strided self energy and exclusion corrections (their
    // forces land in all_frc by global id, riding the same force shares).
    const double alpha = wl_->nonbonded.full_elec.alpha;
    double e = rt.recip_energy;
    e += ewald_self_energy_strided(alpha, charges_, slab, pme_plan_->slabs());
    e += full_elec_exclusion_corrections(excl_, mol_->params, alpha, charges_,
                                         rt.all_pos, all_frc, slab,
                                         pme_plan_->slabs());
    // Assignment, not += — fault replay of the round stays idempotent.
    pme_scratch_[static_cast<std::size_t>(slab) *
                     static_cast<std::size_t>(cycle_target_ + 1) +
                 static_cast<std::size_t>(rt.step)] = e;
  }
  const int step = rt.step;
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    const int patch = static_cast<int>(p);
    const int home = patch_home_[p];
    const std::size_t bytes =
        msg_bytes(patches_[p].atoms.size(), opts_.bytes_per_atom_force);
    std::vector<Vec3> frc;
    if (opts_.numeric) {
      frc.reserve(patches_[p].atoms.size());
      for (int a : patches_[p].atoms) {
        frc.push_back(all_frc[static_cast<std::size_t>(a)]);
      }
    }
    TaskMsg msg;
    msg.entry = e_pme_force_;
    msg.priority = -2;
    msg.bytes = bytes;
    if (proc_ != nullptr &&
        proc_->owner_of(home) !=
            proc_->owner_of(slab_pe_[static_cast<std::size_t>(slab)])) {
      msg.wire = wire::encode(PatchRound{patch, step, slab, frc});
    }
    msg.fn = [this, patch, bytes, frc = std::move(frc)](ExecContext& c) {
      c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
      on_pme_force(c, patch, frc);
    };
    if (home != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, home, std::move(msg));
  }
  // Round complete: rearm for the next step. The per-step barrier
  // guarantees no next-round message has arrived yet, and the grid chunks
  // need no zeroing (spread zeroes planes first; every transpose insertion
  // fully overwrites its region).
  rt.step += 1;
  rt.recip_energy = 0.0;
}

void ParallelSim::on_pme_force(ExecContext& ctx, int patch, const std::vector<Vec3>& frc) {
  if (opts_.numeric) {
    PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
    if (fold_arrival()) {
      // The injected defect (see run_compute).
      for (std::size_t i = 0; i < frc.size(); ++i) pr.frc[i] += frc[i];
    } else if (!add_fixed(pr.acc, frc)) {
      pe_scratch_[static_cast<std::size_t>(ctx.pe())].force_range_error = true;
    }
  }
  on_contribution(ctx, patch, -1);
}

// ---------------------------------------------------------------------------
// Cycle and benchmark control
// ---------------------------------------------------------------------------

void ParallelSim::attempt_cycle(int steps) {
  // A completed cycle leaves every patch holding its closing round's forces
  // at its final positions (migrate_atoms moves them with the atoms, and
  // checkpoints and export_state keep them), so the next cycle opens on
  // them instead of recomputing them: one force round per step. A fresh
  // sim, a cycle after an incomplete one, and frozen mode (no forces to
  // carry) run the opening round. The rule reads only state, so a restored
  // or imported sim decides exactly as the uninterrupted one did.
  carried_ = opts_.numeric && global_steps_ > 0 && last_cycle_complete();
  cycle_target_ = steps;
  step_base_ = static_cast<int>(step_completion_.size());
  step_completion_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0.0);
  step_last_advance_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0.0);
  steps_done_counter_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0);
  if (opts_.numeric) {
    // One slot per (compute, local step) for steps 0 through the closing
    // half-kick at T. Step 0's slots stay empty when the cycle opens on
    // carried forces.
    potential_scratch_.assign(
        computes_.size() * static_cast<std::size_t>(steps + 1), EnergyTerms{});
  }
  if (pme_plan_ != nullptr) {
    // Reset every slab for the cycle. A replayed cycle (fault recovery)
    // resets the same way, and the per-(slab, step) energy slots below are
    // written by assignment, so replay stays idempotent.
    const int s_count = pme_plan_->slabs();
    if (opts_.numeric) {
      pme_scratch_.assign(static_cast<std::size_t>(s_count) *
                              static_cast<std::size_t>(steps + 1),
                          0.0);
    }
    for (int s = 0; s < s_count; ++s) {
      PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(s)];
      rt.step = carried_ ? 1 : 0;
      rt.atoms_pending = static_cast<int>(patches_.size());
      rt.fwd_pending = s_count;
      rt.bwd_pending = s_count;
      rt.recip_energy = 0.0;
      if (opts_.numeric) {
        rt.patch_pos.assign(patches_.size(), {});
        rt.planes.assign(pme_plan_->plane_points(s), {});
        rt.columns.assign(pme_plan_->column_points(s), {});
      }
    }
  }

  const double t0 = exec_->time();
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    PatchRt& pr = patches_[p];
    pr.step = 0;
    pr.contrib_received = 0;
    TaskMsg msg;
    msg.entry = e_advance_;
    msg.priority = -3;
    const int patch = static_cast<int>(p);
    if (carried_) {
      msg.fn = [this, patch](ExecContext& c) { advance(c, patch); };
    } else {
      // The injected defect sums round 0 straight into frc.
      if (opts_.numeric) std::fill(pr.frc.begin(), pr.frc.end(), Vec3{});
      msg.fn = [this, patch](ExecContext& c) { publish_coords(c, patch); };
    }
    exec_->inject(patch_home_[p], std::move(msg), t0);
  }
  exec_->run();
  // The machine always drains, faults or not: messages to dead PEs are
  // discarded, retry timers abandon after max_attempts, and nothing blocks.
  assert(exec_->idle());
  global_steps_ += steps;

  if (proc_ != nullptr && proc_->last_run_failed()) {
    // A worker died mid-epoch: no state merged back, so there is nothing
    // meaningful to fold or migrate. Leave the zeroed progress counters in
    // place — run_cycle's recovery loop detects the incomplete cycle and
    // restores from the on-disk checkpoint, which rewinds everything this
    // attempt touched (global_steps_ included).
    return;
  }

  if (opts_.numeric) {
    // Tasks only record a force out of the fixed-point range; report it
    // here, before migrate_atoms() bins the bad positions.
    for (std::size_t pe = 0; pe < pe_scratch_.size(); ++pe) {
      if (!pe_scratch_[pe].force_range_error) continue;
      for (PeScratch& sc : pe_scratch_) sc.force_range_error = false;
      throw ForceRangeError("force out of the fixed-point range (non-finite, or at least "
                            "2^62 kcal/mol/A) on PE " + std::to_string(pe) +
                            " in the cycle ending at step " + std::to_string(global_steps_));
    }
    // Fold the per-(compute, step) potential slots in compute-id order.
    // Assignment (not +=) keeps a fault-replayed cycle idempotent.
    potential_per_step_.resize(static_cast<std::size_t>(step_base_ + steps + 1),
                               EnergyTerms{});
    for (int s = 0; s <= steps; ++s) {
      if (s == 0 && carried_) {
        // No opening round ran; its positions are the last closing round's.
        potential_per_step_[static_cast<std::size_t>(step_base_)] =
            potential_terms_at_step(step_base_ - 1);
        continue;
      }
      EnergyTerms sum;
      for (std::size_t c = 0; c < computes_.size(); ++c) {
        sum += potential_scratch_[c * static_cast<std::size_t>(steps + 1) +
                                  static_cast<std::size_t>(s)];
      }
      if (pme_plan_ != nullptr) {
        // Reciprocal-sum partials (plus each slab's share of the self and
        // exclusion corrections) fold after the compute terms, in slab
        // order — the canonical position of PME in the energy sum.
        for (std::size_t sl = 0; sl < pme_slabs_.size(); ++sl) {
          sum.elec += pme_scratch_[sl * static_cast<std::size_t>(steps + 1) +
                                   static_cast<std::size_t>(s)];
        }
      }
      potential_per_step_[static_cast<std::size_t>(step_base_ + s)] = sum;
    }
    migrate_atoms();
  }
}

bool ParallelSim::last_cycle_complete() const {
  if (steps_done_counter_.empty()) return true;
  return steps_done_counter_.back() == active_patches_;
}

void ParallelSim::run_cycle(int steps) {
  // Checked in every build: -1 would size the step counters one short of
  // the index advance() writes, and 0 would run a lone half-kick force round
  // that breaks the velocity-Verlet pairing with the next cycle.
  if (steps < 1) {
    throw ParallelConfigError("run_cycle needs at least one step, got " +
                              std::to_string(steps));
  }
  const bool resilient = opts_.checkpoint_every > 0;
  if (resilient) {
    if (!have_checkpoint() ||
        static_cast<int>(cycles_since_ckpt_.size()) >= opts_.checkpoint_every) {
      take_checkpoint();
    }
    cycles_since_ckpt_.push_back(steps);
  }
  // A cycle has truly finished only when every patch completed every step
  // AND every reduction round landed. The two can diverge: a PE that dies
  // after its patches' final advance but before the reduction tree drained
  // through it leaves last_cycle_complete() true with the last round's
  // total silently missing (found by scalemd-fuzz; see EXPERIMENTS.md).
  const auto recovered = [this]() {
    return last_cycle_complete() &&
           reduction_totals_.size() == step_completion_.size();
  };
  attempt_cycle(steps);
  if (resilient && !recovered()) {
    // Work was lost (typically a PE failure mid-cycle). Restore the last
    // coordinated checkpoint, evacuate the dead PEs, and replay every cycle
    // recorded since the snapshot. A replayed cycle can itself be hit by a
    // later scheduled failure, so loop — with a cap so a hostile plan
    // terminates, and not at all once every PE has died (nothing is left to
    // evacuate onto); an incomplete final cycle is then left for the
    // invariant layer to flag.
    constexpr int kMaxRestarts = 8;
    int tries = 0;
    const auto any_live_pe = [this] {
      return exec_->failed_pes().size() < static_cast<std::size_t>(opts_.num_pes);
    };
    while (!recovered() && tries < kMaxRestarts && any_live_pe()) {
      ++tries;
      restore_checkpoint();
      for (int cycle_steps : cycles_since_ckpt_) {
        attempt_cycle(cycle_steps);
        if (!recovered()) break;
      }
    }
  }
  if (cycle_observer_) cycle_observer_(*this, steps);
}

double ParallelSim::step_completion_at(int s) const {
  if (s < 0 || static_cast<std::size_t>(s) >= step_completion_.size()) return 0.0;
  return step_completion_[static_cast<std::size_t>(s)];
}

double ParallelSim::seconds_per_step_tail(int steps) const {
  // Clamp instead of asserting: callers probing before any cycle ran (or
  // asking for a longer tail than was recorded) get a defined 0.0 /
  // whole-history answer rather than UB.
  const std::size_t n = step_completion_.size();
  if (n < 2) return 0.0;
  std::size_t span = steps < 1 ? 1 : static_cast<std::size_t>(steps);
  span = std::min(span, n - 1);
  const double t1 = step_completion_[n - 1];
  const double t0 = step_completion_[n - 1 - span];
  return (t1 - t0) / static_cast<double>(span);
}

double ParallelSim::run_benchmark(int measure_steps, int timed_steps) {
  run_cycle(measure_steps);
  load_balance(/*refine_only=*/false);
  run_cycle(measure_steps);
  load_balance(/*refine_only=*/true);
  run_cycle(timed_steps);
  return seconds_per_step_tail(timed_steps);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart / evacuation
// ---------------------------------------------------------------------------

void ParallelSim::take_checkpoint() {
  assert(exec_->idle());
  std::vector<std::uint8_t> blob = export_state();
  ckpt_taken_at_ = exec_->time();
  cycles_since_ckpt_.clear();
  ++checkpoints_taken_;
  if (proc_ != nullptr) {
    // Process backend: the blob goes to disk as one kCheckpoint frame and
    // nothing stays in memory — restore must survive on what actually hit
    // the file, exactly like a recovery after a real crash would.
    const int fd = ::open(opts_.checkpoint_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || !wire::write_frame(fd, wire::FrameType::kCheckpoint, blob)) {
      std::fprintf(stderr, "[scalemd] cannot write checkpoint to %s\n",
                   opts_.checkpoint_path.c_str());
      std::abort();
    }
    ::close(fd);
    ckpt_on_disk_ = true;
    sinks_.on_fault({FaultKind::kCheckpoint, -1, -1, ckpt_taken_at_, 0.0});
    return;
  }
  assert(des_ != nullptr && "checkpointing requires the DES or process backend");
  ckpt_ = std::move(blob);
  des_->record_fault({FaultKind::kCheckpoint, -1, -1, ckpt_taken_at_, 0.0});

  // Model the coordinated snapshot's cost: each live PE spends time
  // serializing its resident patch state (this is the overhead the audit
  // reports for fault-free runs with checkpointing on).
  std::vector<double> bytes_on_pe(static_cast<std::size_t>(opts_.num_pes), 0.0);
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    bytes_on_pe[static_cast<std::size_t>(patch_home_[p])] +=
        96.0 * static_cast<double>(patches_[p].natoms());
  }
  const double t0 = des_->time();
  for (int pe = 0; pe < opts_.num_pes; ++pe) {
    if (des_->pe_failed(pe)) continue;
    const double cost =
        bytes_on_pe[static_cast<std::size_t>(pe)] * opts_.machine.pack_byte_cost;
    TaskMsg msg;
    msg.entry = e_checkpoint_;
    msg.fn = [cost](ExecContext& cc) { cc.charge(cost); };
    des_->inject(pe, std::move(msg), t0);
  }
  des_->run();
  assert(des_->idle());
}

void ParallelSim::restore_checkpoint() {
  assert(have_checkpoint());
  std::vector<std::uint8_t> disk;
  if (proc_ != nullptr) {
    const int fd = ::open(opts_.checkpoint_path.c_str(), O_RDONLY);
    wire::FrameType type{};
    const wire::WireError err =
        fd < 0 ? wire::WireError::kIo : wire::read_frame(fd, type, disk);
    if (fd >= 0) ::close(fd);
    if (err != wire::WireError::kOk || type != wire::FrameType::kCheckpoint) {
      std::fprintf(stderr, "[scalemd] cannot restore checkpoint from %s: %s\n",
                   opts_.checkpoint_path.c_str(), wire::wire_error_name(err));
      std::abort();
    }
  }
  SimState s = decode_state(proc_ != nullptr ? disk : ckpt_);
  const double now = exec_->time();
  const double lost = now - ckpt_taken_at_;
  restart_lost_time_ += lost;
  ++restarts_;
  apply_state(std::move(s));
  // The clock is NOT rewound: the lost interval is the real cost of redoing
  // work, and is what restart_latency() reports.
  sinks_.on_fault({FaultKind::kRestart, -1, -1, now, lost});
}

std::vector<std::uint8_t> ParallelSim::export_state() const {
  assert(exec_->idle() && "export_state needs a quiesced machine");
  SimState s;
  s.patches = patches_;
  s.patch_home = patch_home_;
  s.compute_pe = compute_pe_;
  s.slab_pe = slab_pe_;
  s.reduction_totals = reduction_totals_;
  s.potential_per_step = potential_per_step_;
  s.step_completion = step_completion_;
  s.step_last_advance = step_last_advance_;
  s.steps_done_counter = steps_done_counter_;
  s.global_steps = global_steps_;
  s.rng = noise_rng_.state();
  return wire::encode(s);
}

void ParallelSim::import_state(const std::vector<std::uint8_t>& blob) {
  assert(exec_->idle() && "import_state needs a quiesced machine");
  apply_state(decode_state(blob));
}

ParallelSim::SimState ParallelSim::decode_state(
    const std::vector<std::uint8_t>& blob) const {
  const auto check = [](bool ok, const char* why) {
    if (!ok) throw StateError(std::string("bad sim state: ") + why);
  };
  SimState s;
  check(wire::decode(blob, s), "malformed or truncated blob");
  check(s.patches.size() == patches_.size(), "patch count mismatch");
  check(s.patch_home.size() == patches_.size() &&
            s.compute_pe.size() == computes_.size() &&
            s.slab_pe.size() == slab_pe_.size(),
        "placement size mismatch");
  // Every atom of the molecule in exactly one patch: refresh_atom_index()
  // and the kernels index by these ids.
  const auto natoms = static_cast<std::size_t>(mol_->atom_count());
  std::vector<char> seen(natoms, 0);
  std::size_t placed = 0;
  for (const PatchRt& pr : s.patches) {
    const std::size_t n = opts_.numeric ? pr.atoms.size() : 0;
    check(pr.pos.size() == n && pr.vel.size() == n && pr.frc.size() == n,
          "patch vectors do not match its atoms");
    for (int a : pr.atoms) {
      check(a >= 0 && static_cast<std::size_t>(a) < natoms &&
                seen[static_cast<std::size_t>(a)]++ == 0,
            "atom ids do not partition the molecule");
    }
    placed += pr.atoms.size();
  }
  check(placed == natoms, "atom ids do not partition the molecule");
  for (const std::vector<int>* pes : {&s.patch_home, &s.compute_pe, &s.slab_pe}) {
    for (int pe : *pes) check(pe >= 0 && pe < opts_.num_pes, "PE id off the machine");
  }
  return s;
}

void ParallelSim::apply_state(SimState s) {
  patches_ = std::move(s.patches);
  refresh_atom_index();
  patch_home_ = std::move(s.patch_home);
  compute_pe_ = std::move(s.compute_pe);
  slab_pe_ = std::move(s.slab_pe);
  reduction_totals_ = std::move(s.reduction_totals);
  potential_per_step_ = std::move(s.potential_per_step);
  step_completion_ = std::move(s.step_completion);
  step_last_advance_ = std::move(s.step_last_advance);
  steps_done_counter_ = std::move(s.steps_done_counter);
  global_steps_ = s.global_steps;
  noise_rng_.set_state(s.rng);

  // Un-acked pre-restart sends must not be resurrected by stale retries;
  // replayed sends get fresh sequence ids so dedup cannot misfire either.
  if (reliable_) reliable_->clear_pending();

  const std::vector<int> dead = exec_->failed_pes();
  if (!dead.empty() && dead.size() < static_cast<std::size_t>(opts_.num_pes)) {
    evacuate_failed_pes(dead);
  } else {
    // No failure — the stall came from unrecovered message loss. Replaying
    // from the snapshot redraws the per-message fault decisions, so a
    // retry has an independent chance of a clean pass. (With every PE
    // dead there is nothing to evacuate onto, and every cycle stalls.)
    rebuild_reducer();
    rebuild_dataflow();
  }
}

// ---------------------------------------------------------------------------
// Process-backend wire plumbing
// ---------------------------------------------------------------------------

namespace {

/// What one forked worker hands back at quiescence: the state its PEs
/// changed during the cycle. The parent merges the flushes in worker order.
struct WorkerFlush {
  /// A patch homed on this worker, after its last advance.
  struct Patch {
    int id = 0;
    int step = 0;
    std::vector<Vec3> pos, vel, frc;

    template <class Ar>
    void fields(Ar& ar) {
      ar(id, step, pos, vel, frc);
    }
  };
  std::vector<Patch> patches;
  /// Potential rows (one entry per local step) of the computes and PME
  /// slabs this worker ran.
  std::vector<std::pair<int, std::vector<EnergyTerms>>> compute_rows;
  std::vector<std::pair<int, std::vector<double>>> slab_rows;
  /// Per local step: the advances this worker ran (the range was zeroed
  /// before the fork, so the local count is the delta) and the latest one's
  /// time.
  std::vector<std::pair<int, double>> progress;
  /// The cycle's reduction totals; only the tree root's worker has them.
  std::vector<double> reduction_totals;
  /// This worker's PEs that saw a force out of the fixed-point range.
  std::vector<int> force_range_pes;

  template <class Ar>
  void fields(Ar& ar) {
    ar(patches, compute_rows, slab_rows, progress, reduction_totals, force_range_pes);
  }
};

}  // namespace

void ParallelSim::setup_process_wire() {
  // Every decoder decodes its record when the frame arrives and applies it
  // when the task runs.

  // Coordinates crossing a worker boundary: apply the shipped positions and
  // step index to the receiving worker's patch replica, then run the normal
  // receive path.
  proc_->register_decoder(e_coords_, [this](const WirePayload& w) -> TaskFn {
    PatchRound rec = decode_record<PatchRound>(w, "coords");
    return [this, rec = std::move(rec)](ExecContext& c) mutable {
      wire_check(rec.patch >= 0 && static_cast<std::size_t>(rec.patch) < patches_.size(),
            "coords patch out of range");
      PatchRt& pr = patches_[static_cast<std::size_t>(rec.patch)];
      wire_check(rec.v.size() == pr.pos.size(), "coords payload size mismatch");
      pr.step = rec.step;
      pr.pos = std::move(rec.v);
      gather_tile(rec.patch);
      c.charge_pack(static_cast<double>(msg_bytes(pr.pos.size(),
                                                  opts_.bytes_per_atom_coord)) *
                    c.machine().unpack_byte_cost);
      on_recv_coords(c, rec.patch, c.pe());
    };
  });

  // Force contributions arriving at the home worker: adopt the contributing
  // proxy's accumulator, then signal the contribution.
  proc_->register_decoder(e_forces_, [this](const WirePayload& w) -> TaskFn {
    ProxyForces rec = decode_record<ProxyForces>(w, "forces");
    return [this, rec = std::move(rec)](ExecContext& c) mutable {
      wire_check(rec.proxy >= 0 && static_cast<std::size_t>(rec.proxy) < proxies_.size() &&
                proxies_[static_cast<std::size_t>(rec.proxy)].patch == rec.patch,
            "forces proxy out of range");
      ProxyRt& proxy = proxies_[static_cast<std::size_t>(rec.proxy)];
      wire_check(rec.acc.size() == proxy.acc.size(), "forces payload size mismatch");
      proxy.acc = std::move(rec.acc);
      c.charge_pack(
          static_cast<double>(msg_bytes(
              patches_[static_cast<std::size_t>(rec.patch)].pos.size(),
              opts_.bytes_per_atom_force)) *
          c.machine().unpack_byte_cost);
      on_contribution(c, rec.patch, rec.proxy);
    };
  });

  // Reduction partial sums climbing the tree.
  proc_->register_decoder(e_reduction_, [this](const WirePayload& w) -> TaskFn {
    return reducer_->decode(w);
  });

  // PME frames (full-electrostatics runs only; the entries are registered
  // before this point whenever pme_plan_ exists, so registering the
  // decoders unconditionally on pme_plan_ is safe).
  if (pme_plan_ != nullptr) {
    const auto in_range = [this](const PatchRound& rec) {
      return rec.slab >= 0 && static_cast<std::size_t>(rec.slab) < pme_slabs_.size() &&
             rec.patch >= 0 && static_cast<std::size_t>(rec.patch) < patches_.size() &&
             rec.v.size() == patches_[static_cast<std::size_t>(rec.patch)].atoms.size();
    };
    // Atom deposit crossing a worker boundary: the slab's worker cannot
    // read the patch replica, so positions ride the wire and land in the
    // slab's own per-patch buffer (never the replica — that belongs to the
    // coordinate path).
    proc_->register_decoder(
        e_pme_atoms_, [this, in_range](const WirePayload& w) -> TaskFn {
          PatchRound rec = decode_record<PatchRound>(w, "pme atoms");
          return [this, in_range, rec = std::move(rec)](ExecContext& c) mutable {
            wire_check(in_range(rec), "pme atoms record does not fit");
            c.charge_pack(
                static_cast<double>(msg_bytes(rec.v.size(), opts_.bytes_per_atom_coord)) *
                c.machine().unpack_byte_cost);
            on_pme_atoms(c, rec.slab, rec.patch, rec.step, &rec.v);
          };
        });

    const auto transpose_decoder = [this](bool forward) {
      return [this, forward](const WirePayload& w) -> TaskFn {
        TransposeBlock rec = decode_record<TransposeBlock>(w, "pme transpose");
        return [this, forward, rec = std::move(rec)](ExecContext& c) {
          const auto slabs = pme_slabs_.size();
          wire_check(rec.dst >= 0 && static_cast<std::size_t>(rec.dst) < slabs &&
                    rec.src >= 0 && static_cast<std::size_t>(rec.src) < slabs,
                "pme transpose slab out of range");
          const std::size_t doubles = forward ? pme_plan_->block_doubles(rec.src, rec.dst)
                                              : pme_plan_->block_doubles(rec.dst, rec.src);
          wire_check(rec.block.size() == doubles, "pme transpose block size mismatch");
          c.charge_pack(static_cast<double>(msg_bytes(doubles, sizeof(double))) *
                        c.machine().unpack_byte_cost);
          if (forward) {
            on_pme_fwd(c, rec.dst, rec.src, rec.block);
          } else {
            on_pme_bwd(c, rec.dst, rec.src, rec.block);
          }
        };
      };
    };
    proc_->register_decoder(e_pme_tr_fwd_, transpose_decoder(true));
    proc_->register_decoder(e_pme_tr_bwd_, transpose_decoder(false));

    // Force shares back to the patch home.
    proc_->register_decoder(
        e_pme_force_, [this, in_range](const WirePayload& w) -> TaskFn {
          PatchRound rec = decode_record<PatchRound>(w, "pme force");
          return [this, in_range, rec = std::move(rec)](ExecContext& c) mutable {
            wire_check(in_range(rec), "pme force record does not fit");
            c.charge_pack(
                static_cast<double>(msg_bytes(rec.v.size(), opts_.bytes_per_atom_force)) *
                c.machine().unpack_byte_cost);
            on_pme_force(c, rec.patch, rec.v);
          };
        });
  }

  proc_->set_state_hooks(
      [this](int worker, int /*workers*/) { return flush_worker_state(worker); },
      [this](int /*worker*/, const std::vector<std::uint8_t>& blob) {
        merge_worker_state(blob);
      });
}

std::vector<std::uint8_t> ParallelSim::flush_worker_state(int worker) const {
  const auto mine = [&](int pe) { return proc_->owner_of(pe) == worker; };
  const std::size_t row = static_cast<std::size_t>(cycle_target_ + 1);
  WorkerFlush f;
  // Patches are mutated by advance() on their home PE only.
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    if (!mine(patch_home_[p])) continue;
    const PatchRt& pr = patches_[p];
    f.patches.push_back({static_cast<int>(p), pr.step, pr.pos, pr.vel, pr.frc});
  }
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (!mine(compute_pe_[i])) continue;
    const auto first = potential_scratch_.begin() + static_cast<std::ptrdiff_t>(i * row);
    f.compute_rows.emplace_back(
        static_cast<int>(i),
        std::vector<EnergyTerms>(first, first + static_cast<std::ptrdiff_t>(row)));
  }
  // A slab's energy partials live only on its own worker (its forces
  // already reached the patch workers through the wire).
  for (std::size_t s = 0; s < slab_pe_.size(); ++s) {
    if (!mine(slab_pe_[s])) continue;
    const auto first = pme_scratch_.begin() + static_cast<std::ptrdiff_t>(s * row);
    f.slab_rows.emplace_back(
        static_cast<int>(s),
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(row)));
  }
  for (int s = 0; s <= cycle_target_; ++s) {
    const auto g = static_cast<std::size_t>(step_base_ + s);
    f.progress.emplace_back(steps_done_counter_[g], step_last_advance_[g]);
  }
  if (mine(reducer_->root_pe())) {
    for (std::size_t g = static_cast<std::size_t>(step_base_);
         g < std::min(reduction_totals_.size(), static_cast<std::size_t>(step_base_) + row);
         ++g) {
      f.reduction_totals.push_back(reduction_totals_[g]);
    }
  }
  for (std::size_t pe = 0; pe < pe_scratch_.size(); ++pe) {
    if (mine(static_cast<int>(pe)) && pe_scratch_[pe].force_range_error) {
      f.force_range_pes.push_back(static_cast<int>(pe));
    }
  }
  return wire::encode(f);
}

void ParallelSim::merge_worker_state(const std::vector<std::uint8_t>& blob) {
  // The blob comes from this run's own forked worker, merged after it was
  // reaped.
  WorkerFlush f;
  wire_check(wire::decode(blob, f), "malformed worker state");
  const std::size_t row = static_cast<std::size_t>(cycle_target_ + 1);
  for (WorkerFlush::Patch& fp : f.patches) {
    wire_check(fp.id >= 0 && static_cast<std::size_t>(fp.id) < patches_.size(),
               "bad patch record");
    PatchRt& pr = patches_[static_cast<std::size_t>(fp.id)];
    wire_check(fp.pos.size() == pr.pos.size() && fp.vel.size() == pr.pos.size() &&
                   fp.frc.size() == pr.pos.size(),
               "patch size mismatch");
    pr.step = fp.step;
    pr.pos = std::move(fp.pos);
    pr.vel = std::move(fp.vel);
    pr.frc = std::move(fp.frc);
  }
  for (const auto& [i, terms] : f.compute_rows) {
    wire_check(i >= 0 && static_cast<std::size_t>(i) < computes_.size() &&
                   terms.size() == row,
               "bad compute record");
    std::copy(terms.begin(), terms.end(),
              potential_scratch_.begin() + static_cast<std::ptrdiff_t>(i * row));
  }
  for (const auto& [s, energies] : f.slab_rows) {
    wire_check(s >= 0 && static_cast<std::size_t>(s) < pme_slabs_.size() &&
                   energies.size() == row,
               "bad pme slab record");
    std::copy(energies.begin(), energies.end(),
              pme_scratch_.begin() + static_cast<std::ptrdiff_t>(s * row));
  }
  wire_check(f.progress.size() == row, "bad progress record");
  for (std::size_t s = 0; s < row; ++s) {
    const std::size_t g = static_cast<std::size_t>(step_base_) + s;
    steps_done_counter_[g] += f.progress[s].first;
    step_last_advance_[g] = std::max(step_last_advance_[g], f.progress[s].second);
    if (steps_done_counter_[g] == active_patches_) {
      step_completion_[g] = step_last_advance_[g];
    }
  }
  if (!f.reduction_totals.empty()) {
    wire_check(f.reduction_totals.size() <= row, "bad reduction totals");
    const std::size_t need = static_cast<std::size_t>(step_base_) + f.reduction_totals.size();
    if (reduction_totals_.size() < need) reduction_totals_.resize(need, 0.0);
    std::copy(f.reduction_totals.begin(), f.reduction_totals.end(),
              reduction_totals_.begin() + step_base_);
  }
  for (int pe : f.force_range_pes) {
    wire_check(pe >= 0 && static_cast<std::size_t>(pe) < pe_scratch_.size(), "bad PE id");
    pe_scratch_[static_cast<std::size_t>(pe)].force_range_error = true;
  }
}

void ParallelSim::evacuate_failed_pes(const std::vector<int>& dead) {
  std::vector<char> is_dead(static_cast<std::size_t>(opts_.num_pes), 0);
  for (int pe : dead) is_dead[static_cast<std::size_t>(pe)] = 1;
  const std::vector<double> busy = exec_->busy_times();

  // 1. Re-home orphaned patches: prefer the live PE already running the
  //    most computes that read the patch (fewest new proxies), tie-break
  //    on lighter historical load, then PE id — deterministic.
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    if (!is_dead[static_cast<std::size_t>(patch_home_[p])]) continue;
    std::vector<int> affinity(static_cast<std::size_t>(opts_.num_pes), 0);
    for (std::size_t i = 0; i < computes_.size(); ++i) {
      const auto pe = static_cast<std::size_t>(compute_pe_[i]);
      if (is_dead[pe]) continue;
      for (int dep : computes_[i].deps) {
        if (dep == static_cast<int>(p)) ++affinity[pe];
      }
    }
    int best = -1;
    for (int pe = 0; pe < opts_.num_pes; ++pe) {
      const auto u = static_cast<std::size_t>(pe);
      if (is_dead[u]) continue;
      const bool better =
          best < 0 || affinity[u] > affinity[static_cast<std::size_t>(best)] ||
          (affinity[u] == affinity[static_cast<std::size_t>(best)] &&
           busy[u] < busy[static_cast<std::size_t>(best)]);
      if (better) best = pe;
    }
    assert(best >= 0 && "all PEs failed — nothing to evacuate onto");
    patch_home_[p] = best;
  }

  // 1b. PME slabs on dead PEs are re-homed round-robin over the survivors.
  //     Deterministic, and nothing moves with them: slab state is per-cycle
  //     transient and every replay rebuilds it from scratch.
  if (pme_plan_ != nullptr) {
    std::vector<int> live;
    for (int pe = 0; pe < opts_.num_pes; ++pe) {
      if (!is_dead[static_cast<std::size_t>(pe)]) live.push_back(pe);
    }
    for (std::size_t s = 0; s < slab_pe_.size(); ++s) {
      if (is_dead[static_cast<std::size_t>(slab_pe_[s])]) {
        slab_pe_[s] = live[s % live.size()];
      }
    }
  }

  // 2. Non-migratable computes are pinned to their base patch's home,
  //    which step 1 just guaranteed is live.
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (wl_->plan.migratable_index()[i] >= 0) continue;
    compute_pe_[i] = patch_home_[static_cast<std::size_t>(
        wl_->plan.computes()[i].base_patch)];
  }

  // 3. Migratable computes go through the LB evacuation strategy (greedy
  //    proxy-aware placement + refine over the survivors).
  std::vector<int> object_compute;
  const LbProblem problem = lb_problem(object_compute);
  LbAssignment start;
  for (const LbObject& o : problem.objects) start.push_back(o.current_pe);
  const LbAssignment map = evacuate_map(problem, start, dead);
  int moved = 0;
  for (std::size_t j = 0; j < map.size(); ++j) {
    const auto i = static_cast<std::size_t>(object_compute[j]);
    if (compute_pe_[i] != map[j]) ++moved;
    compute_pe_[i] = map[j];
  }

  for (int pe : dead) {
    sinks_.on_fault({FaultKind::kEvacuation, pe, -1, exec_->time(),
                     static_cast<double>(moved)});
  }

  // Patch homes changed: the reduction tree spans different PEs now.
  rebuild_reducer();
  rebuild_dataflow();
}

// ---------------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------------

LbProblem ParallelSim::lb_problem(std::vector<int>& object_compute) const {
  LbProblem problem;
  problem.num_pes = opts_.num_pes;
  problem.patch_home = patch_home_;
  problem.background = db_->background();
  object_compute.clear();
  object_compute.reserve(static_cast<std::size_t>(wl_->plan.migratable_count()));
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    const int mi = wl_->plan.migratable_index()[i];
    if (mi < 0) continue;
    LbObject o;
    o.load = db_->object_load(static_cast<std::uint32_t>(mi));
    o.current_pe = compute_pe_[i];
    o.patch_a = computes_[i].deps.empty() ? -1 : computes_[i].deps[0];
    o.patch_b = computes_[i].deps.size() > 1 ? computes_[i].deps[1] : -1;
    problem.objects.push_back(o);
    object_compute.push_back(static_cast<int>(i));
  }
  return problem;
}

void ParallelSim::load_balance(bool refine_only) {
  if (opts_.lb.kind == LbStrategyKind::kNone) {
    db_->reset();
    return;
  }

  // Graceful degradation: if PEs have failed, first make sure nothing is
  // homed on them (idempotent when already evacuated), and remember to
  // keep the strategy's output off them below. The DES machine fails PEs
  // per its fault plan, the process backend when a worker dies; the
  // threaded backend has none to report.
  const std::vector<int> dead = exec_->failed_pes();
  if (!dead.empty() &&
      static_cast<std::size_t>(dead.size()) < static_cast<std::size_t>(opts_.num_pes)) {
    evacuate_failed_pes(dead);
  }

  // Build the strategy input from the measurement database.
  std::vector<int> object_compute;  // object -> compute id
  LbProblem problem = lb_problem(object_compute);
  // PME slabs are ordinary migratable objects (patch-less: every strategy
  // treats patch_a = -1 as "no communication affinity"), priced from the
  // same measurement database via their task records. Dedicated-ranks mode
  // pins them instead. object_compute encodes slab s as -1 - s.
  if (pme_plan_ != nullptr && opts_.pme.dedicated_ranks <= 0) {
    for (int s = 0; s < pme_plan_->slabs(); ++s) {
      LbObject o;
      o.load = db_->object_load(static_cast<std::uint32_t>(
          wl_->plan.migratable_count() + s));
      o.current_pe = slab_pe_[static_cast<std::size_t>(s)];
      problem.objects.push_back(o);
      object_compute.push_back(-1 - s);
    }
  }

  LbAssignment map;
  switch (opts_.lb.kind) {
    case LbStrategyKind::kRandom:
      map = random_map(problem);
      break;
    case LbStrategyKind::kGreedyNoComm:
      map = greedy_nocomm_map(problem);
      break;
    case LbStrategyKind::kGreedy:
      map = greedy_comm_map(problem, opts_.lb.greedy_overload);
      break;
    case LbStrategyKind::kGreedyRefine:
      map = refine_only
                ? refine_map(problem, identity_map(problem), opts_.lb.refine_overload)
                : refine_map(problem, greedy_comm_map(problem, opts_.lb.greedy_overload),
                             opts_.lb.refine_overload);
      break;
    case LbStrategyKind::kDiffusion:
      map = diffusion_map(problem);
      break;
    case LbStrategyKind::kNone:
      return;
  }

  // The strategies are failure-blind; route anything they put on a dead PE
  // back onto the survivors.
  if (!dead.empty() &&
      static_cast<std::size_t>(dead.size()) < static_cast<std::size_t>(opts_.num_pes)) {
    map = evacuate_map(problem, map, dead, opts_.lb.refine_overload);
  }

  // Apply the new mapping; model each migration as a message carrying the
  // object's state from its old PE to its new one. The process backend
  // skips the modeled traffic (migration happens in the parent between
  // epochs; these bookkeeping messages have no wire form to cross workers).
  const double t0 = exec_->time();
  for (std::size_t j = 0; j < map.size(); ++j) {
    const int compute = object_compute[j];
    int old_pe;
    const int new_pe = map[j];
    if (compute < 0) {
      const auto slab = static_cast<std::size_t>(-1 - compute);
      old_pe = slab_pe_[slab];
      if (old_pe == new_pe) continue;
      slab_pe_[slab] = new_pe;
    } else {
      old_pe = compute_pe_[static_cast<std::size_t>(compute)];
      if (old_pe == new_pe) continue;
      compute_pe_[static_cast<std::size_t>(compute)] = new_pe;
    }
    if (proc_ != nullptr) continue;
    TaskMsg msg;
    msg.entry = e_migrate_;
    msg.fn = [this, new_pe](ExecContext& c) {
      TaskMsg arrive;
      arrive.entry = e_migrate_;
      arrive.bytes = 1024;
      arrive.fn = [](ExecContext& cc) { cc.charge(2e-6); };
      c.send(new_pe, std::move(arrive));
    };
    exec_->inject(old_pe, std::move(msg), t0);
  }
  if (proc_ == nullptr) exec_->run();
  rebuild_dataflow();
  db_->reset();
}

// ---------------------------------------------------------------------------
// Atom migration (numeric mode, cycle boundaries)
// ---------------------------------------------------------------------------

void ParallelSim::refresh_atom_index() {
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    PatchRt& pr = patches_[p];
    if (opts_.numeric) pr.mass.resize(pr.atoms.size());
    for (std::size_t i = 0; i < pr.atoms.size(); ++i) {
      const auto a = static_cast<std::size_t>(pr.atoms[i]);
      atom_loc_[a] = {static_cast<int>(p), static_cast<int>(i)};
      if (opts_.numeric) pr.mass[i] = mol_->atoms()[a].mass;
    }
  }
  // Bonded compute dependencies: term atoms may have changed patches
  // (self/pair computes reference patches directly).
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    const ComputeDesc& desc = wl_->plan.computes()[i];
    if (is_nonbonded(desc.kind)) continue;
    std::vector<int> deps;
    auto add_dep = [&](int atom) {
      const int p = atom_loc_[static_cast<std::size_t>(atom)].first;
      if (std::find(deps.begin(), deps.end(), p) == deps.end()) deps.push_back(p);
    };
    for (int t : desc.terms) {
      switch (desc.kind) {
        case ComputeKind::kBonds: {
          const Bond& term = mol_->bonds()[static_cast<std::size_t>(t)];
          add_dep(term.a);
          add_dep(term.b);
          break;
        }
        case ComputeKind::kAngles: {
          const Angle& term = mol_->angles()[static_cast<std::size_t>(t)];
          add_dep(term.a);
          add_dep(term.b);
          add_dep(term.c);
          break;
        }
        case ComputeKind::kDihedrals: {
          const Dihedral& term = mol_->dihedrals()[static_cast<std::size_t>(t)];
          add_dep(term.a);
          add_dep(term.b);
          add_dep(term.c);
          add_dep(term.d);
          break;
        }
        default: {
          const Improper& term = mol_->impropers()[static_cast<std::size_t>(t)];
          add_dep(term.a);
          add_dep(term.b);
          add_dep(term.c);
          add_dep(term.d);
          break;
        }
      }
    }
    std::sort(deps.begin(), deps.end());
    computes_[i].deps = std::move(deps);
  }
}

void ParallelSim::migrate_atoms() {
  const CellGrid& grid = wl_->decomp.grid();
  // Collect movers per source patch: (atom index, destination patch).
  std::vector<std::vector<std::pair<int, int>>> movers(patches_.size());
  bool any = false;
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    PatchRt& pr = patches_[p];
    for (std::size_t i = 0; i < pr.atoms.size(); ++i) {
      const int dst = grid.cell_of(pr.pos[i]);
      if (dst != static_cast<int>(p)) {
        movers[p].push_back({static_cast<int>(i), dst});
        any = true;
      }
    }
  }
  if (any) {
    // Grow each destination to its exact new size up front. push_back would
    // double a patch's arrays whenever it outgrows them, and over a long
    // run that slack accumulated into several MB of peak RSS.
    std::vector<std::size_t> arriving(patches_.size(), 0);
    for (const auto& from : movers) {
      for (const auto& mv : from) ++arriving[static_cast<std::size_t>(mv.second)];
    }
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      PatchRt& d = patches_[p];
      const std::size_t n = d.atoms.size() + arriving[p];
      d.atoms.reserve(n);
      d.pos.reserve(n);
      d.vel.reserve(n);
      d.mass.reserve(n);  // refresh_atom_index() fills it
      d.frc.reserve(n);
    }
    // Apply moves: copy atom state to destinations, compact sources.
    std::map<std::pair<int, int>, int> traffic;  // (src pe, dst pe) -> atoms
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      if (movers[p].empty()) continue;
      PatchRt& src = patches_[p];
      std::vector<char> moved(src.atoms.size(), 0);
      for (const auto& [idx, dst] : movers[p]) {
        PatchRt& d = patches_[static_cast<std::size_t>(dst)];
        d.atoms.push_back(src.atoms[static_cast<std::size_t>(idx)]);
        d.pos.push_back(src.pos[static_cast<std::size_t>(idx)]);
        d.vel.push_back(src.vel[static_cast<std::size_t>(idx)]);
        d.frc.push_back(src.frc[static_cast<std::size_t>(idx)]);
        moved[static_cast<std::size_t>(idx)] = 1;
        const int src_pe = patch_home_[p];
        const int dst_pe = patch_home_[static_cast<std::size_t>(dst)];
        if (src_pe != dst_pe) ++traffic[{src_pe, dst_pe}];
      }
      // Compact the source arrays.
      std::size_t w = 0;
      for (std::size_t i = 0; i < src.atoms.size(); ++i) {
        if (moved[i]) continue;
        src.atoms[w] = src.atoms[i];
        src.pos[w] = src.pos[i];
        src.vel[w] = src.vel[i];
        src.frc[w] = src.frc[i];
        ++w;
      }
      src.atoms.resize(w);
      src.pos.resize(w);
      src.vel.resize(w);
      src.frc.resize(w);
    }
    refresh_atom_index();
    // Model the migration traffic: one batched message per (src, dst) PE
    // pair, sized by the number of atoms moved. Skipped under the process
    // backend (atoms move in the parent; the modeled messages have no wire
    // form to cross workers).
    if (proc_ == nullptr) {
      const double t0 = exec_->time();
      for (const auto& [edge, count] : traffic) {
        const auto [src_pe, dst_pe] = edge;
        const std::size_t bytes = 32 + 96 * static_cast<std::size_t>(count);
        TaskMsg msg;
        msg.entry = e_migrate_;
        msg.fn = [this, dst_pe = dst_pe, bytes](ExecContext& c) {
          TaskMsg arrive;
          arrive.entry = e_migrate_;
          arrive.bytes = bytes;
          arrive.fn = [bytes](ExecContext& cc) {
            cc.charge_pack(static_cast<double>(bytes) * cc.machine().unpack_byte_cost);
          };
          c.send(dst_pe, std::move(arrive));
        };
        exec_->inject(src_pe, std::move(msg), t0);
      }
      exec_->run();
    }
  }
  rebuild_dataflow();
}

// ---------------------------------------------------------------------------
// Results access
// ---------------------------------------------------------------------------

void ParallelSim::attach_sink(TraceSink* sink) { sinks_.add(sink); }

void ParallelSim::detach_sink(const TraceSink* sink) { sinks_.remove(sink); }

double ParallelSim::ideal_nonbonded_seconds() const {
  double s = 0.0;
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (is_nonbonded(wl_->plan.computes()[i].kind)) {
      s += work_cost(wl_->work.per_compute(i), opts_.machine);
    }
  }
  return s;
}

double ParallelSim::ideal_bonded_seconds() const {
  double s = 0.0;
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (!is_nonbonded(wl_->plan.computes()[i].kind)) {
      s += work_cost(wl_->work.per_compute(i), opts_.machine);
    }
  }
  return s;
}

double ParallelSim::ideal_integration_seconds() const {
  return static_cast<double>(mol_->atom_count()) * opts_.machine.integrate_cost;
}

int ParallelSim::patch_count() const { return static_cast<int>(patches_.size()); }

int ParallelSim::proxy_count() const {
  int count = 0;
  for (const ProxyRt& p : proxies_) {
    count += p.pe != patch_home_[static_cast<std::size_t>(p.patch)];
  }
  return count;
}

int ParallelSim::max_proxies_per_patch() const {
  int best = 0;
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    int count = 0;
    for (int id : patch_proxy_ids_[p]) {
      count += proxies_[static_cast<std::size_t>(id)].pe != patch_home_[p];
    }
    best = std::max(best, count);
  }
  return best;
}

std::vector<Vec3> ParallelSim::gather(std::vector<Vec3> PatchRt::*field) const {
  std::vector<Vec3> out(static_cast<std::size_t>(mol_->atom_count()));
  for (const PatchRt& p : patches_) {
    for (std::size_t i = 0; i < p.atoms.size(); ++i) {
      out[static_cast<std::size_t>(p.atoms[i])] = (p.*field)[i];
    }
  }
  return out;
}

std::vector<Vec3> ParallelSim::gather_positions() const { return gather(&PatchRt::pos); }
std::vector<Vec3> ParallelSim::gather_velocities() const { return gather(&PatchRt::vel); }
std::vector<Vec3> ParallelSim::gather_forces() const { return gather(&PatchRt::frc); }

EnergyTerms ParallelSim::potential_terms_at_step(int s) const {
  if (s < 0 || static_cast<std::size_t>(s) >= potential_per_step_.size()) {
    return EnergyTerms{};
  }
  return potential_per_step_[static_cast<std::size_t>(s)];
}

double ParallelSim::potential_at_step(int s) const {
  return potential_terms_at_step(s).total();
}

}  // namespace scalemd
