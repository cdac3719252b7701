#include "check/invariants.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "core/parallel_sim.hpp"
#include "seq/constraints.hpp"
#include "seq/engine.hpp"
#include "seq/integrator.hpp"
#include "topo/exclusions.hpp"
#include "topo/molecule.hpp"

namespace scalemd {

namespace {

std::string describe(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(const InvariantOptions& opts, ViolationLog* log)
    : opts_(opts), log_(log != nullptr ? log : &owned_log_) {}

bool InvariantChecker::fail(int step, const char* term, double magnitude,
                            double bound, std::string detail) {
  log_->add({step, term, magnitude, bound, std::move(detail)});
  return false;
}

void InvariantChecker::attach(SequentialEngine& engine) {
  engine.set_step_observer(
      [this](const SequentialEngine& e, int step) { observe(e, step); });
}

void InvariantChecker::attach(ParallelSim& sim) {
  sim.set_cycle_observer(
      [this](const ParallelSim& s, int /*steps*/) { observe_cycle(s); });
}

void InvariantChecker::observe(const SequentialEngine& engine, int step) {
  if (opts_.every > 1 && step % opts_.every != 0) return;
  if (opts_.check_net_force) check_net_force(engine.forces(), step);
  if (opts_.check_momentum) {
    check_momentum(engine.velocities(), engine.masses(), step);
  }
  if (opts_.check_energy) check_energy(engine.total_energy(), step);
  if (opts_.check_exclusions) {
    check_exclusions(engine.molecule(), engine.exclusions(),
                     engine.options().nonbonded, engine.work(), step);
  }
  if (constraints_ != nullptr) {
    check_constraints(*constraints_, engine.positions(), step);
  }
}

bool InvariantChecker::check_net_force(std::span<const Vec3> forces, int step) {
  ++checks_run_;
  Vec3 net;
  double scale = 0.0;
  for (const Vec3& f : forces) {
    net += f;
    scale += std::fabs(f.x) + std::fabs(f.y) + std::fabs(f.z);
  }
  const double magnitude = norm(net);
  const double bound = opts_.net_force_rel * scale + opts_.abs_floor;
  if (magnitude <= bound) return true;
  return fail(step, "net-force", magnitude, bound,
              describe("|sum F| = %.3e, sum |F| = %.3e", magnitude, scale));
}

bool InvariantChecker::check_momentum(std::span<const Vec3> velocities,
                                      std::span<const double> masses, int step) {
  ++checks_run_;
  Vec3 net;
  double scale = 0.0;
  for (std::size_t i = 0; i < velocities.size(); ++i) {
    const Vec3 p = velocities[i] * masses[i];
    net += p;
    scale += std::fabs(p.x) + std::fabs(p.y) + std::fabs(p.z);
  }
  const double magnitude = norm(net);
  const double bound = opts_.momentum_rel * scale + opts_.abs_floor;
  if (magnitude <= bound) return true;
  return fail(step, "net-momentum", magnitude, bound,
              describe("|sum p| = %.3e, sum |p| = %.3e", magnitude, scale));
}

bool InvariantChecker::check_energy(double total_energy, int step) {
  ++checks_run_;
  if (!have_reference_energy_) {
    reference_energy_ = total_energy;
    have_reference_energy_ = true;
    return true;
  }
  const double magnitude = std::fabs(total_energy - reference_energy_);
  const double bound =
      opts_.energy_drift_rel * std::max(1.0, std::fabs(reference_energy_));
  if (magnitude <= bound) return true;
  return fail(step, "energy-drift", magnitude, bound,
              describe("E = %.10e, E0 = %.10e", total_energy, reference_energy_));
}

bool InvariantChecker::check_exclusions(const Molecule& mol,
                                        const ExclusionTable& excl,
                                        const NonbondedOptions& nb,
                                        const WorkCounters& work, int step) {
  ++checks_run_;
  // Independent O(N^2) reference: the count of pairs any correct kernel must
  // evaluate — inside the cutoff and not fully excluded (1-4 pairs are
  // evaluated, scaled). A kernel that let an excluded pair contribute, or
  // dropped an interacting one, disagrees with this count.
  const auto& pos = mol.positions();
  const double cutoff2 = nb.cutoff * nb.cutoff;
  std::uint64_t expected = 0;
  const int n = mol.atom_count();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (norm2(pos[static_cast<std::size_t>(i)] -
                pos[static_cast<std::size_t>(j)]) >= cutoff2) {
        continue;
      }
      if (excl.check(i, j) == ExclusionKind::kFull) continue;
      ++expected;
    }
  }
  if (work.pairs_computed == expected) return true;
  const double diff = std::fabs(static_cast<double>(work.pairs_computed) -
                                static_cast<double>(expected));
  return fail(step, "exclusion-completeness", diff, 0.0,
              describe("pairs computed = %.0f, brute-force reference = %.0f",
                       static_cast<double>(work.pairs_computed),
                       static_cast<double>(expected)));
}

bool InvariantChecker::check_constraints(const BondConstraints& constraints,
                                         std::span<const Vec3> positions,
                                         int step) {
  ++checks_run_;
  const double magnitude = constraints.max_violation(positions);
  if (magnitude <= opts_.constraint_tol) return true;
  return fail(step, "constraint-tolerance", magnitude, opts_.constraint_tol,
              describe("max |r2 - d2| / d2 = %.3e over %.0f constraints",
                       magnitude,
                       static_cast<double>(constraints.constraint_count())));
}

void InvariantChecker::observe_cycle(const ParallelSim& sim) {
  const int step = sim.total_steps();
  if (opts_.every > 1 && step % opts_.every != 0) return;

  // Message conservation, in two parts. First the accounting identity: every
  // message the machine was offered is either executed, still pending, or was
  // removed *by the fault engine* (dropped / discarded at a dead PE). A
  // message the runtime loses without the fault engine's involvement breaks
  // the balance.
  ++checks_run_;
  const MessageAccounting& acct = sim.backend().accounting();
  if (!acct.conserved()) {
    fail(step, "message-conservation",
         static_cast<double>(acct.offered + acct.duplicated),
         static_cast<double>(acct.dropped_fault + acct.discarded_dead_pe +
                             acct.executed + acct.pending()),
         describe("offered+dup = %.0f, accounted = %.0f",
                  static_cast<double>(acct.offered + acct.duplicated),
                  static_cast<double>(acct.dropped_fault +
                                      acct.discarded_dead_pe + acct.executed +
                                      acct.pending())));
  }

  // Second, quiescence: a finished cycle must leave nothing in flight. With
  // the identity above, anything still queued here is a genuine leak, not a
  // fault-engine drop (those are already accounted).
  ++checks_run_;
  if (!sim.backend().idle() || acct.pending() != 0) {
    fail(step, "message-conservation", static_cast<double>(acct.pending()), 0.0,
         "messages still queued at run_cycle quiesce");
  }

  // Recovery completeness: every patch must have finished the cycle's last
  // step. False means faults ate work the runtime did not win back (no
  // checkpoint, retry budget exhausted, or the restart cap was hit); the
  // remaining checks would read mid-step state, so stop here.
  ++checks_run_;
  if (!sim.last_cycle_complete()) {
    fail(step, "cycle-completion", 1.0, 0.0,
         "cycle stalled by unrecovered faults (work lost, no restart)");
    return;
  }

  // Abandonment accountability: the reliable layer may give up on a send,
  // but every give-up must be explained. A send abandoned because its
  // destination died, or one whose payload executed (only the acks were
  // lost), needs no repair. A send lost at a *live* PE removed real work,
  // so the run is only sound if a checkpoint restart replayed it — reaching
  // this point (cycle complete) with such losses and zero restarts means
  // the runtime silently dropped work and still claimed success.
  if (const ReliableComm* rel = sim.reliable()) {
    ++checks_run_;
    const ReliableStats& rs = rel->stats();
    if (rs.abandoned_lost > 0 && sim.restarts() == 0) {
      fail(step, "abandonment-accountability",
           static_cast<double>(rs.abandoned_lost), 0.0,
           describe("%.0f send(s) abandoned at live PEs with %.0f restarts",
                    static_cast<double>(rs.abandoned_lost),
                    static_cast<double>(sim.restarts())));
    }
  }

  // Reduction completeness: one reduction round per completed global step
  // (each cycle contributes steps + 1 rounds, one per step record from its
  // step 0 through its closing half-kick), which is exactly the
  // step-completion history length.
  ++checks_run_;
  const double rounds = static_cast<double>(sim.reduction_results().size());
  const double want = static_cast<double>(sim.step_completion().size());
  if (rounds != want) {
    fail(step, "reduction-completeness", rounds, want,
         describe("reduction rounds = %.0f, step records = %.0f", rounds, want));
  }

  if (!sim.options().numeric) return;

  // Physics of the gathered global state.
  const std::vector<Vec3> forces = sim.gather_forces();
  const std::vector<Vec3> velocities = sim.gather_velocities();
  std::vector<double> masses;
  masses.reserve(static_cast<std::size_t>(sim.molecule().atom_count()));
  for (const Atom& a : sim.molecule().atoms()) masses.push_back(a.mass);
  if (opts_.check_net_force) check_net_force(forces, step);
  if (opts_.check_momentum) check_momentum(velocities, masses, step);

  // Reduction correctness: the final round's tree-reduced kinetic energy
  // must equal the kinetic energy of the gathered state (summed in a
  // different order).
  if (!sim.reduction_results().empty()) {
    ++checks_run_;
    const double reduced = sim.reduction_results().back();
    const double direct = kinetic_energy(velocities, masses);
    const double magnitude = std::fabs(reduced - direct);
    const double bound =
        opts_.reduction_rel * std::max(1.0, std::fabs(direct)) + opts_.abs_floor;
    if (magnitude > bound) {
      fail(step, "reduction-kinetic", magnitude, bound,
           describe("reduced = %.10e, gathered = %.10e", reduced, direct));
    }
  }
}

}  // namespace scalemd
