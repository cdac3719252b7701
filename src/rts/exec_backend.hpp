#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "des/machine.hpp"
#include "des/trace_sink.hpp"

namespace scalemd {

class ExecContext;

/// The body of an entry-method invocation. It runs to completion
/// (non-preemptive, Charm++-style) and reports its cost by calling
/// ExecContext::charge with the virtual seconds consumed (ignored by
/// backends that measure real time instead of modeling it).
using TaskFn = std::function<void(ExecContext&)>;

/// Wire form of an entry-method invocation: the encoded bytes of the
/// message's record (rts/wire.hpp). Closures (TaskFn) cannot cross an
/// address-space boundary, so backends that route messages between OS
/// processes (ProcessBackend) ship this instead and rebuild the closure at
/// the destination with a per-entry registered decoder. Doubles travel as
/// raw IEEE-754 bits: bitwise trajectory equality survives the wire.
using WirePayload = std::vector<std::uint8_t>;

/// A message carrying an entry-method invocation to a virtual processor.
struct TaskMsg {
  EntryId entry = 0;
  std::uint64_t object = 0;  ///< target object id, for load measurement
  int priority = 0;          ///< lower runs first among available messages
  std::size_t bytes = 0;     ///< payload size for the network model
  TaskFn fn;
  /// Wire form of the invocation, attached (non-empty) by senders only when
  /// the message crosses a process boundary. Single-address-space backends
  /// ignore it and run `fn` directly.
  WirePayload wire;
};

/// Names and audit categories of entry methods. The registry is what makes
/// summary profiles readable ("dozens of entry methods" vs thousands of
/// functions, as the paper argues).
class EntryRegistry {
 public:
  EntryId add(std::string name, WorkCategory category);
  const std::string& name(EntryId id) const { return names_[static_cast<std::size_t>(id)]; }
  WorkCategory category(EntryId id) const {
    return categories_[static_cast<std::size_t>(id)];
  }
  int count() const { return static_cast<int>(names_.size()); }

 private:
  std::vector<std::string> names_;
  std::vector<WorkCategory> categories_;
};

/// End-of-run message accounting: where every message handed to the machine
/// ended up. The conservation identity
///   offered + duplicated ==
///       dropped_fault + discarded_dead_pe + executed + pending()
/// holds at every instant; at a clean quiesce pending() is zero, and any
/// nonzero dropped/discarded terms are attributable to the fault engine.
/// This is what lets the invariant checker distinguish "dropped by fault"
/// from "still queued at termination".
struct MessageAccounting {
  std::uint64_t offered = 0;           ///< deliver attempts (sends + injects)
  std::uint64_t duplicated = 0;        ///< extra arrivals forged by duplication
  std::uint64_t dropped_fault = 0;     ///< vanished on the wire (fault engine)
  std::uint64_t discarded_dead_pe = 0; ///< addressed to / queued on a failed PE
  std::uint64_t executed = 0;          ///< ran to completion
  std::uint64_t pending_network = 0;   ///< arrival events not yet processed
  std::uint64_t pending_ready = 0;     ///< queued on a PE, not yet executed

  std::uint64_t pending() const { return pending_network + pending_ready; }
  bool conserved() const {
    return offered + duplicated == dropped_fault + discarded_dead_pe +
                                       executed + pending_network + pending_ready;
  }
};

/// Which ExecBackend implementation drives ParallelSim.
enum class BackendKind {
  kSimulated,  ///< discrete-event model of the machine (src/des/)
  kThreaded,   ///< real execution on shared-memory worker threads (src/rts/)
  kProcess,    ///< real execution on forked worker processes (src/rts/)
};

const char* backend_name(BackendKind k);
/// Parses "sim"/"simulated", "threads"/"threaded" and "process". Returns
/// false (and leaves `out` untouched) on anything else.
bool backend_from_name(const char* name, BackendKind& out);

/// Returns `num_pes`, or throws std::invalid_argument when it is below 1.
/// Every backend constructor sizes its machine through it.
int checked_num_pes(int num_pes);

/// Throws std::out_of_range unless 0 <= pe < num_pes. Every backend's
/// inject() checks its target PE with it.
void check_pe(int pe, int num_pes);

/// Handle given to a running task: lets it consume CPU time and send
/// messages. Valid only during the task's execution. Implementations: the
/// DES context (virtual clock, LogGP network model) and the threaded
/// context (real wall clock, in-memory mailboxes).
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// PE executing the task.
  int pe() const { return pe_; }
  /// Time at which the task started (virtual or wall-clock seconds,
  /// depending on the backend).
  double start() const { return start_; }
  /// Current time (start + charged so far).
  double now() const { return start_ + charged_; }
  /// Seconds charged so far by this task.
  double charged() const { return charged_; }

  virtual const MachineModel& machine() const = 0;

  /// True when charge() advances a modeled clock (the DES backend). The
  /// threaded backend measures wall-clock time instead, so callers must
  /// skip cost modeling — in particular anything drawing from a shared
  /// noise RNG, which would otherwise make runs depend on thread count.
  virtual bool models_cost() const { return true; }

  /// Consumes `seconds` of CPU time at the current point in the task.
  void charge(double seconds) { charged_ += seconds; }

  /// Adds to the pack-cost attribution (for the audit's overhead column);
  /// also charges the time.
  void charge_pack(double seconds) {
    charged_ += seconds;
    pack_cost_ += seconds;
  }

  double recv_cost() const { return recv_cost_; }
  double pack_cost() const { return pack_cost_; }
  double send_cost() const { return send_cost_; }

  /// Sends `msg` to `dest` at the current point in the task.
  virtual void send(int dest, TaskMsg msg) = 0;

  /// Schedules `msg` to run on this PE `delay` seconds from now without
  /// charging the task (a timer). Backends without a virtual clock deliver
  /// it as soon as possible instead.
  virtual void post(TaskMsg msg, double delay) = 0;

 protected:
  ExecContext(int pe, double start) : pe_(pe), start_(start) {}

  int pe_;
  double start_;
  double charged_ = 0.0;
  double recv_cost_ = 0.0;
  double pack_cost_ = 0.0;
  double send_cost_ = 0.0;
};

/// The execution seam of ParallelSim: a machine that accepts prioritized
/// messages addressed to virtual PEs and drains them to quiescence, either
/// by discrete-event simulation (Simulator — modeled virtual time) or by
/// actually running the tasks on worker threads (ThreadedBackend —
/// measured wall-clock time). Times reported through this interface are in
/// the backend's own clock; wall_clock() says which one that is.
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  virtual int num_pes() const = 0;
  virtual const MachineModel& machine() const = 0;
  virtual EntryRegistry& entries() = 0;
  virtual const EntryRegistry& entries() const = 0;

  /// Attaches an instrumentation sink (may be null to disable).
  virtual void set_sink(TraceSink* sink) = 0;

  /// Injects a message ready to run on `pe` (no send-side cost charged; use
  /// for bootstrap messages). `time` is the absolute virtual arrival time
  /// for simulated backends; real backends ignore it. Throws
  /// std::out_of_range for a PE off the machine.
  virtual void inject(int pe, TaskMsg msg, double time = 0.0) = 0;

  /// Processes messages until none remain (quiescence).
  virtual void run() = 0;

  /// True if no undelivered or unprocessed messages remain.
  virtual bool idle() const = 0;

  /// Time of the latest completion so far, in this backend's clock.
  virtual double time() const = 0;

  /// Per-PE busy (executing) seconds so far.
  virtual std::vector<double> busy_times() const = 0;

  /// Number of tasks executed so far (all PEs).
  virtual std::uint64_t tasks_executed() const = 0;

  /// Message accounting so far (see MessageAccounting).
  virtual const MessageAccounting& accounting() const = 0;

  /// True when this backend's times are measured wall-clock seconds rather
  /// than modeled virtual seconds (labels in traces and audits).
  virtual bool wall_clock() const = 0;

  virtual BackendKind kind() const = 0;

  /// PEs this backend considers permanently failed (ascending). The DES
  /// machine fails PEs per its fault plan; the process backend marks a
  /// crashed worker's PEs dead; the threaded backend has none.
  virtual std::vector<int> failed_pes() const { return {}; }
};

}  // namespace scalemd
