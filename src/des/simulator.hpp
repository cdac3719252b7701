#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "des/fault.hpp"
#include "des/machine.hpp"
#include "des/trace_sink.hpp"
#include "rts/exec_backend.hpp"
#include "util/random.hpp"

namespace scalemd {

class DesContext;

/// Discrete-event simulator of a message-passing machine running a
/// data-driven (Charm++-style) scheduler on every virtual processor:
/// each PE repeatedly picks the best-priority *arrived* message and runs its
/// task to completion; task costs and message delivery times follow the
/// MachineModel. Deterministic: identical inputs give identical schedules.
/// This is the ExecBackend used when ParallelSim models the machine instead
/// of running on it (BackendKind::kSimulated).
///
/// A FaultPlan (set_fault_plan) arms the built-in fault engine: remote
/// messages may be dropped, duplicated or delayed (seeded, per-message
/// deterministic), PEs may slow down by a factor or fail outright at a
/// scheduled virtual time. With the default (empty) plan every fault path
/// is skipped and the schedule is identical to a fault-free build.
class Simulator final : public ExecBackend {
 public:
  /// Throws std::invalid_argument when `num_pes` < 1.
  Simulator(int num_pes, const MachineModel& machine);

  int num_pes() const override { return static_cast<int>(pes_.size()); }
  const MachineModel& machine() const override { return machine_; }
  EntryRegistry& entries() override { return entries_; }
  const EntryRegistry& entries() const override { return entries_; }

  /// Attaches an instrumentation sink (may be null to disable).
  void set_sink(TraceSink* sink) override { sink_ = sink; }

  /// Injects a message arriving at `pe` at absolute virtual time `time`
  /// (no send-side cost is charged; use for bootstrap messages). Throws
  /// std::out_of_range for a PE off the machine.
  void inject(int pe, TaskMsg msg, double time = 0.0) override;

  /// Processes events until none remain.
  void run() override { run(std::numeric_limits<double>::infinity()); }
  /// Processes events until none remain or virtual time exceeds `until`.
  void run(double until);

  /// True if no undelivered or unprocessed messages remain.
  bool idle() const override;

  /// Virtual time of the latest task completion so far.
  double time() const override { return horizon_; }

  /// Total busy (executing) virtual seconds of `pe` so far.
  double pe_busy(int pe) const { return pes_[static_cast<std::size_t>(pe)].busy_sum; }

  /// Per-PE busy times (for utilization and imbalance metrics).
  std::vector<double> busy_times() const override;

  /// Number of tasks executed so far (all PEs).
  std::uint64_t tasks_executed() const override { return tasks_executed_; }
  /// Number of remote messages delivered so far.
  std::uint64_t remote_messages() const { return remote_messages_; }
  /// Total bytes carried by remote messages so far.
  std::uint64_t remote_bytes() const { return remote_bytes_; }

  /// Times are modeled virtual seconds, not measured.
  bool wall_clock() const override { return false; }
  BackendKind kind() const override { return BackendKind::kSimulated; }

  // --- fault engine ---------------------------------------------------
  /// Arms the fault engine (replaces any previous plan). Call before run();
  /// installing a non-empty plan mid-run applies from the next event on.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// True once `pe` has reached its scheduled failure time (it executes
  /// nothing and receives nothing from then on).
  bool pe_failed(int pe) const {
    return pes_[static_cast<std::size_t>(pe)].failed;
  }
  /// PEs that have failed so far, ascending.
  std::vector<int> failed_pes() const;

  /// Message accounting so far (see MessageAccounting).
  const MessageAccounting& accounting() const override { return acct_; }

  /// Emits a fault/recovery record to the attached sink (used by the
  /// recovery layers — reliable delivery, checkpointing, evacuation — so
  /// every recovery action lands in the same trace as the faults).
  void record_fault(const FaultRecord& r) {
    if (sink_ != nullptr) sink_->on_fault(r);
  }

 private:
  friend class DesContext;

  // A delivered message waits in a pool slot from deliver() to execute();
  // the heaps order small trivially-copyable keys that name the slot, so no
  // sift ever moves a message.
  struct Parked {
    TaskMsg msg;
    int src_pe = -1;
    bool remote = false;
    double sent_at = 0.0;
  };
  struct ReadyKey {
    int priority;
    std::uint32_t slot;
    std::uint64_t seq;
  };
  struct ReadyOrder {
    bool operator()(const ReadyKey& a, const ReadyKey& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;  // min-heap
      return a.seq > b.seq;                                          // FIFO ties
    }
  };
  struct Processor {
    double busy_until = 0.0;
    double busy_sum = 0.0;
    bool dispatch_pending = false;
    bool failed = false;        ///< scheduled failure has taken effect
    double slowdown = 1.0;      ///< active task-time multiplier (fault engine)
    double out_nic_free = 0.0;  ///< when this PE's outgoing link frees up
    double in_nic_free = 0.0;   ///< when this PE's incoming link frees up
    std::priority_queue<ReadyKey, std::vector<ReadyKey>, ReadyOrder> ready;
  };
  enum class EventKind : std::uint8_t { kArrival = 0, kDispatch = 1 };
  /// A dispatch event carries no message (its slot and priority are unused).
  struct Event {
    double time;
    std::uint64_t seq;
    int pe;
    int priority;
    std::uint32_t slot;
    EventKind kind;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;  // arrivals before dispatch
      return a.seq > b.seq;
    }
  };

  /// Moves `p` into a free slot of the pool.
  std::uint32_t park(Parked p);
  /// Returns `slot` to the free list, dropping any message still in it.
  void release(std::uint32_t slot);
  void schedule_dispatch(int pe, double time);
  void deliver(int src_pe, int dst_pe, TaskMsg msg, double send_time,
               double arrive_time, bool remote);
  void execute(int pe, std::uint32_t slot, double start);
  /// Applies every scheduled PE fault whose time has come (<= now).
  void apply_pe_faults(double now);

  MachineModel machine_;
  EntryRegistry entries_;
  TraceSink* sink_ = nullptr;
  std::vector<Processor> pes_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  std::vector<Parked> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t seq_ = 0;
  double horizon_ = 0.0;
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t remote_messages_ = 0;
  std::uint64_t remote_bytes_ = 0;

  // Fault engine state. `pe_faults_` holds the not-yet-applied scheduled
  // faults sorted by time; `fault_rng_` drives the per-message decisions.
  struct ScheduledPeFault {
    double time;
    int pe;
    bool failure;    ///< true = failure, false = slowdown
    double factor;   ///< slowdown factor (unused for failures)
  };
  FaultPlan plan_;
  std::vector<ScheduledPeFault> pe_faults_;
  std::size_t next_pe_fault_ = 0;
  Rng fault_rng_{0};
  FaultStats fault_stats_;
  MessageAccounting acct_;
};

/// The DES machine under its seam name (see rts/exec_backend.hpp).
using SimulatedBackend = Simulator;

}  // namespace scalemd
