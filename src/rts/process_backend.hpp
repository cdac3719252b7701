#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "des/machine.hpp"
#include "des/trace_sink.hpp"
#include "rts/exec_backend.hpp"
#include "rts/wire.hpp"

namespace scalemd {

/// Tuning and chaos knobs for the process backend.
struct ProcessOptions {
  /// Worker processes to fork per run (clamped to [1, num_pes]).
  int workers = 2;
  /// Heartbeat ping interval in milliseconds. <= 0 reads
  /// SCALEMD_PROCESS_HEARTBEAT_MS from the environment (default 500).
  int heartbeat_ms = 0;
  /// Consecutive missed heartbeats before a worker is suspected / declared
  /// dead. A dead worker is SIGKILLed and its PEs marked failed.
  int suspect_after = 4;
  int dead_after = 20;
  /// Chaos injection: SIGKILL worker `kill_worker` once `kill_after_frames`
  /// cross-worker frames have been routed (0 = immediately after fork).
  /// One-shot — the trigger clears after firing, so the recovery replay of
  /// the same cycle runs clean. -1 disables.
  int kill_worker = -1;
  std::uint64_t kill_after_frames = 0;
};

/// Heartbeat failure detector (alive -> suspect -> dead by consecutive
/// missed pings), kept as a pure state machine so it unit-tests without a
/// process tree. The supervisor drives it: on_tick(w) when a ping interval
/// expires with no reply, on_pong(w) when one arrives.
class HeartbeatDetector {
 public:
  enum class State { kAlive, kSuspect, kDead };

  HeartbeatDetector(int peers, int suspect_after, int dead_after);

  /// A reply arrived: a suspect peer recovers to alive. Dead is terminal —
  /// a pong from a peer already declared dead is ignored (the supervisor
  /// has already killed it).
  void on_pong(int peer);
  /// A ping interval elapsed without a reply; returns the new state.
  State on_tick(int peer);
  State state(int peer) const { return peers_[static_cast<std::size_t>(peer)].state; }
  int misses(int peer) const { return peers_[static_cast<std::size_t>(peer)].misses; }

 private:
  struct Peer {
    int misses = 0;
    State state = State::kAlive;
  };
  std::vector<Peer> peers_;
  int suspect_after_;
  int dead_after_;
};

/// Rebuilds a TaskFn from a message's WirePayload at the receiving worker.
using TaskDecoder = std::function<TaskFn(const WirePayload&)>;

/// Out-of-process ExecBackend: every run() forks `workers` OS processes,
/// each hosting the PEs with pe % workers == worker and draining them in
/// the same (priority, FIFO) mailbox order as the other backends. fork()
/// preserves the parent's address space, so tasks whose sender and receiver
/// share a worker run their closures unchanged; messages that cross workers
/// are serialized through the wire layer (versioned, checksummed frames
/// over Unix-domain socketpairs, star-routed through the parent) and
/// reconstructed by per-entry decoders. At quiescence each worker flushes
/// its mutated state back to the parent (kFlush/kState), which merges it in
/// worker order — so the parent's post-run state is deterministic and
/// bitwise equal to the single-address-space backends.
///
/// Failure is real: a worker killed mid-run (SIGKILL, crash, or a hang
/// caught by the heartbeat detector) fails the epoch. The parent reaps
/// everything, marks the dead worker's PEs permanently failed
/// (failed_pes()), discards the epoch's messages in the accounting, and
/// returns with the run incomplete — the caller's checkpoint/restore/
/// evacuate machinery (ParallelSim::run_cycle) does the rest.
class ProcessBackend final : public ExecBackend {
 public:
  /// Throws std::invalid_argument when `num_pes` < 1.
  ProcessBackend(int num_pes, const MachineModel& machine,
                 ProcessOptions opts = {});
  ~ProcessBackend() override;

  int num_pes() const override { return num_pes_; }
  const MachineModel& machine() const override { return machine_; }
  EntryRegistry& entries() override { return entries_; }
  const EntryRegistry& entries() const override { return entries_; }
  void set_sink(TraceSink* sink) override { sink_ = sink; }

  /// `time` is ignored: injected messages are ready at the next run().
  void inject(int pe, TaskMsg msg, double time = 0.0) override;

  /// Forks the workers, drains to distributed quiescence, merges worker
  /// state and reaps. On a worker death the epoch fails instead (see
  /// last_run_failed()); already-merged state from previous runs is
  /// untouched.
  void run() override;

  bool idle() const override { return pending_.empty(); }
  double time() const override { return horizon_; }
  std::vector<double> busy_times() const override { return busy_; }
  std::uint64_t tasks_executed() const override { return executed_; }
  const MessageAccounting& accounting() const override { return acct_; }
  bool wall_clock() const override { return true; }
  BackendKind kind() const override { return BackendKind::kProcess; }
  std::vector<int> failed_pes() const override {
    return {dead_pes_.begin(), dead_pes_.end()};
  }

  /// Registers the wire decoder for an entry. Any cross-worker send whose
  /// entry has no decoder (or whose message lacks a wire payload) is a
  /// programming error and aborts the worker.
  void register_decoder(EntryId entry, TaskDecoder dec);

  /// Application-state externalization: `flush` runs inside each worker at
  /// quiescence and returns the worker's mutated-state blob; `merge` runs
  /// in the parent once per worker, in worker-index order.
  void set_state_hooks(
      std::function<std::vector<std::uint8_t>(int worker, int workers)> flush,
      std::function<void(int worker, const std::vector<std::uint8_t>&)> merge);

  int workers() const { return workers_; }
  int owner_of(int pe) const { return pe % workers_; }
  bool pe_failed(int pe) const { return dead_pes_.count(pe) != 0; }
  /// True when the most recent run() was aborted by a worker failure.
  bool last_run_failed() const { return last_run_failed_; }
  /// Cross-worker task frames routed by the parent, across all runs.
  std::uint64_t frames_routed() const { return frames_routed_; }
  const ProcessOptions& options() const { return opts_; }

 private:
  class WorkerContext;
  struct Supervisor;
  struct WorkerState;

  void worker_main(int worker, int fd, double t0) /* _exit()s, never returns */;
  void fail_epoch(Supervisor& sup, int dead_worker, const char* why);
  void merge_worker_blob(int worker, const std::vector<std::uint8_t>& blob);
  double elapsed() const;

  int num_pes_;
  int workers_;
  MachineModel machine_;
  ProcessOptions opts_;
  EntryRegistry entries_;
  TraceSink* sink_ = nullptr;
  std::map<EntryId, TaskDecoder> decoders_;
  std::function<std::vector<std::uint8_t>(int, int)> flush_hook_;
  std::function<void(int, const std::vector<std::uint8_t>&)> merge_hook_;

  std::vector<std::pair<int, TaskMsg>> pending_;  ///< injected, pre-fork
  std::set<int> dead_pes_;
  bool last_run_failed_ = false;
  bool kill_fired_ = false;
  std::uint64_t frames_routed_ = 0;

  double horizon_ = 0.0;
  std::vector<double> busy_;
  std::uint64_t executed_ = 0;
  MessageAccounting acct_;
  std::int64_t epoch_start_ns_;
};

}  // namespace scalemd
