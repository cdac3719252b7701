#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "des/machine.hpp"
#include "des/trace_sink.hpp"
#include "rts/exec_backend.hpp"
#include "util/thread_pool.hpp"

namespace scalemd {

/// Real shared-memory ExecBackend: virtual PEs are mapped onto ThreadPool
/// workers (worker = pe % workers), each draining a prioritized per-PE
/// mailbox — one mutex-protected queue per PE, no global lock — in the same
/// (priority, FIFO-by-seq) order as the DES scheduler. run() executes tasks
/// for real, timing them with the wall clock: TaskRecords carry measured
/// seconds, so an attached LoadDatabase accumulates *measured* object loads
/// and the greedy/refine balancers place work by how long it actually took
/// on this machine — the paper's measurement-based LB closed over real
/// execution.
///
/// Every PE's tasks run on one fixed worker thread, serialized (the
/// Charm++ model), so per-PE runtime state needs no locking. Cross-PE data
/// handoffs synchronize through the mailbox mutexes: the send
/// happens-before the receive. Timers (post) fire as soon as possible:
/// virtual delays have no wall-clock meaning here, and the layers that rely
/// on timer semantics (reliable delivery, fault injection) are DES-only.
class ThreadedBackend final : public ExecBackend {
 public:
  /// `threads` == 0 picks ThreadPool::default_threads(). The worker count
  /// is clamped to [1, num_pes] — more workers than PEs would just idle.
  /// Throws std::invalid_argument when `num_pes` < 1.
  ThreadedBackend(int num_pes, const MachineModel& machine, int threads = 0);
  ~ThreadedBackend() override;

  int num_pes() const override { return static_cast<int>(pes_.size()); }
  const MachineModel& machine() const override { return machine_; }
  EntryRegistry& entries() override { return entries_; }
  const EntryRegistry& entries() const override { return entries_; }
  void set_sink(TraceSink* sink) override { sink_ = sink; }

  /// `time` is ignored: injected messages are ready immediately.
  void inject(int pe, TaskMsg msg, double time = 0.0) override;

  /// Drains every mailbox to quiescence on the worker threads; returns once
  /// no task is queued or running anywhere.
  void run() override;

  bool idle() const override;

  /// Wall-clock seconds since construction, as of the last quiesce.
  double time() const override { return horizon_; }

  /// Measured busy (executing) wall-clock seconds per PE.
  std::vector<double> busy_times() const override;

  std::uint64_t tasks_executed() const override;
  const MessageAccounting& accounting() const override;

  bool wall_clock() const override { return true; }
  BackendKind kind() const override { return BackendKind::kThreaded; }

  /// Actual worker-thread count after clamping.
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  class Context;

  struct Ready {
    int priority = 0;
    std::uint64_t seq = 0;
    TaskMsg msg;
    int src_pe = 0;
    bool remote = false;
    double sent_at = 0.0;
  };
  struct ReadyOrder {
    bool operator()(const Ready& a, const Ready& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;  // min-heap
      return a.seq > b.seq;                                          // FIFO ties
    }
  };
  /// One PE: its mailbox plus state owned by the PE's fixed worker thread.
  struct Pe {
    std::mutex mu;
    std::priority_queue<Ready, std::vector<Ready>, ReadyOrder> box;
    double busy_sum = 0.0;  ///< written only by the owning worker
  };
  /// One worker thread's wakeup channel: `gen` is bumped (under `mu`) on
  /// every enqueue to one of the worker's PEs and at global quiescence.
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t gen = 0;
  };

  void enqueue(int src_pe, int dst_pe, TaskMsg msg, double sent_at, bool remote);
  void drain_worker(int w);
  /// Quiescence watchdog: a worker that has waited `watchdog_ms_` with
  /// in-flight work but no global progress dumps per-PE mailbox depths and
  /// aborts — a lost-wakeup or deadlock bug becomes a diagnostic instead of
  /// a hung test run. Tuned by SCALEMD_THREADED_WATCHDOG_MS (0 disables).
  [[noreturn]] void dump_stall_and_abort(int w);
  /// Pops and executes until `pe`'s mailbox is empty; true if any task ran.
  bool drain_pe(int pe);
  void wake_all();
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  MachineModel machine_;
  EntryRegistry entries_;
  TraceSink* sink_ = nullptr;
  std::mutex sink_mu_;  ///< serializes sink callbacks (sinks aren't thread-safe)
  std::vector<std::unique_ptr<Pe>> pes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ThreadPool pool_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> in_flight_{0};  ///< queued + currently executing
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> executed_{0};
  int watchdog_ms_ = 120000;
  double horizon_ = 0.0;
  mutable MessageAccounting acct_;  ///< materialized from the atomics on read
};

}  // namespace scalemd
