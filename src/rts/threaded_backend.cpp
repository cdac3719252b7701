#include "rts/threaded_backend.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace scalemd {

namespace {

int resolve_workers(int num_pes, int threads) {
  const int want = threads > 0 ? threads : ThreadPool::default_threads();
  return std::clamp(want, 1, checked_num_pes(num_pes));
}

int resolve_watchdog_ms() {
  if (const char* env = std::getenv("SCALEMD_THREADED_WATCHDOG_MS")) {
    return std::atoi(env);  // 0 or negative disables
  }
  return 120000;
}

}  // namespace

/// Wall-clock ExecContext: start() is the measured task start, charges are
/// advisory (models_cost() == false), sends enqueue into mailboxes with no
/// modeled network cost, and post() delivers as soon as possible.
class ThreadedBackend::Context final : public ExecContext {
 public:
  Context(ThreadedBackend* backend, int pe, double start)
      : ExecContext(pe, start), backend_(backend) {}

  const MachineModel& machine() const override { return backend_->machine_; }
  bool models_cost() const override { return false; }

  void send(int dest, TaskMsg msg) override {
    backend_->enqueue(pe_, dest, std::move(msg), now(), dest != pe_);
  }

  void post(TaskMsg msg, double /*delay*/) override {
    backend_->enqueue(pe_, pe_, std::move(msg), now(), /*remote=*/false);
  }

 private:
  ThreadedBackend* backend_;
};

ThreadedBackend::ThreadedBackend(int num_pes, const MachineModel& machine,
                                 int threads)
    : machine_(machine),
      pool_(resolve_workers(num_pes, threads)),
      watchdog_ms_(resolve_watchdog_ms()),
      epoch_(std::chrono::steady_clock::now()) {
  pes_.reserve(static_cast<std::size_t>(num_pes));
  for (int p = 0; p < num_pes; ++p) pes_.push_back(std::make_unique<Pe>());
  workers_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int w = 0; w < pool_.size(); ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

ThreadedBackend::~ThreadedBackend() = default;

void ThreadedBackend::enqueue(int src_pe, int dst_pe, TaskMsg msg,
                              double sent_at, bool remote) {
  assert(dst_pe >= 0 && dst_pe < num_pes());
  offered_.fetch_add(1, std::memory_order_relaxed);
  // Counted before the push and decremented only after the task body has
  // finished, so in_flight_ == 0 means quiescence: nothing queued, nothing
  // executing, and (since only tasks and the pre-run caller send) nothing
  // that could still produce work.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  Ready r;
  r.priority = msg.priority;
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  r.src_pe = src_pe;
  r.remote = remote;
  r.sent_at = sent_at;
  const EntryId entry = msg.entry;
  const std::size_t bytes = msg.bytes;
  r.msg = std::move(msg);

  Pe& pe = *pes_[static_cast<std::size_t>(dst_pe)];
  {
    std::lock_guard<std::mutex> lock(pe.mu);
    pe.box.push(std::move(r));
  }
  if (sink_ != nullptr) {
    const double at = elapsed();
    std::lock_guard<std::mutex> lock(sink_mu_);
    sink_->on_message({src_pe, dst_pe, entry, bytes, sent_at, at});
  }
  Worker& w = *workers_[static_cast<std::size_t>(dst_pe) %
                        static_cast<std::size_t>(workers())];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    ++w.gen;
  }
  w.cv.notify_one();
}

void ThreadedBackend::inject(int pe, TaskMsg msg, double /*time*/) {
  check_pe(pe, num_pes());
  enqueue(pe, pe, std::move(msg), elapsed(), /*remote=*/false);
}

void ThreadedBackend::run() {
  if (in_flight_.load(std::memory_order_acquire) == 0) return;
  pool_.run(static_cast<std::size_t>(workers()),
            [this](std::size_t t, int) { drain_worker(static_cast<int>(t)); });
  horizon_ = elapsed();
  assert(in_flight_.load(std::memory_order_acquire) == 0);
}

bool ThreadedBackend::drain_pe(int pe_id) {
  Pe& pe = *pes_[static_cast<std::size_t>(pe_id)];
  bool did = false;
  for (;;) {
    Ready r;
    {
      std::lock_guard<std::mutex> lock(pe.mu);
      if (pe.box.empty()) break;
      r = std::move(const_cast<Ready&>(pe.box.top()));
      pe.box.pop();
    }
    const double start = elapsed();
    Context ctx(this, pe_id, start);
    r.msg.fn(ctx);
    const double duration = elapsed() - start;
    pe.busy_sum += duration;
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (sink_ != nullptr) {
      // Wall-clock records: duration is measured; the modeled recv/pack/send
      // attributions have no measured counterpart and are reported as zero.
      std::lock_guard<std::mutex> lock(sink_mu_);
      sink_->on_task(
          {pe_id, r.msg.entry, r.msg.object, start, duration, 0.0, 0.0, 0.0});
    }
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_all();
    did = true;
  }
  return did;
}

void ThreadedBackend::drain_worker(int w) {
  Worker& me = *workers_[static_cast<std::size_t>(w)];
  const int n = num_pes();
  const int stride = workers();
  for (;;) {
    // Sample the generation *before* scanning: an enqueue that lands after
    // the scan bumps gen past `seen`, so the wait below returns immediately
    // instead of losing the wakeup.
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(me.mu);
      seen = me.gen;
    }
    bool did = false;
    for (int pe = w; pe < n; pe += stride) {
      did = drain_pe(pe) || did;
    }
    if (did) continue;  // executed tasks may have enqueued onto our PEs
    if (in_flight_.load(std::memory_order_acquire) == 0) return;
    std::unique_lock<std::mutex> lock(me.mu);
    const auto pred = [&] {
      return me.gen != seen ||
             in_flight_.load(std::memory_order_acquire) == 0;
    };
    if (watchdog_ms_ <= 0) {
      me.cv.wait(lock, pred);
    } else {
      // Watchdog wait: slice the blocking wait so a worker stuck with
      // in-flight work but no global progress turns into a diagnostic
      // abort instead of a silent hang. Progress anywhere (another
      // worker executing tasks) resets the stall clock.
      auto stalled_since = std::chrono::steady_clock::now();
      std::uint64_t last_executed = executed_.load(std::memory_order_acquire);
      const auto slice =
          std::chrono::milliseconds(std::min(watchdog_ms_, 1000));
      while (!me.cv.wait_for(lock, slice, pred)) {
        const std::uint64_t ex = executed_.load(std::memory_order_acquire);
        const auto now = std::chrono::steady_clock::now();
        if (ex != last_executed) {
          last_executed = ex;
          stalled_since = now;
          continue;
        }
        if (now - stalled_since >= std::chrono::milliseconds(watchdog_ms_)) {
          lock.unlock();
          dump_stall_and_abort(w);
        }
      }
    }
    if (in_flight_.load(std::memory_order_acquire) == 0 && me.gen == seen) {
      return;
    }
  }
}

void ThreadedBackend::dump_stall_and_abort(int w) {
  std::fprintf(stderr,
               "[scalemd] threaded backend watchdog: worker %d stalled %d ms "
               "with %lld task(s) in flight and no progress\n",
               w, watchdog_ms_,
               static_cast<long long>(in_flight_.load(std::memory_order_acquire)));
  for (std::size_t p = 0; p < pes_.size(); ++p) {
    Pe& pe = *pes_[p];
    // try_lock: the stalled (or crashed) owner may hold the mutex; "busy"
    // is itself a diagnostic.
    if (pe.mu.try_lock()) {
      const std::size_t depth = pe.box.size();
      pe.mu.unlock();
      if (depth > 0) {
        std::fprintf(stderr, "[scalemd]   pe %zu: %zu queued\n", p, depth);
      }
    } else {
      std::fprintf(stderr, "[scalemd]   pe %zu: mailbox busy (mutex held)\n", p);
    }
  }
  std::abort();
}

void ThreadedBackend::wake_all() {
  // Called when in_flight_ hits zero: bump every worker's generation so
  // waiting predicates trip, then notify. Each worker re-scans, finds
  // nothing, sees in_flight_ == 0 and exits.
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      ++w->gen;
    }
    w->cv.notify_all();
  }
}

bool ThreadedBackend::idle() const {
  return in_flight_.load(std::memory_order_acquire) == 0;
}

std::vector<double> ThreadedBackend::busy_times() const {
  std::vector<double> out;
  out.reserve(pes_.size());
  for (const auto& pe : pes_) out.push_back(pe->busy_sum);
  return out;
}

std::uint64_t ThreadedBackend::tasks_executed() const {
  return executed_.load(std::memory_order_acquire);
}

const MessageAccounting& ThreadedBackend::accounting() const {
  acct_.offered = offered_.load(std::memory_order_acquire);
  acct_.executed = executed_.load(std::memory_order_acquire);
  const std::int64_t pending = in_flight_.load(std::memory_order_acquire);
  acct_.pending_ready =
      pending > 0 ? static_cast<std::uint64_t>(pending) : 0;
  acct_.pending_network = 0;
  return acct_;
}

}  // namespace scalemd
