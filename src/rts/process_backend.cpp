#include "rts/process_backend.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace scalemd {

namespace {

int resolve_heartbeat_ms(int configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("SCALEMD_PROCESS_HEARTBEAT_MS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 500;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// HeartbeatDetector
// ---------------------------------------------------------------------------

HeartbeatDetector::HeartbeatDetector(int peers, int suspect_after, int dead_after)
    : peers_(static_cast<std::size_t>(peers)),
      suspect_after_(std::max(1, suspect_after)),
      dead_after_(std::max(suspect_after, dead_after)) {}

void HeartbeatDetector::on_pong(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.state == State::kDead) return;  // terminal: already being killed
  p.misses = 0;
  p.state = State::kAlive;
}

HeartbeatDetector::State HeartbeatDetector::on_tick(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.state == State::kDead) return p.state;
  ++p.misses;
  if (p.misses >= dead_after_) {
    p.state = State::kDead;
  } else if (p.misses >= suspect_after_) {
    p.state = State::kSuspect;
  }
  return p.state;
}

// ---------------------------------------------------------------------------
// Wire forms
// ---------------------------------------------------------------------------

namespace {

/// Serialized TaskMsg routed between workers (kTask frames). dest_pe is
/// the first field, so the parent routes a frame by reading only that.
struct TaskFrame {
  int dest_pe = 0;
  int src_pe = 0;
  EntryId entry = 0;
  std::uint64_t object = 0;
  int priority = 0;
  std::size_t bytes = 0;
  double sent_at = 0.0;
  WirePayload payload;

  template <class Ar>
  void fields(Ar& ar) {
    ar(dest_pe, src_pe, entry, object, priority, bytes, sent_at, payload);
  }
};

/// A worker's end-of-run report (kState frames): its message counts, busy
/// seconds per owned PE, instrumentation records and the application's
/// state blob (the flush hook's output).
struct WorkerReport {
  std::uint64_t offered = 0;
  std::uint64_t executed = 0;
  std::vector<std::pair<int, double>> busy;
  std::vector<TaskRecord> tasks;
  std::vector<MsgRecord> msgs;
  std::vector<std::uint8_t> app;

  template <class Ar>
  void fields(Ar& ar) {
    ar(offered, executed, busy, tasks, msgs, app);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Worker-side runtime
// ---------------------------------------------------------------------------

/// Everything one forked worker needs: per-owned-PE mailboxes draining in
/// (priority, FIFO) order, buffered instrumentation records, and the frame
/// plumbing to the parent.
struct ProcessBackend::WorkerState {
  ProcessBackend* backend = nullptr;
  int worker = 0;
  int fd = -1;
  double t0 = 0.0;       ///< parent clock at run start
  double forked_at = 0.0;

  struct Ready {
    int priority = 0;
    std::uint64_t seq = 0;
    TaskMsg msg;
  };
  struct ReadyOrder {
    bool operator()(const Ready& a, const Ready& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  std::vector<std::priority_queue<Ready, std::vector<Ready>, ReadyOrder>> boxes;
  std::uint64_t seq = 0;
  std::int64_t queued = 0;

  std::uint64_t offered = 0;   ///< sends + posts originated by this worker
  std::uint64_t executed = 0;
  std::uint64_t received = 0;  ///< task frames delivered by the parent
  std::vector<double> busy;
  std::vector<TaskRecord> task_records;
  std::vector<MsgRecord> msg_records;
  wire::FrameReader reader;

  double now() const { return t0 + (steady_seconds() - forked_at); }

  void enqueue(int src_pe, int dst_pe, TaskMsg msg, double sent_at) {
    msg_records.push_back(
        {src_pe, dst_pe, msg.entry, msg.bytes, sent_at, now()});
    Ready r;
    r.priority = msg.priority;
    r.seq = seq++;
    r.msg = std::move(msg);
    boxes[static_cast<std::size_t>(dst_pe)].push(std::move(r));
    ++queued;
  }

  void send_from(int src_pe, int dst_pe, TaskMsg msg, double sent_at) {
    ++offered;
    if (backend->owner_of(dst_pe) == worker) {
      enqueue(src_pe, dst_pe, std::move(msg), sent_at);
      return;
    }
    if (msg.wire.empty() ||
        backend->decoders_.find(msg.entry) == backend->decoders_.end()) {
      std::fprintf(stderr,
                   "[scalemd] process worker %d: entry '%s' crosses a worker "
                   "boundary without a wire form/decoder\n",
                   worker, backend->entries_.name(msg.entry).c_str());
      _exit(3);
    }
    const TaskFrame t{dst_pe,       src_pe,    msg.entry, msg.object,
                      msg.priority, msg.bytes, sent_at,   std::move(msg.wire)};
    if (!wire::write_frame(fd, wire::FrameType::kTask, wire::encode(t))) {
      _exit(1);  // parent gone
    }
  }
};

/// Wall-clock worker context: charges are advisory, sends route locally or
/// over the wire, post() delivers as soon as possible on the same PE.
class ProcessBackend::WorkerContext final : public ExecContext {
 public:
  WorkerContext(WorkerState* ws, int pe, double start)
      : ExecContext(pe, start), ws_(ws) {}

  const MachineModel& machine() const override { return ws_->backend->machine_; }
  bool models_cost() const override { return false; }

  void send(int dest, TaskMsg msg) override {
    ws_->send_from(pe_, dest, std::move(msg), now());
  }

  void post(TaskMsg msg, double /*delay*/) override {
    ++ws_->offered;
    ws_->enqueue(pe_, pe_, std::move(msg), now());
  }

 private:
  WorkerState* ws_;
};

void ProcessBackend::worker_main(int worker, int fd, double t0) {
  WorkerState ws;
  ws.backend = this;
  ws.worker = worker;
  ws.fd = fd;
  ws.t0 = t0;
  ws.forked_at = steady_seconds();
  ws.boxes.resize(static_cast<std::size_t>(num_pes_));
  ws.busy.assign(static_cast<std::size_t>(num_pes_), 0.0);

  // Seed this worker's share of the injected bootstrap messages. The fork
  // copied pending_, so the closures (and everything they capture) are
  // valid here.
  for (auto& [pe, msg] : pending_) {
    if (owner_of(pe) != worker) continue;
    WorkerState::Ready r;
    r.priority = msg.priority;
    r.seq = ws.seq++;
    r.msg = std::move(msg);
    ws.boxes[static_cast<std::size_t>(pe)].push(std::move(r));
    ++ws.queued;
  }
  pending_.clear();

  auto handle_frame = [&](wire::FrameType type,
                          const std::vector<std::uint8_t>& payload) {
    switch (type) {
      case wire::FrameType::kTask: {
        TaskFrame t;
        if (!wire::decode(payload, t)) {
          std::fprintf(stderr, "[scalemd] process worker %d: %s task frame\n",
                       worker, wire::wire_error_name(wire::WireError::kMalformed));
          _exit(2);
        }
        ++ws.received;
        const auto it = decoders_.find(t.entry);
        if (it == decoders_.end()) _exit(2);
        TaskMsg msg;
        msg.entry = t.entry;
        msg.object = t.object;
        msg.priority = t.priority;
        msg.bytes = t.bytes;
        msg.fn = it->second(t.payload);
        ws.enqueue(t.src_pe, t.dest_pe, std::move(msg), t.sent_at);
        break;
      }
      case wire::FrameType::kPing:
        if (!wire::write_frame(fd, wire::FrameType::kPong, {})) _exit(1);
        break;
      case wire::FrameType::kFlush: {
        WorkerReport rep;
        rep.offered = ws.offered;
        rep.executed = ws.executed;
        for (int pe = worker; pe < num_pes_; pe += workers_) {
          rep.busy.emplace_back(pe, ws.busy[static_cast<std::size_t>(pe)]);
        }
        rep.tasks = std::move(ws.task_records);
        rep.msgs = std::move(ws.msg_records);
        if (flush_hook_) rep.app = flush_hook_(worker, workers_);
        if (!wire::write_frame(fd, wire::FrameType::kState, wire::encode(rep))) _exit(1);
        break;
      }
      case wire::FrameType::kExit:
        _exit(0);
      default:
        _exit(2);
    }
  };

  // Pulls whatever bytes are available (optionally blocking for the first)
  // and dispatches complete frames. _exit(1) on a vanished parent.
  auto pump = [&](bool wait) {
    if (wait) {
      for (;;) {
        struct pollfd p{fd, POLLIN, 0};
        const int r = poll(&p, 1, -1);
        if (r > 0) break;
        if (r < 0 && errno != EINTR) _exit(1);
      }
    }
    for (;;) {
      std::uint8_t buf[65536];
      const ssize_t r = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (r > 0) {
        ws.reader.feed(buf, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof buf) break;
        continue;
      }
      if (r == 0) _exit(1);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      _exit(1);
    }
    for (;;) {
      wire::FrameType type;
      std::vector<std::uint8_t> payload;
      const wire::WireError err = ws.reader.next(type, payload);
      if (err == wire::WireError::kTruncated) break;
      if (err != wire::WireError::kOk) {
        std::fprintf(stderr, "[scalemd] process worker %d: %s frame\n", worker,
                     wire::wire_error_name(err));
        _exit(2);
      }
      handle_frame(type, payload);
    }
  };

  std::uint64_t last_idle_report = ~0ull;
  for (;;) {
    // Drain every owned mailbox; tasks executed here can enqueue locally or
    // send across the wire. Pump between tasks so pings are answered even
    // during long drains.
    bool did = true;
    while (did) {
      did = false;
      for (int pe = worker; pe < num_pes_; pe += workers_) {
        auto& box = ws.boxes[static_cast<std::size_t>(pe)];
        while (!box.empty()) {
          WorkerState::Ready r =
              std::move(const_cast<WorkerState::Ready&>(box.top()));
          box.pop();
          --ws.queued;
          const double start = ws.now();
          WorkerContext ctx(&ws, pe, start);
          r.msg.fn(ctx);
          const double duration = ws.now() - start;
          ws.busy[static_cast<std::size_t>(pe)] += duration;
          ++ws.executed;
          ws.task_records.push_back(
              {pe, r.msg.entry, r.msg.object, start, duration, 0.0, 0.0, 0.0});
          did = true;
          pump(/*wait=*/false);
        }
      }
    }
    // Quiesced locally: tell the parent how many frames we have consumed,
    // then block for more work (or the flush/exit sequence).
    if (ws.received != last_idle_report || last_idle_report == ~0ull) {
      if (!wire::write_frame(fd, wire::FrameType::kIdle, wire::encode(ws.received))) {
        _exit(1);
      }
      last_idle_report = ws.received;
    }
    pump(/*wait=*/ws.queued == 0);
  }
}

// ---------------------------------------------------------------------------
// Parent-side supervisor
// ---------------------------------------------------------------------------

struct ProcessBackend::Supervisor {
  struct W {
    pid_t pid = -1;
    int fd = -1;
    wire::FrameReader reader;
    std::vector<std::uint8_t> outq;
    std::size_t outq_off = 0;
    std::uint64_t delivered = 0;  ///< task frames queued toward this worker
    std::uint64_t idle_received = 0;
    bool idle = false;
    bool pong_pending = false;
    bool state_received = false;
    std::vector<std::uint8_t> state;
  };
  std::vector<W> ws;
  bool flushing = false;

  void queue(int w, wire::FrameType type, const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> frame = wire::encode_frame(type, payload);
    ws[static_cast<std::size_t>(w)].outq.insert(
        ws[static_cast<std::size_t>(w)].outq.end(), frame.begin(), frame.end());
  }
};

ProcessBackend::ProcessBackend(int num_pes, const MachineModel& machine,
                               ProcessOptions opts)
    : num_pes_(checked_num_pes(num_pes)),
      workers_(std::clamp(opts.workers, 1, num_pes)),
      machine_(machine),
      opts_(opts),
      busy_(static_cast<std::size_t>(num_pes), 0.0) {
  opts_.workers = workers_;
  epoch_start_ns_ = std::chrono::steady_clock::now().time_since_epoch().count();
}

ProcessBackend::~ProcessBackend() = default;

double ProcessBackend::elapsed() const {
  return static_cast<double>(
             std::chrono::steady_clock::now().time_since_epoch().count() -
             epoch_start_ns_) *
         1e-9;
}

void ProcessBackend::register_decoder(EntryId entry, TaskDecoder dec) {
  decoders_[entry] = std::move(dec);
}

void ProcessBackend::set_state_hooks(
    std::function<std::vector<std::uint8_t>(int, int)> flush,
    std::function<void(int, const std::vector<std::uint8_t>&)> merge) {
  flush_hook_ = std::move(flush);
  merge_hook_ = std::move(merge);
}

void ProcessBackend::inject(int pe, TaskMsg msg, double /*time*/) {
  check_pe(pe, num_pes_);
  ++acct_.offered;
  if (dead_pes_.count(pe) != 0) {
    ++acct_.discarded_dead_pe;
    return;
  }
  pending_.emplace_back(pe, std::move(msg));
}

void ProcessBackend::merge_worker_blob(int worker,
                                       const std::vector<std::uint8_t>& blob) {
  WorkerReport rep;
  if (!wire::decode(blob, rep)) {
    std::fprintf(stderr, "[scalemd] process backend: malformed state blob from worker %d\n",
                 worker);
    std::abort();
  }
  for (const auto& [pe, busy] : rep.busy) {
    if (pe >= 0 && static_cast<std::size_t>(pe) < busy_.size()) {
      busy_[static_cast<std::size_t>(pe)] += busy;
    }
  }
  if (sink_ != nullptr) {
    for (const TaskRecord& r : rep.tasks) sink_->on_task(r);
    for (const MsgRecord& r : rep.msgs) sink_->on_message(r);
  }
  acct_.offered += rep.offered;
  acct_.executed += rep.executed;
  executed_ += rep.executed;
  if (merge_hook_) merge_hook_(worker, rep.app);
}

void ProcessBackend::fail_epoch(Supervisor& sup, int dead_worker, const char* why) {
  last_run_failed_ = true;
  std::fprintf(stderr, "[scalemd] process backend: worker %d failed (%s)\n",
               dead_worker, why);
  for (int pe = dead_worker; pe < num_pes_; pe += workers_) {
    if (dead_pes_.insert(pe).second && sink_ != nullptr) {
      sink_->on_fault({FaultKind::kPeFailure, pe, -1, elapsed(), 0.0});
    }
  }
  for (auto& w : sup.ws) {
    if (w.pid > 0) {
      kill(w.pid, SIGKILL);
      int status = 0;
      while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
    if (w.fd >= 0) {
      close(w.fd);
      w.fd = -1;
    }
  }
  // Nothing from this epoch merges; the epoch's injected messages are
  // discarded against the dead PE so the conservation identity holds.
  acct_.discarded_dead_pe += pending_.size();
  pending_.clear();
  horizon_ = elapsed();
}

void ProcessBackend::run() {
  last_run_failed_ = false;
  if (pending_.empty()) return;

  const double t0 = elapsed();
  Supervisor sup;
  sup.ws.resize(static_cast<std::size_t>(workers_));

  // Create every socketpair before the first fork, so each child can close
  // all ends it does not own.
  std::vector<std::array<int, 2>> pairs(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, pairs[static_cast<std::size_t>(w)].data()) != 0) {
      std::perror("[scalemd] socketpair");
      std::abort();
    }
  }
  for (int w = 0; w < workers_; ++w) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("[scalemd] fork");
      std::abort();
    }
    if (pid == 0) {
      for (int o = 0; o < workers_; ++o) {
        close(pairs[static_cast<std::size_t>(o)][0]);
        if (o != w) close(pairs[static_cast<std::size_t>(o)][1]);
      }
      worker_main(w, pairs[static_cast<std::size_t>(w)][1], t0);
      _exit(0);  // unreachable
    }
    sup.ws[static_cast<std::size_t>(w)].pid = pid;
  }
  for (int w = 0; w < workers_; ++w) {
    close(pairs[static_cast<std::size_t>(w)][1]);
    const int fd = pairs[static_cast<std::size_t>(w)][0];
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    sup.ws[static_cast<std::size_t>(w)].fd = fd;
  }

  auto chaos_check = [&]() {
    if (kill_fired_ || opts_.kill_worker < 0 || opts_.kill_worker >= workers_) {
      return;
    }
    if (frames_routed_ >= opts_.kill_after_frames) {
      kill_fired_ = true;
      kill(sup.ws[static_cast<std::size_t>(opts_.kill_worker)].pid, SIGKILL);
    }
  };
  chaos_check();  // kill_after_frames == 0: die right out of the gate

  const int hb_ms = resolve_heartbeat_ms(opts_.heartbeat_ms);
  HeartbeatDetector det(workers_, opts_.suspect_after, opts_.dead_after);
  double last_tick = steady_seconds();

  int failed_worker = -1;
  const char* fail_why = nullptr;

  auto route_task = [&](const std::vector<std::uint8_t>& payload) -> bool {
    wire::Reader r(payload);
    int dest = -1;
    r(dest);  // TaskFrame's first field
    if (!r.ok() || dest < 0 || dest >= num_pes_) return false;
    ++frames_routed_;
    chaos_check();
    if (dead_pes_.count(dest) != 0) {
      ++acct_.discarded_dead_pe;
      return true;
    }
    const int w = owner_of(dest);
    sup.queue(w, wire::FrameType::kTask, payload);
    ++sup.ws[static_cast<std::size_t>(w)].delivered;
    sup.ws[static_cast<std::size_t>(w)].idle = false;
    return true;
  };

  while (failed_worker < 0) {
    std::vector<struct pollfd> pfds(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      auto& ww = sup.ws[static_cast<std::size_t>(w)];
      pfds[static_cast<std::size_t>(w)] = {
          ww.fd, static_cast<short>(POLLIN | (ww.outq.size() > ww.outq_off ? POLLOUT : 0)),
          0};
    }
    const int r = poll(pfds.data(), pfds.size(), hb_ms);
    if (r < 0 && errno != EINTR) {
      failed_worker = 0;
      fail_why = "poll";
      break;
    }

    for (int w = 0; w < workers_ && failed_worker < 0; ++w) {
      auto& ww = sup.ws[static_cast<std::size_t>(w)];
      const short ev = pfds[static_cast<std::size_t>(w)].revents;
      if (ev & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          std::uint8_t buf[65536];
          const ssize_t n = recv(ww.fd, buf, sizeof buf, MSG_DONTWAIT);
          if (n > 0) {
            ww.reader.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf) break;
            continue;
          }
          if (n == 0) {
            failed_worker = w;
            fail_why = "connection closed";
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          failed_worker = w;
          fail_why = "read error";
          break;
        }
        while (failed_worker < 0) {
          wire::FrameType type;
          std::vector<std::uint8_t> payload;
          const wire::WireError err = ww.reader.next(type, payload);
          if (err == wire::WireError::kTruncated) break;
          if (err != wire::WireError::kOk) {
            failed_worker = w;
            fail_why = wire::wire_error_name(err);
            break;
          }
          switch (type) {
            case wire::FrameType::kTask:
              if (!route_task(payload)) {
                failed_worker = w;
                fail_why = "malformed task frame";
              }
              break;
            case wire::FrameType::kIdle: {
              std::uint64_t received = 0;
              if (!wire::decode(payload, received)) {
                failed_worker = w;
                fail_why = "malformed idle frame";
                break;
              }
              ww.idle = true;
              ww.idle_received = received;
              break;
            }
            case wire::FrameType::kPong:
              ww.pong_pending = false;
              det.on_pong(w);
              break;
            case wire::FrameType::kState:
              ww.state = std::move(payload);
              ww.state_received = true;
              break;
            default:
              failed_worker = w;
              fail_why = "unexpected frame type";
              break;
          }
        }
      }
      if (failed_worker >= 0) break;
      if ((ev & POLLOUT) || ww.outq.size() > ww.outq_off) {
        while (ww.outq_off < ww.outq.size()) {
          const ssize_t n = send(ww.fd, ww.outq.data() + ww.outq_off,
                                 ww.outq.size() - ww.outq_off, MSG_NOSIGNAL);
          if (n > 0) {
            ww.outq_off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          failed_worker = w;
          fail_why = "write error";
          break;
        }
        if (ww.outq_off == ww.outq.size()) {
          ww.outq.clear();
          ww.outq_off = 0;
        }
      }
    }
    if (failed_worker >= 0) break;

    // Heartbeat: one tick per interval. A worker that missed enough
    // consecutive pings is declared dead and killed — this is what catches
    // a hung (rather than crashed) worker.
    const double now = steady_seconds();
    if (now - last_tick >= static_cast<double>(hb_ms) / 1000.0) {
      last_tick = now;
      for (int w = 0; w < workers_ && failed_worker < 0; ++w) {
        auto& ww = sup.ws[static_cast<std::size_t>(w)];
        if (ww.pong_pending) {
          if (det.on_tick(w) == HeartbeatDetector::State::kDead) {
            kill(ww.pid, SIGKILL);
            failed_worker = w;
            fail_why = "heartbeat lost";
          }
        } else {
          ww.pong_pending = true;
          sup.queue(w, wire::FrameType::kPing, {});
        }
      }
      if (failed_worker >= 0) break;
    }

    if (!sup.flushing) {
      // Distributed quiescence: every worker has reported idle after
      // consuming everything we routed to it, and nothing is queued on our
      // side. Per-socket FIFO makes the counts sound: an idle report that
      // matches our delivery count proves the worker saw every frame we
      // ever sent before it went idle.
      bool quiescent = true;
      for (const auto& ww : sup.ws) {
        if (!ww.idle || ww.idle_received != ww.delivered ||
            ww.outq.size() > ww.outq_off) {
          quiescent = false;
          break;
        }
      }
      if (quiescent) {
        sup.flushing = true;
        for (int w = 0; w < workers_; ++w) {
          sup.queue(w, wire::FrameType::kFlush, {});
        }
      }
    } else {
      bool all = true;
      for (const auto& ww : sup.ws) all = all && ww.state_received;
      if (all) break;
    }
  }

  if (failed_worker >= 0) {
    fail_epoch(sup, failed_worker, fail_why != nullptr ? fail_why : "unknown");
    return;
  }

  // Clean shutdown: exit every worker, reap, then merge in worker order so
  // the parent's merged state is deterministic.
  for (int w = 0; w < workers_; ++w) {
    auto& ww = sup.ws[static_cast<std::size_t>(w)];
    std::vector<std::uint8_t> tail(ww.outq.begin() + static_cast<std::ptrdiff_t>(ww.outq_off),
                                   ww.outq.end());
    const std::vector<std::uint8_t> exit_frame =
        wire::encode_frame(wire::FrameType::kExit, {});
    tail.insert(tail.end(), exit_frame.begin(), exit_frame.end());
    if (!wire::write_all(ww.fd, tail)) {
      fail_epoch(sup, w, "write error at exit");
      return;
    }
    ww.outq.clear();
    ww.outq_off = 0;
  }
  for (auto& ww : sup.ws) {
    int status = 0;
    while (waitpid(ww.pid, &status, 0) < 0 && errno == EINTR) {
    }
    ww.pid = -1;
    close(ww.fd);
    ww.fd = -1;
  }
  pending_.clear();
  for (int w = 0; w < workers_; ++w) {
    merge_worker_blob(w, sup.ws[static_cast<std::size_t>(w)].state);
  }
  horizon_ = elapsed();
}

}  // namespace scalemd
