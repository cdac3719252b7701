#include "des/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace scalemd {

/// DES implementation of ExecContext: charges advance the virtual clock,
/// sends go through the network model (LogGP link serialization at both
/// endpoints) and post() is a genuine virtual-time timer.
class DesContext final : public ExecContext {
 public:
  DesContext(Simulator* sim, int pe, double start)
      : ExecContext(pe, start), sim_(sim) {}

  const MachineModel& machine() const override { return sim_->machine(); }

  void send(int dest, TaskMsg msg) override {
    const MachineModel& m = sim_->machine();
    if (dest == pe_) {
      charge(m.local_overhead);
      send_cost_ += m.local_overhead;
      sim_->deliver(pe_, dest, std::move(msg), now(), now(), /*remote=*/false);
    } else {
      charge(m.send_overhead);
      send_cost_ += m.send_overhead;
      // Link (LogGP gap) serialization at both endpoints: a PE's outgoing and
      // incoming links each carry one message at a time at 1/byte_time.
      const double transfer = static_cast<double>(msg.bytes) * m.byte_time;
      auto& src = sim_->pes_[static_cast<std::size_t>(pe_)];
      const double tx_start = std::max(now(), src.out_nic_free);
      src.out_nic_free = tx_start + transfer;
      const double wire_arrival = tx_start + transfer + m.latency;
      auto& dst = sim_->pes_[static_cast<std::size_t>(dest)];
      const double deliver = std::max(wire_arrival, dst.in_nic_free);
      dst.in_nic_free = deliver + transfer;
      sim_->deliver(pe_, dest, std::move(msg), now(), deliver, /*remote=*/true);
    }
  }

  void post(TaskMsg msg, double delay) override {
    // Uncharged local self-message after `delay` virtual seconds: the timer
    // primitive of the reliable-delivery layer. Exempt from message faults
    // (local delivery), so a pending timer always eventually fires.
    sim_->deliver(pe_, pe_, std::move(msg), now(), now() + delay, /*remote=*/false);
  }

 private:
  friend class Simulator;

  Simulator* sim_;
};

Simulator::Simulator(int num_pes, const MachineModel& machine)
    : machine_(machine), pes_(static_cast<std::size_t>(checked_num_pes(num_pes))) {}

void Simulator::set_fault_plan(const FaultPlan& plan) {
  plan_ = plan;
  fault_rng_ = Rng(plan.seed);
  pe_faults_.clear();
  next_pe_fault_ = 0;
  for (const PeSlowdown& s : plan.slowdowns) {
    if (s.pe < 0 || s.pe >= num_pes()) continue;  // out-of-range: ignore
    pe_faults_.push_back({s.from_time, s.pe, /*failure=*/false, s.factor});
  }
  for (const PeFailure& f : plan.failures) {
    if (f.pe < 0 || f.pe >= num_pes()) continue;
    pe_faults_.push_back({f.at_time, f.pe, /*failure=*/true, 0.0});
  }
  std::sort(pe_faults_.begin(), pe_faults_.end(),
            [](const ScheduledPeFault& a, const ScheduledPeFault& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.pe != b.pe) return a.pe < b.pe;
              return a.failure < b.failure;  // slowdown before failure
            });
}

std::vector<int> Simulator::failed_pes() const {
  std::vector<int> out;
  for (int pe = 0; pe < num_pes(); ++pe) {
    if (pes_[static_cast<std::size_t>(pe)].failed) out.push_back(pe);
  }
  return out;
}

void Simulator::apply_pe_faults(double now) {
  while (next_pe_fault_ < pe_faults_.size() &&
         pe_faults_[next_pe_fault_].time <= now) {
    const ScheduledPeFault& f = pe_faults_[next_pe_fault_++];
    Processor& p = pes_[static_cast<std::size_t>(f.pe)];
    if (p.failed) continue;  // already dead: nothing further can happen to it
    if (f.failure) {
      p.failed = true;
      // Everything queued on the dying PE is lost with it.
      const auto lost = static_cast<std::uint64_t>(p.ready.size());
      for (; !p.ready.empty(); p.ready.pop()) release(p.ready.top().slot);
      acct_.pending_ready -= lost;
      acct_.discarded_dead_pe += lost;
      fault_stats_.discarded_dead_pe += lost;
      ++fault_stats_.pe_failures;
      fault_stats_.last_failure_time =
          std::max(fault_stats_.last_failure_time, f.time);
      record_fault({FaultKind::kPeFailure, f.pe, -1, f.time, 0.0});
    } else {
      p.slowdown = f.factor;
      record_fault({FaultKind::kPeSlowdown, f.pe, -1, f.time, f.factor});
    }
  }
}

void Simulator::inject(int pe, TaskMsg msg, double time) {
  check_pe(pe, num_pes());
  deliver(/*src_pe=*/pe, pe, std::move(msg), time, time, /*remote=*/false);
}

std::uint32_t Simulator::park(Parked p) {
  if (free_slots_.empty()) {
    pool_.push_back(std::move(p));
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  pool_[slot] = std::move(p);
  return slot;
}

void Simulator::release(std::uint32_t slot) {
  pool_[slot].msg = TaskMsg{};
  free_slots_.push_back(slot);
}

void Simulator::deliver(int src_pe, int dst_pe, TaskMsg msg, double send_time,
                        double arrive_time, bool remote) {
  assert(dst_pe >= 0 && dst_pe < num_pes());
  ++acct_.offered;
  bool duplicate = false;
  // Message faults hit only the network: local sends, injected bootstrap
  // messages and timer self-messages are exempt, so recovery timers are
  // guaranteed to fire.
  if (remote && plan_.has_message_faults()) {
    if (plan_.drop_prob > 0.0 && fault_rng_.uniform() < plan_.drop_prob) {
      ++fault_stats_.messages_dropped;
      ++acct_.dropped_fault;
      record_fault({FaultKind::kMessageDrop, dst_pe, src_pe, send_time, 0.0});
      return;
    }
    if (plan_.dup_prob > 0.0 && fault_rng_.uniform() < plan_.dup_prob) {
      duplicate = true;
      ++fault_stats_.messages_duplicated;
      ++acct_.duplicated;
      record_fault({FaultKind::kMessageDup, dst_pe, src_pe, send_time, 0.0});
    }
    if (plan_.delay_prob > 0.0 && fault_rng_.uniform() < plan_.delay_prob) {
      const double spike = fault_rng_.uniform() * plan_.delay_max;
      arrive_time += spike;
      ++fault_stats_.messages_delayed;
      record_fault({FaultKind::kMessageDelay, dst_pe, src_pe, send_time, spike});
    }
  }
  const int priority = msg.priority;
  const std::uint64_t seq = seq_++;
  if (duplicate) {
    // The copy parks on its own and arrives with the next sequence number.
    const std::uint32_t copy = park({msg, src_pe, remote, send_time});
    events_.push({arrive_time, seq_++, dst_pe, priority, copy, EventKind::kArrival});
    ++acct_.pending_network;
  }
  const std::uint32_t slot = park({std::move(msg), src_pe, remote, send_time});
  events_.push({arrive_time, seq, dst_pe, priority, slot, EventKind::kArrival});
  ++acct_.pending_network;
}

void Simulator::schedule_dispatch(int pe, double time) {
  events_.push({time, seq_++, pe, 0, 0, EventKind::kDispatch});
}

void Simulator::run(double until) {
  while (!events_.empty()) {
    if (events_.top().time > until) break;
    if (next_pe_fault_ < pe_faults_.size()) apply_pe_faults(events_.top().time);
    const Event ev = events_.top();
    events_.pop();
    Processor& p = pes_[static_cast<std::size_t>(ev.pe)];
    if (ev.kind == EventKind::kArrival) {
      --acct_.pending_network;
      if (p.failed) {
        release(ev.slot);
        ++acct_.discarded_dead_pe;
        ++fault_stats_.discarded_dead_pe;
        continue;
      }
      const Parked& m = pool_[ev.slot];
      if (sink_ != nullptr) {
        sink_->on_message({m.src_pe, ev.pe, m.msg.entry, m.msg.bytes, m.sent_at, ev.time});
      }
      if (m.remote) {
        ++remote_messages_;
        remote_bytes_ += m.msg.bytes;
      }
      p.ready.push({ev.priority, ev.slot, ev.seq});
      ++acct_.pending_ready;
      if (!p.dispatch_pending) {
        p.dispatch_pending = true;
        schedule_dispatch(ev.pe, std::max(ev.time, p.busy_until));
      }
    } else {
      p.dispatch_pending = false;
      if (p.failed || p.ready.empty()) continue;
      const std::uint32_t slot = p.ready.top().slot;
      p.ready.pop();
      --acct_.pending_ready;
      execute(ev.pe, slot, ev.time);
      if (!p.ready.empty()) {
        p.dispatch_pending = true;
        schedule_dispatch(ev.pe, p.busy_until);
      }
    }
  }
}

void Simulator::execute(int pe, std::uint32_t slot, double start) {
  Processor& p = pes_[static_cast<std::size_t>(pe)];
  assert(start >= p.busy_until);

  // Out of the pool before the task runs: its sends park messages and may
  // grow the pool.
  Parked m = std::move(pool_[slot]);
  release(slot);
  DesContext ctx(this, pe, start);
  if (m.remote) {
    ctx.charge(machine_.recv_overhead);
    ctx.recv_cost_ = machine_.recv_overhead;
  }
  m.msg.fn(ctx);

  // A slowdown factor of exactly 1.0 leaves the duration bit-identical
  // (IEEE multiplication by one is exact), so fault-free schedules match
  // a build without the fault engine.
  const double duration = ctx.charged() * p.slowdown;
  p.busy_until = start + duration;
  p.busy_sum += duration;
  horizon_ = std::max(horizon_, p.busy_until);
  ++tasks_executed_;
  ++acct_.executed;

  if (sink_ != nullptr) {
    sink_->on_task({pe, m.msg.entry, m.msg.object, start, duration, ctx.recv_cost_,
                    ctx.pack_cost_, ctx.send_cost_});
  }
}

bool Simulator::idle() const {
  if (!events_.empty()) return false;
  for (const Processor& p : pes_) {
    if (!p.ready.empty() || p.dispatch_pending) return false;
  }
  return true;
}

std::vector<double> Simulator::busy_times() const {
  std::vector<double> out;
  out.reserve(pes_.size());
  for (const Processor& p : pes_) out.push_back(p.busy_sum);
  return out;
}

}  // namespace scalemd
