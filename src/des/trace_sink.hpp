#pragma once

#include <cstddef>
#include <cstdint>

namespace scalemd {

/// Identifier of a registered entry method (see EntryRegistry).
using EntryId = int;

/// Coarse classification of entry methods, used by the performance audit
/// (Table 1) to fold entry-method times into the paper's columns.
enum class WorkCategory : std::uint8_t {
  kNonbonded,    ///< non-bonded pair/self compute objects
  kBonded,       ///< bonded compute objects
  kIntegration,  ///< patch integration + coordinate distribution
  kComm,         ///< runtime communication helpers (reductions, migration)
  kOther,
};

/// One executed task (entry-method invocation) on a virtual processor.
struct TaskRecord {
  int pe = 0;
  EntryId entry = 0;
  std::uint64_t object = 0;  ///< chare/object id for load measurement (0 = none)
  double start = 0.0;        ///< virtual seconds
  double duration = 0.0;     ///< total task time including recv overhead
  double recv_cost = 0.0;    ///< receive-overhead part of duration
  double pack_cost = 0.0;    ///< message pack/alloc part of duration
  double send_cost = 0.0;    ///< send/enqueue-overhead part of duration
};

/// Wire field list (rts/wire.hpp).
template <class Ar>
void fields(Ar& ar, TaskRecord& r) {
  ar(r.pe, r.entry, r.object, r.start, r.duration, r.recv_cost, r.pack_cost, r.send_cost);
}

/// One message delivery between virtual processors.
struct MsgRecord {
  int src_pe = 0;
  int dst_pe = 0;
  EntryId entry = 0;
  std::size_t bytes = 0;
  double send_time = 0.0;
  double recv_time = 0.0;
};

/// Wire field list (rts/wire.hpp).
template <class Ar>
void fields(Ar& ar, MsgRecord& r) {
  ar(r.src_pe, r.dst_pe, r.entry, r.bytes, r.send_time, r.recv_time);
}

/// What happened to the machine or the runtime outside normal execution:
/// either an injected fault (FaultPlan, src/des/fault.hpp) or a recovery
/// action the fault-tolerant runtime took in response. Both flow through the
/// same record so the timeline and the audit can show them side by side.
enum class FaultKind : std::uint8_t {
  // Injected faults.
  kMessageDrop,     ///< a remote message vanished on the wire
  kMessageDup,      ///< a remote message was delivered twice
  kMessageDelay,    ///< a remote message suffered a latency spike
  kPeSlowdown,      ///< a PE started running slower by `magnitude`x
  kPeFailure,       ///< a PE died; nothing on it runs from `time` on
  // Recovery actions.
  kRetry,           ///< an unacked reliable message was resent
  kDupSuppressed,   ///< dedup filtered an already-delivered message
  kMessageLost,     ///< a reliable send was abandoned (dead PE / max attempts)
  kCheckpoint,      ///< coordinated checkpoint taken
  kRestart,         ///< state restored from the last checkpoint
  kEvacuation,      ///< a failed PE's objects were redistributed
};

const char* fault_kind_name(FaultKind k);
/// True for the injected-fault kinds, false for recovery actions.
bool is_injected_fault(FaultKind k);

/// One fault or recovery event, as seen by instrumentation sinks.
struct FaultRecord {
  FaultKind kind = FaultKind::kMessageDrop;
  int pe = -1;             ///< affected PE (destination for message faults)
  int src_pe = -1;         ///< sender for message faults, -1 otherwise
  double time = 0.0;       ///< virtual time of the event
  double magnitude = 0.0;  ///< delay s, slowdown factor, restart latency, ...
};

/// Instrumentation interface of the simulator. Implementations live in
/// trace/ (summary profiles, full event logs) and lb/ (load database).
/// The paper's three instrumentation levels map to: no sink (step times
/// only), SummaryProfile, and EventLog.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_task(const TaskRecord&) {}
  virtual void on_message(const MsgRecord&) {}
  virtual void on_fault(const FaultRecord&) {}
};

/// Fans one stream of records out to several sinks.
class MultiSink final : public TraceSink {
 public:
  void add(TraceSink* sink) { sinks_[count_++] = sink; }

  /// Removes a previously added sink (callers must remove sinks whose
  /// lifetime ends before the simulation's). No-op if absent.
  void remove(const TraceSink* sink) {
    for (int i = 0; i < count_; ++i) {
      if (sinks_[i] == sink) {
        sinks_[i] = sinks_[count_ - 1];
        --count_;
        return;
      }
    }
  }

  void on_task(const TaskRecord& r) override {
    for (int i = 0; i < count_; ++i) sinks_[i]->on_task(r);
  }
  void on_message(const MsgRecord& r) override {
    for (int i = 0; i < count_; ++i) sinks_[i]->on_message(r);
  }
  void on_fault(const FaultRecord& r) override {
    for (int i = 0; i < count_; ++i) sinks_[i]->on_fault(r);
  }

 private:
  TraceSink* sinks_[8] = {};
  int count_ = 0;
};

}  // namespace scalemd
