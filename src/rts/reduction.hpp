#pragma once

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rts/exec_backend.hpp"

namespace scalemd {

class ReliableComm;

/// Repeated tree reduction of doubles across PEs, Charm++-style: every round
/// (timestep), each contributor deposits a value from within a task; when a
/// PE has all its local contributions for a round it sends its partial sum
/// one hop up a binary tree over the participating PEs; the root invokes the
/// round callback as a task. Models the per-step energy reduction NAMD
/// performs, including its message costs and latency.
class Reducer {
 public:
  /// `pe_of_contributor[i]` is the (fixed) PE contributor i reports from.
  /// `entry` labels the internal reduction tasks for tracing; `callback` runs
  /// at the tree root with (round, total).
  Reducer(std::vector<int> pe_of_contributor, EntryId entry,
          std::function<void(int round, double total)> callback);

  /// Deposits contributor `id`'s value for `round`; must be called from a
  /// task running on the contributor's PE. The total delivered to the root
  /// is the sum over contributions *in ascending id order*, regardless of
  /// arrival order — bitwise identical across backends and thread counts
  /// even though floating-point addition doesn't associate.
  void contribute(ExecContext& ctx, int id, int round, double value);

  /// PE hosting the reduction root.
  int root_pe() const { return active_pes_.empty() ? 0 : active_pes_[0]; }

  /// Routes the tree's upward partial-sum messages through the reliable
  /// layer (nullptr = raw sends). Contributions themselves are local calls.
  void set_reliable(ReliableComm* reliable) { reliable_ = reliable; }

  /// Attaches a wire payload (one encoded partial-sum record) to every
  /// upward message so the process backend can route it across workers.
  void set_wire(bool on) { wire_ = on; }

  /// Wire entry point: rebuilds the closure of an upward message from its
  /// payload — the same closure the sender would have run in-process.
  /// Aborts on a malformed payload (it comes from a sibling worker of the
  /// same run, never from outside).
  TaskFn decode(const WirePayload& payload);

  /// Discards every partially filled round on every tree node. Checkpoint
  /// restart uses this: replayed contributions must start from a clean
  /// slate or the counts would double.
  void clear_pending();

 private:
  struct Partial;

  struct NodeRound {
    int received = 0;
    /// (contributor id, value) pairs gathered so far. Carrying the pairs up
    /// the tree (instead of a running double) costs nothing in the model —
    /// the modeled payload stays one scalar plus header — and lets the root
    /// sum in canonical id order.
    std::vector<std::pair<int, double>> parts;
  };

  /// Handles contributions arriving at `rank` in the tree (local deposit or
  /// child message); forwards up or completes.
  void absorb(ExecContext& ctx, int rank, int round,
              std::vector<std::pair<int, double>> parts, int count);

  int rank_of_pe(int pe) const;
  /// The task that absorbs an upward message at its parent's rank.
  TaskFn climb(Partial p);

  std::vector<int> active_pes_;            ///< participating PEs, tree order
  std::unordered_map<int, int> pe_rank_;   ///< pe -> rank
  std::vector<int> local_expected_;        ///< contributions expected per rank
  std::vector<int> subtree_expected_;      ///< total expected in subtree
  std::vector<std::unordered_map<int, NodeRound>> state_;  ///< per rank, per round
  EntryId entry_;
  std::function<void(int, double)> callback_;
  ReliableComm* reliable_ = nullptr;
  bool wire_ = false;
};

}  // namespace scalemd
