#include "rts/reduction.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "rts/reliable.hpp"
#include "rts/wire.hpp"

namespace scalemd {

/// One upward message of the tree: the (contributor id, value) pairs a node
/// gathered for a round, addressed to its parent's rank.
struct Reducer::Partial {
  int parent_rank = 0;
  int round = 0;
  int forwarded = 0;  ///< contributions the pairs stand for
  std::vector<std::pair<int, double>> parts;

  template <class Ar>
  void fields(Ar& ar) {
    ar(parent_rank, round, forwarded, parts);
  }
};

Reducer::Reducer(std::vector<int> pe_of_contributor, EntryId entry,
                 std::function<void(int round, double total)> callback)
    : entry_(entry), callback_(std::move(callback)) {
  // Participating PEs in ascending order; rank in this list defines the
  // binary reduction tree (parent(r) = (r-1)/2).
  std::vector<int> pes = pe_of_contributor;
  std::sort(pes.begin(), pes.end());
  pes.erase(std::unique(pes.begin(), pes.end()), pes.end());
  active_pes_ = pes;
  for (std::size_t r = 0; r < pes.size(); ++r) pe_rank_[pes[r]] = static_cast<int>(r);

  local_expected_.assign(active_pes_.size(), 0);
  for (int pe : pe_of_contributor) ++local_expected_[static_cast<std::size_t>(pe_rank_[pe])];

  // Subtree totals: local + children, computed bottom-up.
  subtree_expected_ = local_expected_;
  for (int r = static_cast<int>(active_pes_.size()) - 1; r >= 1; --r) {
    subtree_expected_[static_cast<std::size_t>((r - 1) / 2)] +=
        subtree_expected_[static_cast<std::size_t>(r)];
  }
  state_.resize(active_pes_.size());
}

int Reducer::rank_of_pe(int pe) const {
  const auto it = pe_rank_.find(pe);
  assert(it != pe_rank_.end());
  return it->second;
}

void Reducer::contribute(ExecContext& ctx, int id, int round, double value) {
  absorb(ctx, rank_of_pe(ctx.pe()), round, {{id, value}}, 1);
}

void Reducer::absorb(ExecContext& ctx, int rank, int round,
                     std::vector<std::pair<int, double>> parts, int count) {
  NodeRound& nr = state_[static_cast<std::size_t>(rank)][round];
  nr.received += count;
  nr.parts.insert(nr.parts.end(), parts.begin(), parts.end());
  if (nr.received < subtree_expected_[static_cast<std::size_t>(rank)]) return;

  std::vector<std::pair<int, double>> all = std::move(nr.parts);
  const int forwarded = nr.received;
  state_[static_cast<std::size_t>(rank)].erase(round);

  if (rank == 0) {
    // Canonical order: sort by contributor id, then sum left to right. The
    // arrival order depends on the schedule (and, under the threaded
    // backend, on real thread timing); the sorted order never does.
    std::sort(all.begin(), all.end(),
              [](const std::pair<int, double>& a, const std::pair<int, double>& b) {
                return a.first < b.first;
              });
    double total = 0.0;
    for (const auto& p : all) total += p.second;
    if (callback_) callback_(round, total);
    return;
  }
  const int parent_rank = (rank - 1) / 2;
  const int parent_pe = active_pes_[static_cast<std::size_t>(parent_rank)];
  Partial p{parent_rank, round, forwarded, std::move(all)};
  TaskMsg msg;
  msg.entry = entry_;
  msg.bytes = 32;  // modeled payload: one scalar + header (pairs are bookkeeping)
  msg.priority = -1;  // reductions are latency-critical
  if (wire_) msg.wire = wire::encode(p);
  msg.fn = climb(std::move(p));
  if (reliable_ != nullptr) {
    reliable_->send(ctx, parent_pe, std::move(msg));
  } else {
    ctx.send(parent_pe, std::move(msg));
  }
}

TaskFn Reducer::decode(const WirePayload& payload) {
  Partial p;
  if (!wire::decode(payload, p) || p.parent_rank < 0 ||
      static_cast<std::size_t>(p.parent_rank) >= active_pes_.size()) {
    std::fprintf(stderr, "[scalemd] reduction: malformed partial-sum payload\n");
    std::abort();
  }
  return climb(std::move(p));
}

TaskFn Reducer::climb(Partial p) {
  return [this, p = std::move(p)](ExecContext& c) mutable {
    c.charge(1e-6);  // combine cost
    absorb(c, p.parent_rank, p.round, std::move(p.parts), p.forwarded);
  };
}

void Reducer::clear_pending() {
  for (auto& rounds : state_) rounds.clear();
}

}  // namespace scalemd
