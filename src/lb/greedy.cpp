#include "lb/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace scalemd {

namespace {

double average_load(const LbProblem& p) {
  double total = std::accumulate(p.background.begin(), p.background.end(), 0.0);
  for (const LbObject& o : p.objects) total += o.load;
  return total / p.num_pes;
}

/// Objects sorted by decreasing load ("select the biggest compute object").
std::vector<std::size_t> by_decreasing_load(const LbProblem& p) {
  std::vector<std::size_t> order(p.objects.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.objects[a].load > p.objects[b].load;
  });
  return order;
}

/// Per-PE loads under a tournament tree whose root is the least-loaded PE,
/// the lowest index among equal loads (std::min_element's choice). Adding
/// load to a PE re-plays its path to the root: O(log P).
class MinLoadTree {
 public:
  /// Starts from the problem's background load.
  explicit MinLoadTree(const LbProblem& p) : load_(p.background) {
    const std::size_t n = static_cast<std::size_t>(p.num_pes);
    load_.resize(n, 0.0);
    while (leaves_ < n) leaves_ *= 2;
    node_.assign(2 * leaves_, n);  // padding leaves hold the past-the-end PE
    for (std::size_t pe = 0; pe < n; ++pe) node_[leaves_ + pe] = pe;
    for (std::size_t i = leaves_ - 1; i >= 1; --i) {
      node_[i] = pick(node_[2 * i], node_[2 * i + 1]);
    }
  }

  std::size_t min_pe() const { return node_[1]; }
  double load(std::size_t pe) const { return load_[pe]; }

  void add(std::size_t pe, double w) {
    load_[pe] += w;
    for (std::size_t i = (leaves_ + pe) / 2; i >= 1; i /= 2) {
      node_[i] = pick(node_[2 * i], node_[2 * i + 1]);
    }
  }

 private:
  /// `a` comes from the left subtree, so it has the lower index and wins ties.
  std::size_t pick(std::size_t a, std::size_t b) const {
    if (b >= load_.size()) return a;
    return load_[b] < load_[a] ? b : a;
  }

  std::vector<double> load_;
  std::size_t leaves_ = 1;
  std::vector<std::size_t> node_;
};

}  // namespace

LbAssignment greedy_comm_map(const LbProblem& p, double overload) {
  MinLoadTree tree(p);
  const double limit = overload * average_load(p);

  // on[patch]: the PEs the patch's data is already on (its home, then every
  // proxy an earlier assignment in this pass created). mark[pe] flags, for
  // the object being placed, bit 0: patch_a is on pe; bit 1: patch_b is.
  std::vector<std::vector<int>> on(p.patch_home.size());
  for (std::size_t patch = 0; patch < on.size(); ++patch) {
    on[patch].push_back(p.patch_home[patch]);
  }
  std::vector<std::uint8_t> mark(static_cast<std::size_t>(p.num_pes), 0);
  const std::vector<int> nowhere;  // where a missing patch (-1) is
  const auto pes_of = [&](int patch) -> const std::vector<int>& {
    return patch >= 0 ? on[static_cast<std::size_t>(patch)] : nowhere;
  };

  LbAssignment map(p.objects.size(), 0);
  for (std::size_t idx : by_decreasing_load(p)) {
    const LbObject& o = p.objects[idx];
    const std::vector<int>& on_a = pes_of(o.patch_a);
    const std::vector<int>& on_b = pes_of(o.patch_b);
    for (int pe : on_a) mark[static_cast<std::size_t>(pe)] |= 1;
    for (int pe : on_b) mark[static_cast<std::size_t>(pe)] |= 2;
    const auto present = [&](std::size_t pe) { return (mark[pe] & 1) + (mark[pe] >> 1); };

    // Does any processor accept this object under the overload limit? A sum
    // rounds monotonically, so one does exactly when the least-loaded one
    // does. When none does (an object bigger than the average PE load,
    // common when P >> objects-per-PE), communication awareness must yield
    // to balance: fall back to least-loaded-first or the big objects pile up
    // on the few home PEs.
    const std::size_t min_pe = tree.min_pe();
    const bool any_fits = tree.load(min_pe) + o.load <= limit;

    // Every PE holding neither patch ties on presence, and the tree's
    // minimum is the best of them, so the winner is the minimum or a PE
    // that holds a patch. Fits: more patches present (fewer new proxies)
    // first, then lighter load. Otherwise: balance first, proxies as
    // tie-break. Lowest index last, as a scan in PE order would keep.
    std::size_t best_pe = min_pe;
    int best_present = present(min_pe);
    double best_load = tree.load(min_pe);
    const auto consider = [&](int candidate) {
      const auto pe = static_cast<std::size_t>(candidate);
      const double load = tree.load(pe);
      if (any_fits && load + o.load > limit) return;
      const int here = present(pe);
      const bool tie = load == best_load && here == best_present && pe < best_pe;
      const bool better =
          any_fits ? here > best_present || (here == best_present && load < best_load)
                   : load < best_load || (load == best_load && here > best_present);
      if (better || tie) {
        best_pe = pe;
        best_present = here;
        best_load = load;
      }
    };
    for (int pe : on_a) consider(pe);
    for (int pe : on_b) consider(pe);

    map[idx] = static_cast<int>(best_pe);
    tree.add(best_pe, o.load);
    const std::uint8_t had = mark[best_pe];
    for (int pe : on_a) mark[static_cast<std::size_t>(pe)] = 0;
    for (int pe : on_b) mark[static_cast<std::size_t>(pe)] = 0;
    // The patches' data now reaches best_pe too.
    if (o.patch_a >= 0 && (had & 1) == 0) {
      on[static_cast<std::size_t>(o.patch_a)].push_back(map[idx]);
    }
    if (o.patch_b >= 0 && o.patch_b != o.patch_a && (had & 2) == 0) {
      on[static_cast<std::size_t>(o.patch_b)].push_back(map[idx]);
    }
  }
  return map;
}

LbAssignment greedy_nocomm_map(const LbProblem& p) {
  MinLoadTree tree(p);
  LbAssignment map(p.objects.size(), 0);
  for (std::size_t idx : by_decreasing_load(p)) {
    const std::size_t pe = tree.min_pe();
    map[idx] = static_cast<int>(pe);
    tree.add(pe, p.objects[idx].load);
  }
  return map;
}

}  // namespace scalemd
