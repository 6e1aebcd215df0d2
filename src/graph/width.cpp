#include "flb/graph/width.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "flb/util/error.hpp"

namespace flb {

Reachability::Reachability(const TaskGraph& g)
    : n_(g.num_tasks()), words_((n_ + 63) / 64) {
  rows_.assign(static_cast<std::size_t>(n_) * words_, 0);
  // Reverse topological order: a task's row is the union of each successor's
  // row plus the successor itself.
  const std::span<const TaskId> order = g.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(t) * words_;
    for (const Adj& a : g.successors(t)) {
      const std::uint64_t* srow =
          rows_.data() + static_cast<std::size_t>(a.node) * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] |= srow[w];
      row[a.node / 64] |= (1ull << (a.node % 64));
    }
  }
}

namespace {

/// Hopcroft–Karp over the bipartite split graph implied by a Reachability
/// matrix: left vertex u connects to right vertex v iff v is reachable
/// from u. Returns the maximum matching size.
class HopcroftKarp {
 public:
  explicit HopcroftKarp(const Reachability& r)
      : r_(r),
        n_(r.num_tasks()),
        match_l_(n_, kInvalidTask),
        match_r_(n_, kInvalidTask),
        dist_(n_) {}

  std::size_t run() {
    std::size_t matching = 0;
    while (bfs()) {
      for (TaskId u = 0; u < n_; ++u)
        if (match_l_[u] == kInvalidTask && dfs(u)) ++matching;
    }
    return matching;
  }

 private:
  static constexpr std::size_t kInf = static_cast<std::size_t>(-1);

  bool bfs() {
    std::queue<TaskId> q;
    for (TaskId u = 0; u < n_; ++u) {
      if (match_l_[u] == kInvalidTask) {
        dist_[u] = 0;
        q.push(u);
      } else {
        dist_[u] = kInf;
      }
    }
    bool found = false;
    while (!q.empty()) {
      TaskId u = q.front();
      q.pop();
      for (TaskId v = 0; v < n_; ++v) {
        if (!r_.reaches(u, v)) continue;
        TaskId w = match_r_[v];
        if (w == kInvalidTask) {
          found = true;
        } else if (dist_[w] == kInf) {
          dist_[w] = dist_[u] + 1;
          q.push(w);
        }
      }
    }
    return found;
  }

  bool dfs(TaskId u) {
    for (TaskId v = 0; v < n_; ++v) {
      if (!r_.reaches(u, v)) continue;
      TaskId w = match_r_[v];
      if (w == kInvalidTask || (dist_[w] == dist_[u] + 1 && dfs(w))) {
        match_l_[u] = v;
        match_r_[v] = u;
        return true;
      }
    }
    dist_[u] = kInf;
    return false;
  }

  const Reachability& r_;
  TaskId n_;
  std::vector<TaskId> match_l_, match_r_;
  std::vector<std::size_t> dist_;
};

}  // namespace

std::size_t exact_width(const TaskGraph& g) {
  if (g.num_tasks() == 0) return 0;
  Reachability r(g);
  HopcroftKarp hk(r);
  std::size_t matching = hk.run();
  // Dilworth: max antichain = V - min chain cover's saved merges = V - M.
  return g.num_tasks() - matching;
}

std::size_t brute_force_width(const TaskGraph& g) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(n <= 20, "brute_force_width: too many tasks (max 20)");
  if (n == 0) return 0;
  Reachability r(g);
  std::size_t best = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    bool antichain = true;
    for (TaskId a = 0; a < n && antichain; ++a) {
      if (!(mask & (1u << a))) continue;
      for (TaskId b = static_cast<TaskId>(a + 1); b < n && antichain; ++b) {
        if (!(mask & (1u << b))) continue;
        if (r.comparable(a, b)) antichain = false;
      }
    }
    if (antichain)
      best = std::max(best,
                      static_cast<std::size_t>(std::popcount(mask)));
  }
  return best;
}

}  // namespace flb
