#include "flb/graph/properties.hpp"

#include <algorithm>

#include "flb/util/error.hpp"

namespace flb {

std::vector<TaskId> topological_order(const TaskGraph& g) {
  const std::span<const TaskId> order = g.topological_order();
  return {order.begin(), order.end()};
}

namespace {

// The one bottom-level sweep: reverse topological order, so every
// successor's level is final when its predecessor reads it.
template <bool WithComm>
void bottom_level_sweep(const TaskGraph& g, std::span<Cost> bl) {
  FLB_ASSERT(bl.size() == g.num_tasks());
  const std::span<const TaskId> order = g.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t)) {
      Cost via = bl[a.node] + (WithComm ? a.comm : 0.0);
      best = std::max(best, via);
    }
    bl[t] = g.comp(t) + best;
  }
}

// The critical path: the largest bottom level of any entry task.
Cost max_entry_level(const TaskGraph& g, const std::vector<Cost>& bl) {
  Cost cp = 0.0;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (g.is_entry(t)) cp = std::max(cp, bl[t]);
  return cp;
}

}  // namespace

void bottom_levels_into(const TaskGraph& g, std::span<Cost> bl) {
  bottom_level_sweep</*WithComm=*/true>(g, bl);
}

std::vector<Cost> bottom_levels(const TaskGraph& g) {
  std::vector<Cost> bl(g.num_tasks());
  bottom_level_sweep</*WithComm=*/true>(g, bl);
  return bl;
}

std::vector<Cost> computation_bottom_levels(const TaskGraph& g) {
  std::vector<Cost> bl(g.num_tasks());
  bottom_level_sweep</*WithComm=*/false>(g, bl);
  return bl;
}

std::vector<Cost> top_levels(const TaskGraph& g) {
  std::vector<Cost> tl(g.num_tasks(), 0.0);
  for (TaskId t : g.topological_order()) {
    Cost best = 0.0;
    for (const Adj& a : g.predecessors(t))
      best = std::max(best, tl[a.node] + g.comp(a.node) + a.comm);
    tl[t] = best;
  }
  return tl;
}

Cost critical_path(const TaskGraph& g) {
  return max_entry_level(g, bottom_levels(g));
}

Cost computation_critical_path(const TaskGraph& g) {
  return max_entry_level(g, computation_bottom_levels(g));
}

std::vector<Cost> alap_times(const TaskGraph& g) {
  std::vector<Cost> bl = bottom_levels(g);
  const Cost cp = max_entry_level(g, bl);
  std::vector<Cost> alap(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) alap[t] = cp - bl[t];
  return alap;
}

std::vector<std::size_t> depth_levels(const TaskGraph& g) {
  std::vector<std::size_t> depth(g.num_tasks(), 0);
  for (TaskId t : g.topological_order()) {
    for (const Adj& a : g.predecessors(t))
      depth[t] = std::max(depth[t], depth[a.node] + 1);
  }
  return depth;
}

std::vector<std::vector<TaskId>> level_decomposition(const TaskGraph& g) {
  std::vector<std::size_t> depth = depth_levels(g);
  std::size_t max_depth = 0;
  for (std::size_t d : depth) max_depth = std::max(max_depth, d);
  std::vector<std::vector<TaskId>> levels(g.num_tasks() == 0 ? 0
                                                             : max_depth + 1);
  for (TaskId t = 0; t < g.num_tasks(); ++t) levels[depth[t]].push_back(t);
  return levels;
}

std::size_t max_level_width(const TaskGraph& g) {
  std::size_t best = 0;
  for (const auto& level : level_decomposition(g))
    best = std::max(best, level.size());
  return best;
}

}  // namespace flb
