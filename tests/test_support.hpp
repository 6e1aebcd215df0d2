#pragma once

#include <string>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/validator.hpp"
#include "flb/workloads/workloads.hpp"

/// \file test_support.hpp
/// Shared helpers for the flb test suite.

namespace flb::test {

/// Render all violations of a schedule for diagnostics in EXPECT messages.
inline std::string violations_to_string(const TaskGraph& g,
                                        const Schedule& s) {
  std::string out;
  for (const Violation& v : validate_schedule(g, s)) {
    out += to_string(v);
    out += '\n';
  }
  return out.empty() ? "(no violations)" : out;
}

/// A small fixed DAG used by several suites:
///
///        a(1)
///       /    \          edge weights:
///   (2)/      \(1)      a->b 2, a->c 1,
///     b(3)    c(2)      b->d 1, c->d 3
///       \      /
///    (1) \    / (3)
///         d(1)
inline TaskGraph small_diamond() {
  TaskGraphBuilder b;
  b.set_name("small-diamond");
  TaskId a = b.add_task(1);
  TaskId bb = b.add_task(3);
  TaskId c = b.add_task(2);
  TaskId d = b.add_task(1);
  b.add_edge(a, bb, 2);
  b.add_edge(a, c, 1);
  b.add_edge(bb, d, 1);
  b.add_edge(c, d, 3);
  return std::move(b).build();
}

/// 2 -> 1 -> 0 plus 2 -> 0 (weights 1, 2, 3; edge costs 4, 5, 1): every
/// edge runs from a higher to a lower id, so ascending ids are no
/// topological order.
inline TaskGraph descending_graph() {
  TaskGraphBuilder b;
  b.set_name("descending");
  b.add_task(1.0);
  b.add_task(2.0);
  b.add_task(3.0);
  b.add_edge(1, 0, 4.0);
  b.add_edge(2, 1, 5.0);
  b.add_edge(2, 0, 1.0);
  return std::move(b).build();
}

/// Deterministic fuzzing corpus: a spread of random DAG shapes that the
/// property tests sweep. Index selects shape and seed.
inline TaskGraph fuzz_graph(std::size_t index) {
  WorkloadParams params;
  params.seed = 1000 + index;
  params.ccr = (index % 3 == 0) ? 0.2 : (index % 3 == 1 ? 1.0 : 5.0);
  switch (index % 7) {
    case 0:
      return random_dag(20 + index % 30, 0.15, params);
    case 1:
      return random_layered_graph(4 + index % 5, 3 + index % 6, 0.4, params);
    case 2:
      return fork_join_graph(2 + index % 4, 3 + index % 5, params);
    case 3:
      return random_dag(10 + index % 15, 0.35, params);
    case 4:
      return series_parallel_graph(15 + index % 25, 0.5, params);
    case 5:
      return cholesky_graph(3 + index % 4, params);
    default:
      return diamond_graph(3 + index % 4, params);
  }
}

}  // namespace flb::test
