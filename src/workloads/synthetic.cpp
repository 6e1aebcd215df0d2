#include <cstddef>
#include <string>
#include <vector>

#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "weight_drawer.hpp"

// Synthetic task-graph families used by the unit/property tests and the
// ablation benches: random layered DAGs, unstructured random DAGs, trees,
// fork-join chains, diamond lattices, chains and independent task sets.

namespace flb {

TaskGraph random_layered_graph(std::size_t layers, std::size_t width,
                               double edge_prob,
                               const WorkloadParams& params) {
  FLB_REQUIRE(layers >= 1, "random_layered_graph: layers must be positive");
  FLB_REQUIRE(width >= 1, "random_layered_graph: width must be positive");
  FLB_REQUIRE(edge_prob >= 0.0 && edge_prob <= 1.0,
              "random_layered_graph: edge_prob must be in [0, 1]");
  detail::WeightDrawer w(params, "random_layered_graph");
  TaskGraphBuilder b;
  b.set_name("RandomLayered(l=" + std::to_string(layers) +
             ",w=" + std::to_string(width) + ")");

  auto id = [width](std::size_t l, std::size_t i) {
    return static_cast<TaskId>(l * width + i);
  };

  for (std::size_t i = 0; i < layers * width; ++i) b.add_task(w.comp());

  for (std::size_t l = 1; l < layers; ++l) {
    for (std::size_t i = 0; i < width; ++i) {
      bool has_parent = false;
      for (std::size_t j = 0; j < width; ++j) {
        if (w.rng().bernoulli(edge_prob)) {
          b.add_edge(id(l - 1, j), id(l, i), w.comm());
          has_parent = true;
        }
      }
      if (!has_parent) {
        // Guarantee depth = layers: connect to a random previous-layer task.
        std::size_t j = static_cast<std::size_t>(w.rng().next_below(width));
        b.add_edge(id(l - 1, j), id(l, i), w.comm());
      }
    }
  }
  return std::move(b).build();
}

TaskGraph random_dag(std::size_t tasks, double edge_prob,
                     const WorkloadParams& params) {
  FLB_REQUIRE(tasks >= 1, "random_dag: tasks must be positive");
  FLB_REQUIRE(edge_prob >= 0.0 && edge_prob <= 1.0,
              "random_dag: edge_prob must be in [0, 1]");
  detail::WeightDrawer w(params, "random_dag");
  TaskGraphBuilder b;
  b.set_name("RandomDag(v=" + std::to_string(tasks) + ")");

  for (std::size_t i = 0; i < tasks; ++i) b.add_task(w.comp());
  for (std::size_t i = 0; i < tasks; ++i)
    for (std::size_t j = i + 1; j < tasks; ++j)
      if (w.rng().bernoulli(edge_prob))
        b.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(j), w.comm());
  return std::move(b).build();
}

TaskGraph series_parallel_graph(std::size_t target_tasks,
                                double parallel_prob,
                                const WorkloadParams& params) {
  FLB_REQUIRE(target_tasks >= 2,
              "series_parallel_graph: at least two tasks required");
  FLB_REQUIRE(parallel_prob >= 0.0 && parallel_prob <= 1.0,
              "series_parallel_graph: parallel_prob must be in [0, 1]");
  detail::WeightDrawer w(params, "series_parallel_graph");
  Rng& rng = w.rng();

  // Grow the edge set: every operation consumes one random edge and adds
  // one fresh node, so node count = 2 + operations and no duplicate edges
  // can ever arise (every new edge touches the fresh node).
  std::vector<std::pair<TaskId, TaskId>> edges{{0, 1}};
  TaskId next_node = 2;
  while (next_node < target_tasks) {
    std::size_t pick = static_cast<std::size_t>(rng.next_below(edges.size()));
    auto [u, v] = edges[pick];
    TaskId mid = next_node++;
    if (rng.bernoulli(parallel_prob)) {
      // Parallel: a second u -> mid -> v path next to the existing edge.
      edges.emplace_back(u, mid);
      edges.emplace_back(mid, v);
    } else {
      // Series: split the edge through the new node.
      edges[pick] = {u, mid};
      edges.emplace_back(mid, v);
    }
  }

  TaskGraphBuilder b;
  b.set_name("SeriesParallel(v=" + std::to_string(next_node) + ")");
  for (TaskId t = 0; t < next_node; ++t) b.add_task(w.comp());
  for (auto [u, v] : edges) b.add_edge(u, v, w.comm());
  return std::move(b).build();
}

TaskGraph out_tree_graph(std::size_t depth, std::size_t fanout,
                         const WorkloadParams& params) {
  FLB_REQUIRE(depth >= 1, "out_tree_graph: depth must be positive");
  FLB_REQUIRE(fanout >= 1, "out_tree_graph: fanout must be positive");
  detail::WeightDrawer w(params, "out_tree_graph");
  TaskGraphBuilder b;
  b.set_name("OutTree(d=" + std::to_string(depth) +
             ",f=" + std::to_string(fanout) + ")");

  // Level l has fanout^l nodes; ids assigned level by level.
  std::vector<std::size_t> level_start(depth + 1, 0);
  std::size_t level_size = 1;
  for (std::size_t l = 0; l < depth; ++l) {
    level_start[l + 1] = level_start[l] + level_size;
    for (std::size_t i = 0; i < level_size; ++i) b.add_task(w.comp());
    level_size *= fanout;
  }
  level_size = 1;
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    for (std::size_t i = 0; i < level_size; ++i) {
      for (std::size_t c = 0; c < fanout; ++c) {
        b.add_edge(static_cast<TaskId>(level_start[l] + i),
                   static_cast<TaskId>(level_start[l + 1] + i * fanout + c),
                   w.comm());
      }
    }
    level_size *= fanout;
  }
  return std::move(b).build();
}

TaskGraph in_tree_graph(std::size_t depth, std::size_t fanout,
                        const WorkloadParams& params) {
  FLB_REQUIRE(depth >= 1, "in_tree_graph: depth must be positive");
  FLB_REQUIRE(fanout >= 1, "in_tree_graph: fanout must be positive");
  detail::WeightDrawer w(params, "in_tree_graph");
  TaskGraphBuilder b;
  b.set_name("InTree(d=" + std::to_string(depth) +
             ",f=" + std::to_string(fanout) + ")");

  // Level 0 is the widest (leaves), the last level is the single root.
  std::vector<std::size_t> level_size(depth);
  level_size[depth - 1] = 1;
  for (std::size_t l = depth - 1; l > 0; --l)
    level_size[l - 1] = level_size[l] * fanout;
  std::vector<std::size_t> level_start(depth + 1, 0);
  for (std::size_t l = 0; l < depth; ++l) {
    level_start[l + 1] = level_start[l] + level_size[l];
    for (std::size_t i = 0; i < level_size[l]; ++i) b.add_task(w.comp());
  }
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    for (std::size_t i = 0; i < level_size[l]; ++i) {
      b.add_edge(static_cast<TaskId>(level_start[l] + i),
                 static_cast<TaskId>(level_start[l + 1] + i / fanout),
                 w.comm());
    }
  }
  return std::move(b).build();
}

TaskGraph fork_join_graph(std::size_t stages, std::size_t width,
                          const WorkloadParams& params) {
  FLB_REQUIRE(stages >= 1, "fork_join_graph: stages must be positive");
  FLB_REQUIRE(width >= 1, "fork_join_graph: width must be positive");
  detail::WeightDrawer w(params, "fork_join_graph");
  TaskGraphBuilder b;
  b.set_name("ForkJoin(stages=" + std::to_string(stages) +
             ",w=" + std::to_string(width) + ")");

  // Stage: fork task, `width` parallel tasks, join task; the join doubles
  // as the next stage's fork source.
  TaskId prev_join = b.add_task(w.comp());
  for (std::size_t s = 0; s < stages; ++s) {
    std::vector<TaskId> mids(width);
    for (std::size_t i = 0; i < width; ++i) mids[i] = b.add_task(w.comp());
    TaskId join = b.add_task(w.comp());
    for (TaskId mid : mids) {
      b.add_edge(prev_join, mid, w.comm());
      b.add_edge(mid, join, w.comm());
    }
    prev_join = join;
  }
  return std::move(b).build();
}

TaskGraph diamond_graph(std::size_t side, const WorkloadParams& params) {
  FLB_REQUIRE(side >= 1, "diamond_graph: side must be positive");
  detail::WeightDrawer w(params, "diamond_graph");
  TaskGraphBuilder b;
  b.set_name("Diamond(side=" + std::to_string(side) + ")");

  auto id = [side](std::size_t i, std::size_t j) {
    return static_cast<TaskId>(i * side + j);
  };
  for (std::size_t i = 0; i < side * side; ++i) b.add_task(w.comp());
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      if (i > 0) b.add_edge(id(i - 1, j), id(i, j), w.comm());
      if (j > 0) b.add_edge(id(i, j - 1), id(i, j), w.comm());
    }
  }
  return std::move(b).build();
}

TaskGraph chain_graph(std::size_t length, const WorkloadParams& params) {
  FLB_REQUIRE(length >= 1, "chain_graph: length must be positive");
  detail::WeightDrawer w(params, "chain_graph");
  TaskGraphBuilder b;
  b.set_name("Chain(len=" + std::to_string(length) + ")");
  for (std::size_t i = 0; i < length; ++i) b.add_task(w.comp());
  for (std::size_t i = 1; i < length; ++i)
    b.add_edge(static_cast<TaskId>(i - 1), static_cast<TaskId>(i), w.comm());
  return std::move(b).build();
}

TaskGraph independent_graph(std::size_t count, const WorkloadParams& params) {
  FLB_REQUIRE(count >= 1, "independent_graph: count must be positive");
  detail::WeightDrawer w(params, "independent_graph");
  TaskGraphBuilder b;
  b.set_name("Independent(v=" + std::to_string(count) + ")");
  for (std::size_t i = 0; i < count; ++i) b.add_task(w.comp());
  return std::move(b).build();
}

}  // namespace flb
