#include "flb/graph/properties.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// Checks that `order` is a valid topological order of g.
void expect_topological(const TaskGraph& g, const std::vector<TaskId>& order) {
  ASSERT_EQ(order.size(), g.num_tasks());
  std::vector<std::size_t> pos(g.num_tasks());
  std::set<TaskId> seen;
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
    EXPECT_TRUE(seen.insert(order[i]).second) << "duplicate in order";
  }
  for (const Edge& e : g.edges())
    EXPECT_LT(pos[e.from], pos[e.to])
        << "edge " << e.from << "->" << e.to << " violated";
}

TEST(TopologicalOrder, ValidOnDiamond) {
  TaskGraph g = test::small_diamond();
  expect_topological(g, topological_order(g));
}

TEST(TopologicalOrder, ValidOnFuzzCorpus) {
  for (std::size_t i = 0; i < 20; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    const std::vector<TaskId> order = topological_order(g);
    expect_topological(g, order);
    const std::span<const TaskId> stored = g.topological_order();
    EXPECT_TRUE(std::equal(order.begin(), order.end(), stored.begin(),
                           stored.end()));
  }
}

TEST(TopologicalOrder, EmptyGraph) {
  TaskGraphBuilder b;
  TaskGraph g = std::move(b).build();
  EXPECT_TRUE(topological_order(g).empty());
}

TEST(BottomLevels, HandComputedDiamond) {
  TaskGraph g = test::small_diamond();
  auto bl = bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[3], 1.0);  // d
  EXPECT_DOUBLE_EQ(bl[1], 5.0);  // b: 3 + 1 + 1
  EXPECT_DOUBLE_EQ(bl[2], 6.0);  // c: 2 + 3 + 1
  EXPECT_DOUBLE_EQ(bl[0], 8.0);  // a: 1 + max(2+5, 1+6)
}

TEST(BottomLevels, PaperExampleMatchesTable1) {
  TaskGraph g = paper_example_graph();
  auto bl = bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[0], 15.0);
  EXPECT_DOUBLE_EQ(bl[1], 11.0);
  EXPECT_DOUBLE_EQ(bl[2], 9.0);
  EXPECT_DOUBLE_EQ(bl[3], 12.0);
  EXPECT_DOUBLE_EQ(bl[4], 6.0);
  EXPECT_DOUBLE_EQ(bl[5], 8.0);
  EXPECT_DOUBLE_EQ(bl[6], 6.0);
  EXPECT_DOUBLE_EQ(bl[7], 2.0);
}

TEST(BottomLevels, ComputationOnlyVariantIgnoresComm) {
  TaskGraph g = test::small_diamond();
  auto bl = computation_bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[3], 1.0);
  EXPECT_DOUBLE_EQ(bl[1], 4.0);
  EXPECT_DOUBLE_EQ(bl[2], 3.0);
  EXPECT_DOUBLE_EQ(bl[0], 5.0);
}

TEST(BottomLevels, ExitTaskEqualsOwnComp) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto bl = bottom_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (g.is_exit(t)) EXPECT_DOUBLE_EQ(bl[t], g.comp(t));
  }
}

TEST(BottomLevels, MonotoneAlongEdges) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto bl = bottom_levels(g);
    for (const Edge& e : g.edges())
      EXPECT_GE(bl[e.from], g.comp(e.from) + e.comm + bl[e.to] - 1e-12);
  }
}

// BL(t) computed by memoised recursion over successors, independent of
// any topological order.
Cost reference_bottom_level(const TaskGraph& g, TaskId t,
                            std::vector<Cost>& memo) {
  if (memo[t] >= 0.0) return memo[t];
  Cost best = 0.0;
  for (const Adj& a : g.successors(t))
    best = std::max(best, reference_bottom_level(g, a.node, memo) + a.comm);
  return memo[t] = g.comp(t) + best;
}

// Both flavours, bit for bit against the recursive reference.
void expect_bottom_levels_match_reference(const TaskGraph& g) {
  std::vector<Cost> memo(g.num_tasks(), -1.0);
  const std::vector<Cost> vec = bottom_levels(g);
  std::vector<Cost> into(g.num_tasks(), -1.0);
  bottom_levels_into(g, into);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto expected =
        std::bit_cast<std::uint64_t>(reference_bottom_level(g, t, memo));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vec[t]), expected)
        << g.name() << " task " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(into[t]), expected)
        << g.name() << " task " << t;
  }
}

TEST(BottomLevels, MatchRecursiveReferenceOnEveryFamily) {
  for (const std::string& name : workload_names())
    expect_bottom_levels_match_reference(make_workload(name, 300));
}

TEST(BottomLevels, MatchRecursiveReferenceWithDescendingEdges) {
  TaskGraph g = test::descending_graph();
  expect_bottom_levels_match_reference(g);
  EXPECT_DOUBLE_EQ(bottom_levels(g)[2], 3.0 + 5.0 + 2.0 + 4.0 + 1.0);
}

TEST(TopLevels, HandComputedDiamond) {
  TaskGraph g = test::small_diamond();
  auto tl = top_levels(g);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 3.0);  // 0 + 1 + 2
  EXPECT_DOUBLE_EQ(tl[2], 2.0);  // 0 + 1 + 1
  EXPECT_DOUBLE_EQ(tl[3], 7.0);  // max(3+3+1, 2+2+3)
}

TEST(TopLevels, EntryTasksAreZero) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto tl = top_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (g.is_entry(t)) EXPECT_DOUBLE_EQ(tl[t], 0.0);
  }
}

TEST(CriticalPath, DiamondAndPaperExample) {
  EXPECT_DOUBLE_EQ(critical_path(test::small_diamond()), 8.0);
  EXPECT_DOUBLE_EQ(critical_path(paper_example_graph()), 15.0);
}

TEST(CriticalPath, EqualsMaxTlPlusBl) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto tl = top_levels(g);
    auto bl = bottom_levels(g);
    Cost best = 0.0;
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      best = std::max(best, tl[t] + bl[t]);
    EXPECT_NEAR(critical_path(g), best, 1e-9);
  }
}

TEST(CriticalPath, ComputationVariantIsAtMostFull) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    EXPECT_LE(computation_critical_path(g), critical_path(g) + 1e-12);
  }
}

TEST(CriticalPath, ChainIsSumOfEverything) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 2.0;
  TaskGraph g = chain_graph(5, p);
  // 5 comps of 1 plus 4 comms of 2.
  EXPECT_DOUBLE_EQ(critical_path(g), 5.0 + 8.0);
  EXPECT_DOUBLE_EQ(computation_critical_path(g), 5.0);
}

TEST(Alap, DiamondValues) {
  TaskGraph g = test::small_diamond();
  auto alap = alap_times(g);
  EXPECT_DOUBLE_EQ(alap[0], 0.0);
  EXPECT_DOUBLE_EQ(alap[1], 3.0);
  EXPECT_DOUBLE_EQ(alap[2], 2.0);
  EXPECT_DOUBLE_EQ(alap[3], 7.0);
}

TEST(Alap, NonNegativeAndMonotoneAlongEdges) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto alap = alap_times(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t) EXPECT_GE(alap[t], -1e-9);
    for (const Edge& e : g.edges())
      EXPECT_LT(alap[e.from], alap[e.to] + 1e-9);
  }
}

TEST(DepthLevels, DiamondDepths) {
  TaskGraph g = test::small_diamond();
  auto depth = depth_levels(g);
  EXPECT_EQ(depth[0], 0u);
  EXPECT_EQ(depth[1], 1u);
  EXPECT_EQ(depth[2], 1u);
  EXPECT_EQ(depth[3], 2u);
}

TEST(LevelDecomposition, PartitionsAllTasks) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto levels = level_decomposition(g);
    std::size_t total = 0;
    for (const auto& level : levels) {
      EXPECT_FALSE(level.empty());
      total += level.size();
    }
    EXPECT_EQ(total, g.num_tasks());
  }
}

TEST(LevelDecomposition, StencilLevelsAreTimeSteps) {
  WorkloadParams p;
  p.random_weights = false;
  TaskGraph g = stencil_graph(7, 5, p);
  auto levels = level_decomposition(g);
  ASSERT_EQ(levels.size(), 5u);
  for (const auto& level : levels) EXPECT_EQ(level.size(), 7u);
  EXPECT_EQ(max_level_width(g), 7u);
}

TEST(MaxLevelWidth, IndependentTasksAreOneLevel) {
  TaskGraph g = independent_graph(12);
  EXPECT_EQ(max_level_width(g), 12u);
}

}  // namespace
}  // namespace flb
