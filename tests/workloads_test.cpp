#include "flb/workloads/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "flb/graph/properties.hpp"
#include "flb/graph/serialize.hpp"
#include "flb/graph/stg.hpp"
#include "flb/util/error.hpp"

namespace flb {
namespace {

// --- LU ----------------------------------------------------------------------

TEST(LuGraph, TaskCountFormula) {
  for (std::size_t n : {2, 3, 5, 10, 62}) {
    TaskGraph g = lu_graph(n);
    EXPECT_EQ(g.num_tasks(), n * (n + 1) / 2 - 1) << "n=" << n;
  }
}

TEST(LuGraph, SmallestInstanceShape) {
  // n=2: pivot + one update, one edge.
  TaskGraph g = lu_graph(2);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.is_entry(0));
  EXPECT_TRUE(g.is_exit(1));
}

TEST(LuGraph, SingleEntrySingleExit) {
  TaskGraph g = lu_graph(8);
  EXPECT_EQ(g.entry_tasks().size(), 1u);   // first pivot
  EXPECT_EQ(g.exit_tasks().size(), 1u);    // last update
}

TEST(LuGraph, DepthGrowsLinearly) {
  // Each elimination step adds pivot + update to the longest chain.
  TaskGraph g = lu_graph(6);
  auto levels = level_decomposition(g);
  EXPECT_EQ(levels.size(), 2u * (6 - 1));  // alternating pivot/update waves
}

TEST(LuGraph, RejectsTooSmall) {
  EXPECT_THROW(lu_graph(1), Error);
}

// --- Laplace -------------------------------------------------------------------

TEST(LaplaceGraph, TaskCountFormula) {
  EXPECT_EQ(laplace_graph(4, 3).num_tasks(), 51u);    // 3 * (16 + 1)
  EXPECT_EQ(laplace_graph(14, 10).num_tasks(), 1970u);
}

TEST(LaplaceGraph, InteriorPointHasFourNeighboursPlusCheck) {
  TaskGraph g = laplace_graph(5, 2);
  // Point (it=1, i=2, j=2) is interior: 4 neighbours + previous check.
  TaskId t = 1 * 26 + 2 * 5 + 2;
  EXPECT_EQ(g.in_degree(t), 5u);
}

TEST(LaplaceGraph, CornerPointHasTwoNeighboursPlusCheck) {
  TaskGraph g = laplace_graph(5, 2);
  TaskId corner = 1 * 26 + 0;
  EXPECT_EQ(g.in_degree(corner), 3u);
}

TEST(LaplaceGraph, CheckJoinsWholeSweep) {
  TaskGraph g = laplace_graph(4, 3);
  // Sweep 1's check is task 1*17 + 16; it joins all 16 points of sweep 1.
  TaskId check = 1 * 17 + 16;
  EXPECT_EQ(g.in_degree(check), 16u);
  // It fans out to all 16 points of sweep 2.
  EXPECT_EQ(g.out_degree(check), 16u);
}

TEST(LaplaceGraph, FirstSweepPointsAreEntriesFinalCheckIsOnlyExit) {
  TaskGraph g = laplace_graph(4, 3);
  for (TaskId t = 0; t < 16; ++t) EXPECT_TRUE(g.is_entry(t));
  EXPECT_EQ(g.entry_tasks().size(), 16u);
  EXPECT_EQ(g.exit_tasks(), (std::vector<TaskId>{3 * 17 - 1}));
}

TEST(LaplaceGraph, DepthIsTwoPerIteration) {
  TaskGraph g = laplace_graph(4, 7);
  // points, check, points, check, ... -> 2 * iters levels.
  EXPECT_EQ(level_decomposition(g).size(), 14u);
}

TEST(LaplaceGraph, RejectsDegenerate) {
  EXPECT_THROW(laplace_graph(1, 3), Error);
  EXPECT_THROW(laplace_graph(4, 0), Error);
}

// --- Stencil --------------------------------------------------------------------

TEST(StencilGraph, TaskCountAndEdges) {
  TaskGraph g = stencil_graph(5, 4);
  EXPECT_EQ(g.num_tasks(), 20u);
  // Per later step: 3 edges per interior cell, 2 per border cell.
  // width=5: 3*3 + 2*2 = 13 per step, 3 steps with parents.
  EXPECT_EQ(g.num_edges(), 39u);
}

TEST(StencilGraph, MiddleCellDependsOnThreeNeighbours) {
  TaskGraph g = stencil_graph(5, 3);
  TaskId t = 1 * 5 + 2;
  auto preds = g.predecessors(t);
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_EQ(preds[0].node, 1u);
  EXPECT_EQ(preds[1].node, 2u);
  EXPECT_EQ(preds[2].node, 3u);
}

TEST(StencilGraph, WidthOneDegeneratesToChain) {
  TaskGraph g = stencil_graph(1, 6);
  EXPECT_EQ(g.num_tasks(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(level_decomposition(g).size(), 6u);
}

// --- FFT -----------------------------------------------------------------------

TEST(FftGraph, TaskCountFormula) {
  EXPECT_EQ(fft_graph(2).num_tasks(), 4u);    // 2 * (1+1)
  EXPECT_EQ(fft_graph(8).num_tasks(), 32u);   // 8 * (3+1)
  EXPECT_EQ(fft_graph(256).num_tasks(), 2304u);
}

TEST(FftGraph, EveryNonInputHasTwoParents) {
  TaskGraph g = fft_graph(8);
  for (TaskId t = 8; t < g.num_tasks(); ++t)
    EXPECT_EQ(g.in_degree(t), 2u) << "task " << t;
}

TEST(FftGraph, ButterflyPartners) {
  TaskGraph g = fft_graph(4);
  // Stage 1, index 0 depends on stage-0 indices 0 and 1.
  auto preds = g.predecessors(4);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].node, 0u);
  EXPECT_EQ(preds[1].node, 1u);
  // Stage 2, index 0 depends on stage-1 indices 0 and 2.
  auto preds2 = g.predecessors(8);
  ASSERT_EQ(preds2.size(), 2u);
  EXPECT_EQ(preds2[0].node, 4u);
  EXPECT_EQ(preds2[1].node, 6u);
}

TEST(FftGraph, RejectsNonPowerOfTwo) {
  EXPECT_THROW(fft_graph(6), Error);
  EXPECT_THROW(fft_graph(1), Error);
  EXPECT_THROW(fft_graph(0), Error);
}

// --- Gauss ----------------------------------------------------------------------

TEST(GaussGraph, SameCountAsLuButJoinHeavier) {
  TaskGraph lu = lu_graph(10);
  TaskGraph gauss = gauss_graph(10);
  EXPECT_EQ(gauss.num_tasks(), lu.num_tasks());
  // Gauss pivots join on all previous updates: max in-degree larger.
  std::size_t max_in_lu = 0, max_in_gauss = 0;
  for (TaskId t = 0; t < lu.num_tasks(); ++t)
    max_in_lu = std::max(max_in_lu, lu.in_degree(t));
  for (TaskId t = 0; t < gauss.num_tasks(); ++t)
    max_in_gauss = std::max(max_in_gauss, gauss.in_degree(t));
  EXPECT_GT(max_in_gauss, max_in_lu);
}

TEST(GaussGraph, SecondPivotJoinsOnAllFirstUpdates) {
  TaskGraph g = gauss_graph(5);
  // Step 0: pivot id 0, updates ids 1..4; step-1 pivot id 5.
  EXPECT_EQ(g.in_degree(5), 4u);
}

// --- Cholesky --------------------------------------------------------------------

TEST(CholeskyGraph, TaskCountFormula) {
  // V(T) = T (POTRF) + T(T-1) (TRSM+SYRK) + C(T,3) (GEMM).
  EXPECT_EQ(cholesky_graph(1).num_tasks(), 1u);
  EXPECT_EQ(cholesky_graph(2).num_tasks(), 4u);
  EXPECT_EQ(cholesky_graph(3).num_tasks(), 10u);
  EXPECT_EQ(cholesky_graph(5).num_tasks(), 35u);  // 5 + 20 + 10
}

TEST(CholeskyGraph, SingleEntryAndExit) {
  TaskGraph g = cholesky_graph(5);
  EXPECT_EQ(g.entry_tasks().size(), 1u);  // POTRF(0)
  EXPECT_EQ(g.exit_tasks().size(), 1u);   // POTRF(T-1)
}

TEST(CholeskyGraph, TwoTileStructure) {
  // T=2: POTRF(0) -> TRSM(1,0) -> SYRK(1,0) -> POTRF(1).
  TaskGraph g = cholesky_graph(2);
  ASSERT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(level_decomposition(g).size(), 4u);
}

TEST(CholeskyGraph, PotrfJoinsAllDiagonalUpdates) {
  // POTRF(k) has exactly k SYRK predecessors.
  TaskGraph g = cholesky_graph(6);
  // POTRF ids: allocated first per step; step k offset needs care, so use
  // a structural property instead: max in-degree among all tasks equals
  // T-1 (the last POTRF joins T-1 SYRKs... GEMM-rich TRSMs can exceed it;
  // check the last exit task directly).
  TaskId last = g.exit_tasks().front();
  EXPECT_EQ(g.in_degree(last), 5u);
}

TEST(CholeskyGraph, DepthGrowsLinearlyInTiles) {
  // Critical chain: POTRF -> TRSM -> SYRK -> POTRF -> ... = 3 per step.
  TaskGraph g = cholesky_graph(4);
  EXPECT_EQ(level_decomposition(g).size(), 3u * 3u + 1u);
}

TEST(CholeskyGraph, SchedulableAndIrregular) {
  WorkloadParams p;
  p.seed = 6;
  p.ccr = 1.0;
  TaskGraph g = make_workload("Cholesky", 2000, p);
  EXPECT_NEAR(static_cast<double>(g.num_tasks()), 2000.0, 300.0);
  // Width shrinks toward the end of the factorization: max level width is
  // far below V/depth-average-free parallelism of regular graphs.
  EXPECT_GT(max_level_width(g), 10u);
}

// --- Synthetic families -----------------------------------------------------------

TEST(RandomLayered, EveryLaterTaskHasAParent) {
  TaskGraph g = random_layered_graph(6, 8, 0.1);
  for (TaskId t = 8; t < g.num_tasks(); ++t)
    EXPECT_GE(g.in_degree(t), 1u);
  EXPECT_EQ(level_decomposition(g).size(), 6u);
}

TEST(RandomLayered, ZeroProbStillConnected) {
  TaskGraph g = random_layered_graph(4, 5, 0.0);
  for (TaskId t = 5; t < g.num_tasks(); ++t)
    EXPECT_EQ(g.in_degree(t), 1u);
}

TEST(RandomLayered, FullProbIsCompleteBipartite) {
  TaskGraph g = random_layered_graph(3, 4, 1.0);
  EXPECT_EQ(g.num_edges(), 2u * 16u);
}

TEST(RandomDag, EdgeCountScalesWithProbability) {
  WorkloadParams p;
  p.seed = 5;
  TaskGraph sparse = random_dag(60, 0.05, p);
  TaskGraph dense = random_dag(60, 0.5, p);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
  // Dense: expect near 0.5 * C(60,2) = 885.
  EXPECT_NEAR(static_cast<double>(dense.num_edges()), 885.0, 150.0);
}

TEST(Trees, NodeCounts) {
  EXPECT_EQ(out_tree_graph(3, 2).num_tasks(), 7u);
  EXPECT_EQ(in_tree_graph(3, 2).num_tasks(), 7u);
  EXPECT_EQ(out_tree_graph(1, 5).num_tasks(), 1u);
}

TEST(Trees, OutTreeDegrees) {
  TaskGraph g = out_tree_graph(3, 2);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  for (TaskId t = 1; t < g.num_tasks(); ++t) EXPECT_EQ(g.in_degree(t), 1u);
}

TEST(Trees, InTreeMirrorsOutTree) {
  TaskGraph g = in_tree_graph(3, 2);
  // Root is the last task.
  TaskId root = g.num_tasks() - 1;
  EXPECT_EQ(g.in_degree(root), 2u);
  EXPECT_EQ(g.out_degree(root), 0u);
  for (TaskId t = 0; t < 4; ++t) EXPECT_TRUE(g.is_entry(t));
}

TEST(ForkJoin, StructureAndCounts) {
  TaskGraph g = fork_join_graph(2, 3);
  // 1 + 2 * (3 + 1) = 9 tasks.
  EXPECT_EQ(g.num_tasks(), 9u);
  EXPECT_EQ(g.out_degree(0), 3u);
  EXPECT_EQ(g.in_degree(4), 3u);  // first join
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
}

TEST(Diamond, WavefrontDegrees) {
  TaskGraph g = diamond_graph(3);
  EXPECT_EQ(g.num_tasks(), 9u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.in_degree(4), 2u);  // interior (1,1)
  EXPECT_EQ(g.in_degree(8), 2u);  // sink corner
}

TEST(ChainAndIndependent, Shapes) {
  TaskGraph chain = chain_graph(4);
  EXPECT_EQ(chain.num_edges(), 3u);
  TaskGraph ind = independent_graph(4);
  EXPECT_EQ(ind.num_edges(), 0u);
  for (TaskId t = 0; t < 4; ++t) {
    EXPECT_TRUE(ind.is_entry(t));
    EXPECT_TRUE(ind.is_exit(t));
  }
}

// --- Weight model -----------------------------------------------------------------

TEST(Weights, DeterministicModeIsExact) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 3.0;
  TaskGraph g = stencil_graph(4, 4, p);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_DOUBLE_EQ(g.comp(t), 1.0);
  for (const Edge& e : g.edges()) EXPECT_DOUBLE_EQ(e.comm, 3.0);
  EXPECT_DOUBLE_EQ(g.ccr(), 3.0);
}

TEST(Weights, SameSeedSameGraph) {
  WorkloadParams p;
  p.seed = 123;
  p.ccr = 2.0;
  EXPECT_EQ(to_text(lu_graph(10, p)), to_text(lu_graph(10, p)));
}

TEST(Weights, DifferentSeedsDifferentWeights) {
  WorkloadParams a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(to_text(lu_graph(10, a)), to_text(lu_graph(10, b)));
}

TEST(Weights, AchievedCcrNearTarget) {
  for (double target : {0.2, 1.0, 5.0}) {
    WorkloadParams p;
    p.ccr = target;
    p.seed = 7;
    TaskGraph g = laplace_graph(14, 10, p);
    EXPECT_NEAR(g.ccr(), target, 0.15 * target + 0.01) << "ccr " << target;
  }
}

TEST(Weights, CompMeanNearOne) {
  WorkloadParams p;
  p.seed = 8;
  TaskGraph g = stencil_graph(45, 44, p);
  double mean = g.total_comp() / g.num_tasks();
  EXPECT_NEAR(mean, 1.0, 0.05);
}

// A bad CCR is reported as a bad CCR, naming the entry point and the value,
// whether or not the weights are drawn (deterministic mode used to pass a
// NaN straight into the edge weights).
TEST(Weights, RejectsNonFiniteOrNegativeCcr) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    double ccr;
    const char* shown;
  };
  const Row rows[] = {{nan, "got nan"}, {-1.0, "got -1"}, {inf, "got inf"},
                      {-inf, "got -inf"}, {-1e-9, "got -1e-09"}};
  const std::pair<const char*, std::function<TaskGraph(const WorkloadParams&)>>
      entries[] = {
          {"make_workload",
           [](const WorkloadParams& p) { return make_workload("LU", 50, p); }},
          {"lu_graph", [](const WorkloadParams& p) { return lu_graph(5, p); }},
          {"stencil_graph",
           [](const WorkloadParams& p) { return stencil_graph(3, 3, p); }},
          {"random_dag",
           [](const WorkloadParams& p) { return random_dag(10, 0.3, p); }},
          {"chain_graph",
           [](const WorkloadParams& p) { return chain_graph(4, p); }},
          {"read_stg", [](const WorkloadParams& p) {
             return stg_from_text("2\n0 0 0\n1 1 1 0\n2 1 1 1\n3 0 1 2\n",
                                  p);
           }},
      };
  for (const Row& row : rows)
    for (bool random : {true, false})
      for (const auto& [who, make] : entries) {
        WorkloadParams p;
        p.ccr = row.ccr;
        p.random_weights = random;
        std::string msg;
        try {
          (void)make(p);
        } catch (const Error& e) {
          msg = e.what();
        }
        const std::string want =
            std::string(who) + ": ccr must be finite and non-negative, " +
            row.shown;
        EXPECT_NE(msg.find(want), std::string::npos)
            << who << " random=" << random << " got: " << msg;
      }
  // The boundary is allowed: CCR 0 means free communication.
  WorkloadParams zero;
  zero.ccr = 0.0;
  EXPECT_EQ(make_workload("Stencil", 50, zero).total_comm(), 0.0);
}

// --- Factory ----------------------------------------------------------------------

class FactoryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FactoryTest, HitsTargetSizeWithinTolerance) {
  for (std::size_t target : {500u, 2000u}) {
    TaskGraph g = make_workload(GetParam(), target);
    double rel = std::abs(static_cast<double>(g.num_tasks()) -
                          static_cast<double>(target)) /
                 static_cast<double>(target);
    EXPECT_LT(rel, 0.35) << GetParam() << " target " << target << " got "
                         << g.num_tasks();
    EXPECT_FALSE(g.name().empty());
  }
}

TEST_P(FactoryTest, RespectsCcrParameter) {
  WorkloadParams p;
  p.ccr = 5.0;
  p.seed = 3;
  TaskGraph g = make_workload(GetParam(), 2000, p);
  EXPECT_NEAR(g.ccr(), 5.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FactoryTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n;
                         });

TEST(Factory, RejectsUnknownName) {
  EXPECT_THROW(make_workload("NotAWorkload", 2000), Error);
}

TEST(Factory, UnknownNameErrorListsEveryFamily) {
  try {
    (void)make_workload("Foo", 2000);
    FAIL() << "make_workload accepted 'Foo'";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'Foo'"), std::string::npos) << msg;
    for (const std::string& name : workload_names())
      EXPECT_NE(msg.find(name), std::string::npos) << name << ": " << msg;
  }
}

TEST(Factory, RejectsTinyTarget) {
  EXPECT_THROW(make_workload("LU", 2), Error);
}

TEST(Factory, PaperScaleSizes) {
  // The paper's V ~ 2000 configurations.
  EXPECT_NEAR(static_cast<double>(make_workload("LU", 2000).num_tasks()),
              2000.0, 120.0);
  EXPECT_EQ(make_workload("Laplace", 2000).num_tasks(), 1970u);
  EXPECT_EQ(make_workload("FFT", 2000).num_tasks(), 2304u);
}

}  // namespace
}  // namespace flb
