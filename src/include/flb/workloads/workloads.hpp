#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flb/graph/task_graph.hpp"

/// \file workloads.hpp
/// Task-graph generators for the paper's experiments and the test suite.
///
/// The paper evaluates on LU decomposition, a Laplace equation solver and a
/// stencil algorithm (Section 6), each sized to about V = 2000 tasks, with
/// CCR in {0.2, 5.0} and execution times / communication delays drawn
/// i.i.d. from a uniform distribution; the Fig. 3 discussion additionally
/// references an FFT workload. This module generates those graphs plus a
/// set of synthetic families (random layered DAGs, trees, fork-join,
/// diamond, chain, independent tasks) used for unit, property and ablation
/// testing.
///
/// Weight model: computation costs are uniform on [0, 2] (mean 1) and
/// communication costs uniform on [0, 2*CCR] (mean CCR), so the expected
/// communication-to-computation ratio equals the requested CCR. With
/// `random_weights = false`, costs are deterministic (comp = 1,
/// comm = CCR) — useful for closed-form structural tests.

namespace flb {

/// Weight parameters common to every generator.
struct WorkloadParams {
  Cost ccr = 1.0;              ///< target communication-to-computation ratio
  std::uint64_t seed = 1;      ///< RNG seed for the weight draws
  bool random_weights = true;  ///< false => comp = 1 and comm = ccr exactly
};

/// Throws flb::Error unless `params.ccr` is finite and non-negative. The
/// message starts with `who` and quotes the bad value, e.g.
/// "make_workload: ccr must be finite and non-negative, got nan". Every
/// generator, make_workload and read_stg call it before drawing a weight.
void require_valid_params(const WorkloadParams& params, const char* who);

// --- The paper's application workloads ------------------------------------

/// LU decomposition of an n x n matrix (column-oriented, no pivot search
/// parallelism): for each elimination step k there is one pivot task and
/// n-1-k column-update tasks; update (k, j) depends on pivot k and on
/// update (k-1, j), pivot k on update (k-1, k).
/// V = n(n+1)/2 - 1. Requires n >= 2.
TaskGraph lu_graph(std::size_t n, const WorkloadParams& params = {});

/// Jacobi-style Laplace equation solver on an m x m grid over `iters`
/// sweeps, Hypertool-style: point (it, i, j) depends on the previous
/// sweep's four direct neighbours (two or three at boundaries/corners) and
/// on the previous sweep's convergence-check task, which joins all m*m
/// points of its sweep. These per-sweep gather/scatter joins are why the
/// paper groups Laplace with LU as join-heavy ("there are a large number
/// of join operations", Section 6.2). The final check is the single exit.
/// V = (m * m + 1) * iters. Requires m >= 2, iters >= 1.
TaskGraph laplace_graph(std::size_t m, std::size_t iters,
                        const WorkloadParams& params = {});

/// One-dimensional 3-point stencil: cell (s, i) depends on cells
/// (s-1, i-1), (s-1, i), (s-1, i+1). V = width * steps.
/// Requires width >= 1, steps >= 1.
TaskGraph stencil_graph(std::size_t width, std::size_t steps,
                        const WorkloadParams& params = {});

/// FFT butterfly: `points` inputs (a power of two) through log2(points)
/// butterfly stages; task (s, i) depends on (s-1, i) and
/// (s-1, i XOR 2^(s-1)). V = points * (log2(points) + 1).
TaskGraph fft_graph(std::size_t points, const WorkloadParams& params = {});

/// Tiled right-looking Cholesky factorization on a T x T tile grid, the
/// canonical irregular dense-linear-algebra DAG: POTRF(k) factors the
/// diagonal tile (joining all prior SYRK updates to it), TRSM(i,k) solves
/// panel tiles (joining POTRF(k) and prior GEMM updates), SYRK(i,k) and
/// GEMM(i,j,k) apply trailing updates. V = T + T(T-1) + sum_k C(T-1-k, 2)
/// ~ T^3/6. Requires tiles >= 1.
TaskGraph cholesky_graph(std::size_t tiles, const WorkloadParams& params = {});

/// Gaussian elimination with partial pivoting on an n x n matrix: per step
/// a pivot-selection task fans out to all row updates of the step, and the
/// next pivot selection joins on *all* of them (pivot search scans every
/// updated row). V = n(n+1)/2 - 1, same count as lu_graph but markedly
/// fork-join heavier. Requires n >= 2.
TaskGraph gauss_graph(std::size_t n, const WorkloadParams& params = {});

// --- Synthetic families for tests and ablations ----------------------------

/// Random layered DAG: `layers` layers of `width` tasks; each task draws
/// each possible edge from the previous layer with probability
/// `edge_prob`, and every task is guaranteed at least one parent in the
/// previous layer (so depth is exactly `layers`).
TaskGraph random_layered_graph(std::size_t layers, std::size_t width,
                               double edge_prob,
                               const WorkloadParams& params = {});

/// Random DAG over `tasks` nodes: each pair (i, j), i < j, is an edge with
/// probability `edge_prob` (ids form a topological order). Unstructured
/// fuzzing workload.
TaskGraph random_dag(std::size_t tasks, double edge_prob,
                     const WorkloadParams& params = {});

/// Random series-parallel DAG grown by recursive composition: starting
/// from a single edge, repeatedly replace a uniformly chosen edge by
/// either a series split (u -> new -> v) or a parallel branch (a second
/// u -> new -> v path), until about `target_tasks` tasks exist. Series-
/// parallel graphs are the classic structured counterpoint to the layered
/// random family (nested fork-joins at every scale, no cross edges).
TaskGraph series_parallel_graph(std::size_t target_tasks,
                                double parallel_prob = 0.5,
                                const WorkloadParams& params = {});

/// Complete out-tree (fork): `depth` levels with branching `fanout`.
TaskGraph out_tree_graph(std::size_t depth, std::size_t fanout,
                         const WorkloadParams& params = {});

/// Complete in-tree (join): mirror of out_tree_graph.
TaskGraph in_tree_graph(std::size_t depth, std::size_t fanout,
                        const WorkloadParams& params = {});

/// Fork-join chain: `stages` repetitions of 1 -> `width` -> 1.
TaskGraph fork_join_graph(std::size_t stages, std::size_t width,
                          const WorkloadParams& params = {});

/// Diamond lattice of side `side` (the classic wavefront mesh): task
/// (i, j) depends on (i-1, j) and (i, j-1). V = side * side.
TaskGraph diamond_graph(std::size_t side, const WorkloadParams& params = {});

/// Simple chain of `length` tasks.
TaskGraph chain_graph(std::size_t length, const WorkloadParams& params = {});

/// `count` independent tasks (no edges).
TaskGraph independent_graph(std::size_t count,
                            const WorkloadParams& params = {});

// --- Weight perturbation (robustness studies) -------------------------------

/// A copy of g whose computation and communication costs are multiplied by
/// independent uniform factors in [1 - spread, 1 + spread] (spread in
/// [0, 1)). Structure and task ids are untouched. Used to study how
/// schedules computed from nominal weights behave when the actual runtime
/// costs differ (bench_robustness): re-execute the nominal schedule's
/// dispatch order on the perturbed graph via flb::simulate.
TaskGraph perturb_weights(const TaskGraph& g, double spread,
                          std::uint64_t seed);

// --- Factory used by the benchmark harness ---------------------------------

/// Names accepted by make_workload: "LU", "Laplace", "Stencil", "FFT",
/// "Gauss", "Cholesky", "Random".
std::vector<std::string> workload_names();

/// workload_names() joined by `separator`, for usage text and errors.
std::string joined_workload_names(const std::string& separator);

/// Build the named workload sized to approximately `target_tasks` tasks
/// (the paper's V ~ 2000), choosing the structural parameters internally.
/// Throws flb::Error for unknown names; the message lists the valid ones.
TaskGraph make_workload(const std::string& name, std::size_t target_tasks,
                        const WorkloadParams& params = {});

}  // namespace flb
