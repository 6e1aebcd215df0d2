#include <cstddef>
#include <string>
#include <vector>

#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "weight_drawer.hpp"

// Generators for the paper's application workloads: LU, Laplace, Stencil,
// FFT and the Gauss variant. Task ids are assigned in a deterministic
// row-major / stage-major order so that graphs are reproducible and easy to
// cross-check in tests.

namespace flb {

TaskGraph lu_graph(std::size_t n, const WorkloadParams& params) {
  FLB_REQUIRE(n >= 2, "lu_graph: matrix dimension must be at least 2");
  detail::WeightDrawer w(params, "lu_graph");
  TaskGraphBuilder b;
  b.set_name("LU(n=" + std::to_string(n) + ")");

  // Step k in 0..n-2 owns 1 pivot task and n-1-k update tasks. Offset of
  // step k = sum_{i<k} (n - i) = k*n - k(k-1)/2.
  auto offset = [n](std::size_t k) { return k * n - k * (k - 1) / 2; };
  auto pivot = [&](std::size_t k) {
    return static_cast<TaskId>(offset(k));
  };
  auto update = [&](std::size_t k, std::size_t j) {
    return static_cast<TaskId>(offset(k) + (j - k));
  };

  const std::size_t v = n * (n + 1) / 2 - 1;
  for (std::size_t i = 0; i < v; ++i) b.add_task(w.comp());

  for (std::size_t k = 0; k + 1 < n; ++k) {
    for (std::size_t j = k + 1; j < n; ++j)
      b.add_edge(pivot(k), update(k, j), w.comm());
    if (k >= 1) {
      b.add_edge(update(k - 1, k), pivot(k), w.comm());
      for (std::size_t j = k + 1; j < n; ++j)
        b.add_edge(update(k - 1, j), update(k, j), w.comm());
    }
  }
  return std::move(b).build();
}

TaskGraph laplace_graph(std::size_t m, std::size_t iters,
                        const WorkloadParams& params) {
  FLB_REQUIRE(m >= 2, "laplace_graph: grid side must be at least 2");
  FLB_REQUIRE(iters >= 1, "laplace_graph: at least one iteration required");
  detail::WeightDrawer w(params, "laplace_graph");
  TaskGraphBuilder b;
  b.set_name("Laplace(m=" + std::to_string(m) +
             ",iters=" + std::to_string(iters) + ")");

  // Sweep `it` owns m*m point tasks followed by one convergence check.
  const std::size_t sweep_size = m * m + 1;
  auto id = [&](std::size_t it, std::size_t i, std::size_t j) {
    return static_cast<TaskId>(it * sweep_size + i * m + j);
  };
  auto check = [&](std::size_t it) {
    return static_cast<TaskId>(it * sweep_size + m * m);
  };

  for (std::size_t i = 0; i < sweep_size * iters; ++i) b.add_task(w.comp());

  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        if (it > 0) {
          // Data from the previous sweep's neighbours...
          if (i > 0) b.add_edge(id(it - 1, i - 1, j), id(it, i, j), w.comm());
          if (i + 1 < m)
            b.add_edge(id(it - 1, i + 1, j), id(it, i, j), w.comm());
          if (j > 0) b.add_edge(id(it - 1, i, j - 1), id(it, i, j), w.comm());
          if (j + 1 < m)
            b.add_edge(id(it - 1, i, j + 1), id(it, i, j), w.comm());
          // ...plus the continue/stop decision of the previous sweep.
          b.add_edge(check(it - 1), id(it, i, j), w.comm());
        }
        // Every point reports its residual to this sweep's check.
        b.add_edge(id(it, i, j), check(it), w.comm());
      }
    }
  }
  return std::move(b).build();
}

TaskGraph stencil_graph(std::size_t width, std::size_t steps,
                        const WorkloadParams& params) {
  FLB_REQUIRE(width >= 1, "stencil_graph: width must be positive");
  FLB_REQUIRE(steps >= 1, "stencil_graph: steps must be positive");
  detail::WeightDrawer w(params, "stencil_graph");
  TaskGraphBuilder b;
  b.set_name("Stencil(w=" + std::to_string(width) +
             ",steps=" + std::to_string(steps) + ")");

  auto id = [width](std::size_t s, std::size_t i) {
    return static_cast<TaskId>(s * width + i);
  };

  for (std::size_t i = 0; i < width * steps; ++i) b.add_task(w.comp());

  for (std::size_t s = 1; s < steps; ++s) {
    for (std::size_t i = 0; i < width; ++i) {
      if (i > 0) b.add_edge(id(s - 1, i - 1), id(s, i), w.comm());
      b.add_edge(id(s - 1, i), id(s, i), w.comm());
      if (i + 1 < width) b.add_edge(id(s - 1, i + 1), id(s, i), w.comm());
    }
  }
  return std::move(b).build();
}

TaskGraph fft_graph(std::size_t points, const WorkloadParams& params) {
  FLB_REQUIRE(points >= 2 && (points & (points - 1)) == 0,
              "fft_graph: points must be a power of two >= 2");
  detail::WeightDrawer w(params, "fft_graph");
  TaskGraphBuilder b;
  b.set_name("FFT(points=" + std::to_string(points) + ")");

  std::size_t stages = 0;
  for (std::size_t v = points; v > 1; v >>= 1) ++stages;

  auto id = [points](std::size_t s, std::size_t i) {
    return static_cast<TaskId>(s * points + i);
  };

  for (std::size_t i = 0; i < points * (stages + 1); ++i) b.add_task(w.comp());

  for (std::size_t s = 1; s <= stages; ++s) {
    const std::size_t stride = std::size_t{1} << (s - 1);
    for (std::size_t i = 0; i < points; ++i) {
      b.add_edge(id(s - 1, i), id(s, i), w.comm());
      b.add_edge(id(s - 1, i ^ stride), id(s, i), w.comm());
    }
  }
  return std::move(b).build();
}

TaskGraph cholesky_graph(std::size_t tiles, const WorkloadParams& params) {
  FLB_REQUIRE(tiles >= 1, "cholesky_graph: at least one tile required");
  detail::WeightDrawer w(params, "cholesky_graph");
  TaskGraphBuilder b;
  b.set_name("Cholesky(T=" + std::to_string(tiles) + ")");

  const TaskId invalid = kInvalidTask;
  // Task ids per kernel instance, allocated on first use.
  std::vector<TaskId> potrf(tiles, invalid);
  auto tri = [tiles](std::size_t i, std::size_t k) {
    // Index into a lower-triangular (i > k) table.
    return i * tiles + k;
  };
  std::vector<TaskId> trsm(tiles * tiles, invalid);
  std::vector<TaskId> syrk(tiles * tiles, invalid);

  // Allocate every task first (deterministic ids: kernels in step order).
  for (std::size_t k = 0; k < tiles; ++k) {
    potrf[k] = b.add_task(w.comp());
    for (std::size_t i = k + 1; i < tiles; ++i) trsm[tri(i, k)] = b.add_task(w.comp());
    for (std::size_t i = k + 1; i < tiles; ++i) syrk[tri(i, k)] = b.add_task(w.comp());
  }
  // GEMM tasks are created inline during the edge pass; TRSM(i,j) later
  // joins every GEMM(i,j,k) with k < j, collected per (i,j) tile here.
  std::vector<std::vector<TaskId>> gemm_updates(tiles * tiles);

  for (std::size_t k = 0; k < tiles; ++k) {
    // POTRF(k) joins the SYRK updates of column < k on the diagonal tile.
    for (std::size_t j = 0; j < k; ++j)
      b.add_edge(syrk[tri(k, j)], potrf[k], w.comm());
    for (std::size_t i = k + 1; i < tiles; ++i) {
      // TRSM(i,k): needs the factored diagonal and all GEMM updates of
      // tile (i,k).
      b.add_edge(potrf[k], trsm[tri(i, k)], w.comm());
      for (TaskId gm : gemm_updates[tri(i, k)])
        b.add_edge(gm, trsm[tri(i, k)], w.comm());
      // SYRK(i,k): diagonal-tile update from the panel tile.
      b.add_edge(trsm[tri(i, k)], syrk[tri(i, k)], w.comm());
    }
    // GEMM(i,j,k) for k < j < i: off-diagonal trailing updates.
    for (std::size_t i = k + 1; i < tiles; ++i) {
      for (std::size_t j = k + 1; j < i; ++j) {
        TaskId gm = b.add_task(w.comp());
        b.add_edge(trsm[tri(i, k)], gm, w.comm());
        b.add_edge(trsm[tri(j, k)], gm, w.comm());
        gemm_updates[tri(i, j)].push_back(gm);
      }
    }
  }
  return std::move(b).build();
}

TaskGraph gauss_graph(std::size_t n, const WorkloadParams& params) {
  FLB_REQUIRE(n >= 2, "gauss_graph: matrix dimension must be at least 2");
  detail::WeightDrawer w(params, "gauss_graph");
  TaskGraphBuilder b;
  b.set_name("Gauss(n=" + std::to_string(n) + ")");

  auto offset = [n](std::size_t k) { return k * n - k * (k - 1) / 2; };
  auto pivot = [&](std::size_t k) {
    return static_cast<TaskId>(offset(k));
  };
  auto update = [&](std::size_t k, std::size_t j) {
    return static_cast<TaskId>(offset(k) + (j - k));
  };

  const std::size_t v = n * (n + 1) / 2 - 1;
  for (std::size_t i = 0; i < v; ++i) b.add_task(w.comp());

  for (std::size_t k = 0; k + 1 < n; ++k) {
    for (std::size_t j = k + 1; j < n; ++j) {
      // Pivot selection fans out to every row update of the step...
      b.add_edge(pivot(k), update(k, j), w.comm());
      // ...and the next pivot search joins on all of them (partial
      // pivoting scans every updated row).
      if (k + 2 < n) b.add_edge(update(k, j), pivot(k + 1), w.comm());
    }
  }
  return std::move(b).build();
}

}  // namespace flb
