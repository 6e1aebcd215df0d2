#pragma once

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

/// \file bench_common.hpp
/// Shared configuration and measurement helpers for the figure-regenerating
/// benchmark binaries. Every binary accepts:
///   --tasks N        target graph size (paper: 2000)
///   --seeds K        random instances per configuration (paper: 5)
///   --procs a,b,...  processor counts
///   --ccr a,b,...    CCR values (paper: 0.2, 5.0)
///   --csv            emit CSV instead of an aligned table

namespace flb::bench {

struct Config {
  std::size_t tasks = 2000;
  std::size_t seeds = 5;
  std::vector<ProcId> procs = {2, 4, 8, 16, 32};
  std::vector<double> ccrs = {0.2, 5.0};
  std::vector<std::string> workloads = {"LU", "Laplace", "Stencil"};
  bool csv = false;
};

inline Config parse_config(int argc, char** argv) {
  CliArgs args(argc, argv);
  Config cfg;
  cfg.tasks = args.get_count("tasks", cfg.tasks);
  cfg.seeds = args.get_count("seeds", cfg.seeds);
  cfg.procs = args.get_count_list("procs", cfg.procs);
  cfg.ccrs = args.get_double_list("ccr", cfg.ccrs);
  cfg.csv = args.has("csv");
  return cfg;
}

inline void emit(const Table& table, const Config& cfg) {
  if (cfg.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// One timed, validated scheduling run.
struct RunResult {
  Cost makespan = 0.0;
  double millis = 0.0;
};

inline RunResult run_once(Scheduler& sched, const TaskGraph& g,
                          ProcId procs) {
  Stopwatch sw;
  Schedule s = sched.run(g, procs);
  RunResult r{s.makespan(), sw.millis()};
  FLB_REQUIRE(is_valid_schedule(g, s),
              sched.name() + " produced an infeasible schedule on " +
                  g.name());
  return r;
}

/// Arithmetic mean.
inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Sample standard deviation (0 for fewer than two samples).
inline double stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = mean(v);
  double sq = 0.0;
  for (double x : v) sq += (x - m) * (x - m);
  return std::sqrt(sq / static_cast<double>(v.size() - 1));
}

}  // namespace flb::bench
