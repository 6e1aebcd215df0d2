// flb_sweep — full-factorial experiment runner producing tidy CSV for
// external analysis (R / pandas / gnuplot): one row per (workload, CCR,
// P, seed, algorithm) cell with makespan, NSL vs MCP, speedup, scheduling
// time and schedule diagnostics.
//
// Usage:
//   flb_sweep > sweep.csv
//   flb_sweep --tasks 2000 --seeds 5 --procs 2,4,8,16,32
//             --ccr 0.2,5 --workloads LU,Laplace,Stencil
//             --algos MCP,ETF,FLB > sweep.csv     (one line)

#include <iostream>
#include <sstream>

#include "flb/sched/metrics.hpp"
#include "flb/sched/schedule_analysis.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flb;
  try {
    CliArgs args(argc, argv);
    const auto tasks = args.get_count<std::size_t>("tasks", 1000);
    const auto seeds = args.get_count<std::size_t>("seeds", 3);
    const std::vector<ProcId> procs =
        args.get_count_list<ProcId>("procs", {2, 4, 8, 16, 32});
    std::vector<double> ccrs = args.get_double_list("ccr", {0.2, 5.0});
    std::vector<std::string> workloads =
        split_list(args.get("workloads", "LU,Laplace,Stencil"));
    std::vector<std::string> algos;
    if (args.has("algos")) {
      algos = split_list(args.get("algos", ""));
    } else {
      algos = extended_scheduler_names();
    }

    std::cout << "workload,ccr,procs,seed,algorithm,tasks,edges,makespan,"
                 "nsl_vs_mcp,speedup,efficiency,imbalance,utilization,"
                 "remote_bound,sched_ms\n";

    for (const std::string& workload : workloads) {
      for (double ccr : ccrs) {
        for (std::size_t seed = 1; seed <= seeds; ++seed) {
          WorkloadParams params;
          params.ccr = ccr;
          params.seed = seed;
          TaskGraph g = make_workload(workload, tasks, params);
          for (ProcId procs_now : procs) {
            Cost mcp_len = 0.0;
            {
              auto mcp = make_scheduler("MCP", seed);
              mcp_len = mcp->run(g, procs_now).makespan();
            }
            for (const std::string& algo : algos) {
              auto sched = make_scheduler(algo, seed);
              Stopwatch sw;
              Schedule s = sched->run(g, procs_now);
              double ms = sw.millis();
              FLB_REQUIRE(is_valid_schedule(g, s),
                          algo + " infeasible on " + g.name());
              UtilizationReport rep = analyze_utilization(g, s);
              std::cout << workload << ',' << format_compact(ccr) << ','
                        << procs_now << ',' << seed << ',' << algo << ','
                        << g.num_tasks() << ',' << g.num_edges() << ','
                        << format_fixed(s.makespan(), 4) << ','
                        << format_fixed(s.makespan() / mcp_len, 4) << ','
                        << format_fixed(speedup(g, s), 4) << ','
                        << format_fixed(efficiency(g, s), 4) << ','
                        << format_fixed(load_imbalance(g, s), 4) << ','
                        << format_fixed(rep.mean_utilization, 4) << ','
                        << format_fixed(rep.remote_data_bound, 4) << ','
                        << format_fixed(ms, 3) << '\n';
            }
          }
        }
      }
    }
    return 0;
  } catch (const flb::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
