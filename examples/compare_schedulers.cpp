// Compare every algorithm in the library (MCP, ETF, DSC-LLB, FCP, FLB) on
// a chosen workload: schedule length, NSL vs MCP, speedup and running time.
//
// Usage (--help lists the workload names):
//   compare_schedulers [--workload NAME] [--tasks 2000] [--procs 8]
//                      [--ccr 1.0] [--seed 1]

#include <iostream>

#include "flb/sched/metrics.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: compare_schedulers [--workload "
              << joined_workload_names("|")
              << "]\n"
                 "                          [--tasks 2000] [--procs 8] "
                 "[--ccr 1.0] [--seed 1]\n";
    return 0;
  }
  const std::string workload = args.get("workload", "LU");
  const auto tasks = args.get_count<std::size_t>("tasks", 2000);
  const auto procs = args.get_count<ProcId>("procs", 8);
  WorkloadParams params;
  params.ccr = args.get_double("ccr", 1.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  TaskGraph g = make_workload(workload, tasks, params);
  std::cout << "Workload " << g.name() << ": " << g.num_tasks() << " tasks, "
            << g.num_edges() << " edges, CCR " << format_fixed(g.ccr(), 2)
            << ", P = " << procs << "\n\n";

  // MCP is the NSL reference, exactly as in the paper's Fig. 4.
  Cost mcp_makespan = 0.0;
  Table table({"algorithm", "makespan", "NSL (vs MCP)", "speedup",
               "time [ms]", "feasible"});
  for (const std::string& name : scheduler_names()) {
    auto sched = make_scheduler(name, params.seed);
    Stopwatch sw;
    Schedule s = sched->run(g, procs);
    double ms = sw.millis();
    if (name == "MCP") mcp_makespan = s.makespan();
    table.add_row({name, format_fixed(s.makespan(), 2),
                   format_fixed(s.makespan() / mcp_makespan, 3),
                   format_fixed(speedup(g, s), 2), format_fixed(ms, 2),
                   is_valid_schedule(g, s) ? "yes" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
