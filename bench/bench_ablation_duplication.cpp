// Duplication ablation: the paper's introduction motivates restricting
// attention to non-duplicating heuristics — "Duplicating tasks results in
// better scheduling performance but significantly increases scheduling
// cost." This bench quantifies both halves of that sentence: the DSH-style
// duplication scheduler (DUP) against the paper's algorithms, reporting
// schedule length (NSL vs MCP), duplication volume, and scheduling time.

#include <map>

#include "bench_common.hpp"
#include "flb/algos/duplication.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = args.get_count<ProcId>("at-procs", 8);

  std::cout << "Duplication ablation at P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds << " seeds)\n\n";

  Table table({"workload", "CCR", "MCP NSL", "FLB NSL", "DUP NSL",
               "DUP instances/V", "FLB [ms]", "DUP [ms]"});

  std::map<std::string, std::vector<double>> overall;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      std::vector<double> nsl_flb, nsl_dup, dup_ratio, t_flb, t_dup;
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);

        auto mcp = make_scheduler("MCP", seed);
        Cost mcp_len = run_once(*mcp, g, procs).makespan;

        auto flb = make_scheduler("FLB", seed);
        RunResult rf = run_once(*flb, g, procs);
        nsl_flb.push_back(rf.makespan / mcp_len);
        t_flb.push_back(rf.millis);

        DupScheduler dup;
        Stopwatch sw;
        DupSchedule ds = dup.run(g, procs);
        double ms = sw.millis();
        FLB_REQUIRE(is_valid_dup_schedule(g, ds),
                    "DUP produced an infeasible schedule on " + g.name());
        nsl_dup.push_back(ds.makespan() / mcp_len);
        dup_ratio.push_back(static_cast<double>(ds.num_instances()) /
                            static_cast<double>(g.num_tasks()));
        t_dup.push_back(ms);
      }
      table.add_row({workload, format_fixed(ccr, 1), "1.000",
                     format_fixed(mean(nsl_flb), 3),
                     format_fixed(mean(nsl_dup), 3),
                     format_fixed(mean(dup_ratio), 3),
                     format_fixed(mean(t_flb), 2),
                     format_fixed(mean(t_dup), 2)});
      overall["flb"].push_back(mean(nsl_flb));
      overall["dup"].push_back(mean(nsl_dup));
      overall["tf"].push_back(mean(t_flb));
      overall["td"].push_back(mean(t_dup));
    }
  }
  emit(table, cfg);

  std::cout << "\nshape checks (paper Section 1):\n";
  std::cout << "  duplication schedules better on average: "
            << (mean(overall["dup"]) < mean(overall["flb"]) ? "yes" : "NO")
            << " (DUP " << format_fixed(mean(overall["dup"]), 3) << " vs FLB "
            << format_fixed(mean(overall["flb"]), 3) << ")\n";
  std::cout << "  ...at significantly higher scheduling cost: "
            << format_fixed(mean(overall["td"]) / mean(overall["tf"]), 1)
            << "x FLB's running time\n";
  return 0;
}
