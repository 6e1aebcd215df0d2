// CCR-sensitivity ablation: the paper samples only CCR = 0.2 and 5.0 (the
// tech-report version sweeps more). This bench fills the range in between,
// reporting NSL vs MCP across CCR in {0.1, 0.2, 0.5, 1, 2, 5, 10} at a
// fixed P, showing where each algorithm's relative quality crosses over as
// problems go from compute- to communication-dominated.

#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = args.get_count<ProcId>("at-procs", 8);
  std::vector<double> ccrs =
      args.get_double_list("ccr", {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0});

  std::cout << "CCR sweep — NSL vs MCP at P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds
            << " seeds, averaged over LU/Laplace/Stencil)\n\n";

  std::vector<std::string> headers{"algorithm"};
  for (double c : ccrs) headers.push_back("CCR=" + format_compact(c));
  Table table(headers);

  std::map<std::string, std::map<double, std::vector<double>>> nsl;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);
        auto mcp = make_scheduler("MCP", seed);
        Cost mcp_len = run_once(*mcp, g, procs).makespan;
        for (const std::string& algo : scheduler_names()) {
          if (algo == "MCP") {
            nsl[algo][ccr].push_back(1.0);
            continue;
          }
          auto sched = make_scheduler(algo, seed);
          nsl[algo][ccr].push_back(run_once(*sched, g, procs).makespan /
                                   mcp_len);
        }
      }
    }
  }

  for (const std::string& algo : scheduler_names()) {
    std::vector<std::string> row{algo};
    for (double c : ccrs) row.push_back(format_fixed(mean(nsl[algo][c]), 3));
    table.add_row(row);
  }
  emit(table, cfg);
  std::cout << "\n(earliest-start algorithms — ETF/FLB — typically gain on "
               "MCP as CCR grows on regular problems)\n";
  return 0;
}
