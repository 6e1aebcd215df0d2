// Extended comparison: the paper's five algorithms plus this library's
// additional baselines (HLFET, DLS, MCP-I) on the evaluation workloads —
// NSL vs MCP and scheduling time, the "related work" panorama the paper's
// Section 3 sketches in prose.

#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = args.get_count<ProcId>("at-procs", 8);

  std::cout << "Extended algorithm comparison at P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds
            << " seeds; NSL vs MCP / time in ms)\n\n";

  std::vector<std::string> headers{"algorithm"};
  for (const std::string& workload : cfg.workloads)
    for (double ccr : cfg.ccrs)
      headers.push_back(workload + " " + format_compact(ccr));
  headers.emplace_back("mean NSL");
  headers.emplace_back("time");
  Table table(headers);

  std::map<std::string, std::map<std::string, std::vector<double>>> nsl;
  std::map<std::string, std::vector<double>> times;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      std::string col = workload + " " + format_compact(ccr);
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);
        auto mcp = make_scheduler("MCP", seed);
        Cost mcp_len = run_once(*mcp, g, procs).makespan;
        for (const std::string& algo : extended_scheduler_names()) {
          auto sched = make_scheduler(algo, seed);
          RunResult r = run_once(*sched, g, procs);
          nsl[algo][col].push_back(r.makespan / mcp_len);
          times[algo].push_back(r.millis);
        }
      }
    }
  }

  for (const std::string& algo : extended_scheduler_names()) {
    std::vector<std::string> row{algo};
    std::vector<double> all;
    for (const std::string& workload : cfg.workloads) {
      for (double ccr : cfg.ccrs) {
        std::string col = workload + " " + format_compact(ccr);
        double v = mean(nsl[algo][col]);
        all.push_back(v);
        row.push_back(format_fixed(v, 3));
      }
    }
    row.push_back(format_fixed(mean(all), 3));
    row.push_back(format_fixed(mean(times[algo]), 2));
    table.add_row(row);
  }
  emit(table, cfg);

  std::cout << "\n(HLFET ignores communication in its priorities — expect "
               "it to trail on high-CCR columns; MCP-I's insertion should "
               "never lose to MCP by more than noise)\n";
  return 0;
}
