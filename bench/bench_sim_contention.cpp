// Contention ablation on the machine simulator: the paper's model assumes
// inter-processor communication "without contention" (Section 2). This
// bench executes each algorithm's schedule on the event-driven machine
// under progressively harsher network models (contention-free, single
// send port, single send+receive port) and reports the makespan inflation
// — how much of each algorithm's advantage survives when the assumption
// is dropped, and whether the relative ranking of the algorithms holds.

#include <map>

#include "bench_common.hpp"
#include "flb/sim/machine_sim.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = args.get_count<ProcId>("at-procs", 8);

  struct Model {
    const char* label;
    SimNetwork network;
  };
  const Model models[] = {
      {"free", SimNetwork::kContentionFree},
      {"1-port send", SimNetwork::kSinglePortSend},
      {"1-port s+r", SimNetwork::kSinglePortSendRecv},
  };

  std::cout << "Network-contention ablation at P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds
            << " seeds; cells are simulated makespans normalized by the "
               "analytic contention-free MCP)\n";

  for (double ccr : cfg.ccrs) {
    std::cout << "\nCCR = " << ccr
              << " (averaged over LU/Laplace/Stencil)\n";
    std::vector<std::string> headers{"algorithm"};
    for (const Model& m : models) headers.emplace_back(m.label);
    headers.emplace_back("inflation");
    Table table(headers);

    std::map<std::string, std::map<std::string, std::vector<double>>> cells;
    for (const std::string& workload : cfg.workloads) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);
        auto mcp_ref = make_scheduler("MCP", seed);
        Cost mcp_len = run_once(*mcp_ref, g, procs).makespan;
        for (const std::string& algo : scheduler_names()) {
          auto sched = make_scheduler(algo, seed);
          Schedule s = sched->run(g, procs);
          for (const Model& m : models) {
            SimOptions options;
            options.network = m.network;
            SimResult r = simulate(g, s, options);
            cells[algo][m.label].push_back(r.makespan / mcp_len);
          }
        }
      }
    }

    for (const std::string& algo : scheduler_names()) {
      std::vector<std::string> row{algo};
      double free_val = mean(cells[algo]["free"]);
      double worst = free_val;
      for (const Model& m : models) {
        double v = mean(cells[algo][m.label]);
        worst = std::max(worst, v);
        row.push_back(format_fixed(v, 3));
      }
      row.push_back("x" + format_fixed(worst / free_val, 2));
      table.add_row(row);
    }
    emit(table, cfg);
  }

  std::cout << "\n(the contention-free column reproduces Fig. 4's analytic "
               "NSLs; the port-constrained columns show how far the "
               "paper's model is from a serializing NIC)\n";
  return 0;
}
