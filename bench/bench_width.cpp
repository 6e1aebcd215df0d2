// Width ablation: FLB's complexity bound O(V(log W + log P) + E) involves
// the task-graph width W, but the scheduler never computes W — only the
// analysis does. This bench justifies keeping the exact Dilworth /
// Hopcroft-Karp width out of the scheduling path: it reports, per
// workload, the exact width, the cheap per-level lower bound, the peak
// ready-set size FLB actually observes, and the cost of computing each.

#include "bench_common.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/width.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  CliArgs args(argc, argv);
  const auto tasks = args.get_count<std::size_t>("tasks", 1000);

  std::cout << "Task-graph width: exact vs level bound vs FLB's observed "
               "peak ready-set (V ~ "
            << tasks << ")\n\n";

  Table table({"workload", "V", "level bound", "exact W", "FLB max ready",
               "level [ms]", "exact [ms]", "FLB run [ms]"});
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 1;
    TaskGraph g = make_workload(name, tasks, params);

    Stopwatch sw_level;
    std::size_t level = max_level_width(g);
    double t_level = sw_level.millis();

    Stopwatch sw_exact;
    std::size_t exact = exact_width(g);
    double t_exact = sw_exact.millis();

    FlbScheduler flb;
    FlbStats stats;
    Stopwatch sw_flb;
    (void)flb.run_instrumented(g, 8, nullptr, &stats);
    double t_flb = sw_flb.millis();

    table.add_row({g.name(), std::to_string(g.num_tasks()),
                   std::to_string(level), std::to_string(exact),
                   std::to_string(stats.max_ready), format_fixed(t_level, 2),
                   format_fixed(t_exact, 2), format_fixed(t_flb, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(exact width costs orders of magnitude more than an "
               "entire FLB run — hence it stays a diagnostics routine; the "
               "observed ready-set peak is bounded by W as Section 2 "
               "requires)\n";
  return 0;
}
