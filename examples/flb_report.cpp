// flb_report — generate a self-contained HTML report comparing every
// algorithm on one workload: metrics table, SVG Gantt chart per algorithm,
// and the binding/utilization diagnostics. Open the output in any browser.
//
// Usage:
//   flb_report [--workload LU] [--tasks 300] [--procs 8] [--ccr 1.0]
//              [--seed 1] [--out report.html]

#include <fstream>
#include <iostream>

#include "flb/graph/properties.hpp"
#include "flb/sched/gantt.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/schedule_analysis.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  try {
    CliArgs args(argc, argv);
    const std::string workload = args.get("workload", "LU");
    const auto tasks = args.get_count<std::size_t>("tasks", 300);
    const auto procs = args.get_count<ProcId>("procs", 8);
    const std::string out_path = args.get("out", "report.html");
    WorkloadParams params;
    params.ccr = args.get_double("ccr", 1.0);
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    TaskGraph g = make_workload(workload, tasks, params);

    std::ofstream out(out_path);
    FLB_REQUIRE(out.good(), "cannot open --out file '" + out_path + "'");

    out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        << "<title>flb report — " << g.name() << "</title>\n"
        << "<style>body{font-family:sans-serif;max-width:1100px;margin:24px "
           "auto;padding:0 12px}table{border-collapse:collapse}td,th{border:"
           "1px solid #ccc;padding:4px 10px;text-align:right}th{background:"
           "#f5f5f5}td:first-child,th:first-child{text-align:left}h2{margin-"
           "top:32px}</style></head><body>\n";
    out << "<h1>flb scheduling report</h1>\n";
    out << "<p><b>" << g.name() << "</b> — " << g.num_tasks() << " tasks, "
        << g.num_edges() << " edges, CCR " << format_fixed(g.ccr(), 2)
        << ", P = " << procs << ", critical path "
        << format_fixed(critical_path(g), 1)
        << ", lower bound "
        << format_fixed(makespan_lower_bound(g, procs), 1) << "</p>\n";

    out << "<h2>Summary</h2>\n<table><tr><th>algorithm</th><th>makespan"
           "</th><th>speedup</th><th>utilization</th><th>remote-data "
           "bound</th><th>time [ms]</th></tr>\n";

    struct Row {
      std::string name;
      Schedule schedule;
    };
    std::vector<Row> rows;
    for (const std::string& name : extended_scheduler_names()) {
      auto sched = make_scheduler(name, params.seed);
      Stopwatch sw;
      Schedule s = sched->run(g, procs);
      double ms = sw.millis();
      FLB_REQUIRE(is_valid_schedule(g, s), name + " produced an infeasible schedule");
      UtilizationReport rep = analyze_utilization(g, s);
      out << "<tr><td>" << name << "</td><td>"
          << format_fixed(s.makespan(), 2) << "</td><td>"
          << format_fixed(speedup(g, s), 2) << "</td><td>"
          << format_fixed(rep.mean_utilization * 100.0, 1) << "%</td><td>"
          << format_fixed(rep.remote_data_bound * 100.0, 1) << "%</td><td>"
          << format_fixed(ms, 2) << "</td></tr>\n";
      rows.push_back({name, std::move(s)});
    }
    out << "</table>\n";

    for (const Row& row : rows) {
      out << "<h2>" << row.name << " — makespan "
          << format_fixed(row.schedule.makespan(), 2) << "</h2>\n";
      write_svg_gantt(out, g, row.schedule, 1000);
    }
    out << "</body></html>\n";

    std::cout << "report for " << g.name() << " (" << rows.size()
              << " algorithms) written to " << out_path << "\n";
    return 0;
  } catch (const flb::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
