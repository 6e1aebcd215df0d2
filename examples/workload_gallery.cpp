// Gallery of the library's workload generators: structural statistics for
// each family and, on request, DOT or flb-text export of a chosen instance.
//
// Usage:
//   workload_gallery                      # table of all families
//   workload_gallery --tasks 500 --ccr 5  # resized / re-weighted
//   workload_gallery --export LU --format dot   # print one graph

#include <iostream>

#include "flb/graph/dot.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/serialize.hpp"
#include "flb/graph/width.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  CliArgs args(argc, argv);
  const auto tasks = args.get_count<std::size_t>("tasks", 300);
  WorkloadParams params;
  params.ccr = args.get_double("ccr", 1.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (args.has("export")) {
    TaskGraph g = make_workload(args.get("export", "LU"), tasks, params);
    if (args.get("format", "text") == "dot") {
      write_dot(std::cout, g);
    } else {
      write_text(std::cout, g);
    }
    return 0;
  }

  Table table({"workload", "V", "E", "CCR", "depth", "max level width",
               "width W", "CP (comm)", "CP (comp)"});
  for (const std::string& name : workload_names()) {
    TaskGraph g = make_workload(name, tasks, params);
    table.add_row({g.name(), std::to_string(g.num_tasks()),
                   std::to_string(g.num_edges()), format_fixed(g.ccr(), 2),
                   std::to_string(level_decomposition(g).size()),
                   std::to_string(max_level_width(g)),
                   std::to_string(exact_width(g)),
                   format_fixed(critical_path(g), 1),
                   format_fixed(computation_critical_path(g), 1)});
  }
  table.print(std::cout);
  std::cout << "\nwidth W is the maximum antichain (Dilworth / "
               "Hopcroft-Karp on the transitive closure)\n";
  return 0;
}
