// flb_lint — semantic schedule linter CLI over flb::analysis.
//
// Feeds a (graph, schedule[, trace]) triple through the rule engine and
// prints structured diagnostics: rule id, severity, offending task /
// processor / trace step, expected vs actual value and a fix hint. Unlike
// flb_verify (feasibility only), flb_lint also checks the paper's
// *selection invariants* — ETF conformance, EP-type classification, PRT
// monotonicity, trace/schedule consistency — when the schedule comes from
// FLB and an execution trace is available (--algo FLB, the default).
//
// Graph sources (pick one):
//   --paper-example          the Fig. 1 graph (default)
//   --graph FILE             flb-taskgraph text (graph/serialize.hpp)
//   --dot FILE               Graphviz DOT subset (graph/dot.hpp)
//   --stg FILE               Standard Task Graph format (graph/stg.hpp)
//   --workload NAME          generated workload (--tasks V, --seed S)
//
// Schedule sources (pick one):
//   --algo NAME              run a registry scheduler (default FLB; FLB
//                            additionally captures the trace and runs the
//                            theorem tier)
//   --schedule FILE          flb-schedule text of an external schedule
//                            (feasibility + quality tiers only)
//
// Output and policy:
//   --procs P                processor count (default 2)
//   --faults FILE            lint against a fault plan (sim/faults.hpp
//                            text format): when the plan declares partial
//                            partitions, the feasibility tier additionally
//                            runs rule `partitioned-link` — no message may
//                            be scheduled across a link the plan
//                            partitions at its send instant
//   --json                   machine-readable report
//   --no-quality             disable the warn/info tier
//   --fail-on warn|error     exit-code threshold (default error)
//   --list-rules             print the rule catalogue and exit
//
// Online-repair mode:
//   --repair-at F            kill --victim (default 1) at fraction F of the
//                            nominal makespan, repair the partial execution
//                            (sched/repair.hpp) and lint the *continuation*
//                            against its duration vector — the feasibility
//                            tier the online recovery controller re-checks
//                            on every installed schedule. The quality and
//                            theorem tiers are off here: a continuation's
//                            durations are stretched by the degraded
//                            machine, so nominal-cost heuristics do not
//                            apply. A repair regression exits 2.
//
// Runtime-audit mode:
//   --audit                  fly one online-recovery episode (requires
//                            --faults) and run the runtime auditor
//                            (analysis/audit.hpp) over its RuntimeResult:
//                            event-log canonical order, kill/rejoin and
//                            cut/heal pairing against the resolved plan,
//                            partition-drop provenance, belief causality,
//                            gossip quorum soundness, checkpoint and
//                            repair provenance, digest consistency.
//     --mode M               online | detector | gossip (default online;
//                            detector/gossip need a heartbeat directive in
//                            the plan)
//     --debounce D           controller coalescing window (default 0)
//     --quorum Q             gossip concurring-observer threshold (def. 2)
//   With --audit, --list-rules prints the audit catalogue instead.
//
// Exit code: 0 = no diagnostic at/above --fail-on; otherwise the max
// severity seen (1 = warn, 2 = error); 3 = usage or parse error.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "flb/analysis/audit.hpp"
#include "flb/analysis/lint.hpp"
#include "flb/core/trace.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/graph/dot.hpp"
#include "flb/graph/serialize.hpp"
#include "flb/graph/stg.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/export.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"

namespace {

void print_usage() {
  std::cerr
      << "usage: flb_lint [graph source] [schedule source] [options]\n"
         "graph:    --paper-example | --graph FILE | --dot FILE |\n"
         "          --stg FILE | --workload NAME [--tasks V] [--seed S]\n"
         "schedule: --algo NAME (default FLB) | --schedule FILE\n"
         "options:  --procs P (default 2), --faults FILE (fault plan;\n"
         "          enables the partitioned-link rule), --json,\n"
         "          --no-quality,\n"
         "          --fail-on warn|error (default error), --list-rules,\n"
         "          --repair-at F [--victim p] (lint the repaired\n"
         "          continuation after a fail-stop at F * makespan)\n"
         "audit:    --audit (fly one online-recovery episode under the\n"
         "          --faults plan and audit its RuntimeResult)\n"
         "          [--mode online|detector|gossip] [--debounce D]\n"
         "          [--quorum Q]\n";
}

flb::TaskGraph load_graph(const flb::CliArgs& args) {
  const int sources = int(args.has("graph")) + int(args.has("dot")) +
                      int(args.has("stg")) + int(args.has("workload")) +
                      int(args.has("paper-example"));
  FLB_REQUIRE(sources <= 1, "flb_lint: pick at most one graph source");
  if (args.has("graph")) {
    std::ifstream in(args.get("graph", ""));
    FLB_REQUIRE(in.good(), "cannot open --graph file");
    return flb::read_text(in);
  }
  if (args.has("dot")) {
    std::ifstream in(args.get("dot", ""));
    FLB_REQUIRE(in.good(), "cannot open --dot file");
    return flb::read_dot(in);
  }
  if (args.has("stg")) {
    std::ifstream in(args.get("stg", ""));
    FLB_REQUIRE(in.good(), "cannot open --stg file");
    return flb::read_stg(in);
  }
  if (args.has("workload")) {
    flb::WorkloadParams params;
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto tasks = args.get_count<std::size_t>("tasks", 100);
    return flb::make_workload(args.get("workload", "LU"), tasks, params);
  }
  return flb::paper_example_graph();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::analysis;
  try {
    CliArgs args(argc, argv);

    if (args.has("help")) {
      print_usage();
      return 0;
    }
    if (args.has("list-rules")) {
      const auto& rules =
          args.has("audit") ? audit_rule_catalogue() : rule_catalogue();
      for (const RuleInfo& r : rules)
        std::cout << r.id << " [" << to_string(r.severity) << "] "
                  << r.summary << "\n";
      return 0;
    }

    const std::string fail_on = args.get("fail-on", "error");
    FLB_REQUIRE(fail_on == "warn" || fail_on == "error",
                "flb_lint: --fail-on must be 'warn' or 'error'");
    const Severity threshold =
        fail_on == "warn" ? Severity::kWarn : Severity::kError;

    const TaskGraph g = load_graph(args);
    const auto procs = args.get_count<ProcId>("procs", 2);
    FLB_REQUIRE(procs >= 1, "flb_lint: --procs must be >= 1");

    LintOptions options;
    options.quality = !args.has("no-quality");

    // An optional fault plan arms the partitioned-link rule; the plan must
    // outlive every lint call below, so it lives here.
    FaultPlan lint_faults;
    if (args.has("faults")) {
      std::ifstream in(args.get("faults", ""));
      FLB_REQUIRE(in.good(), "cannot open --faults file");
      lint_faults = read_fault_plan(in);
      lint_faults.validate(procs);
      options.faults = &lint_faults;
    }

    const platform::CostModel model = platform::CostModel::clique(procs);
    LintReport report;
    if (args.has("audit")) {
      FLB_REQUIRE(args.has("faults"),
                  "flb_lint: --audit needs a --faults plan to fly the "
                  "episode under");
      FLB_REQUIRE(!args.has("schedule") && !args.has("repair-at"),
                  "flb_lint: --audit flies a registry schedule; it cannot "
                  "be combined with --schedule or --repair-at");
      const std::string mode = args.get("mode", "online");
      FLB_REQUIRE(mode == "online" || mode == "detector" || mode == "gossip",
                  "flb_lint: --mode must be online, detector or gossip");
      const double debounce = args.get_double("debounce", 0.0);
      FLB_REQUIRE(debounce >= 0.0, "flb_lint: --debounce must be >= 0");
      const auto quorum = args.get_count<ProcId>("quorum", 2);

      const std::string algo = args.get("algo", "FLB");
      const Schedule nominal = make_scheduler(algo)->run(g, procs);

      runtime::RuntimeOptions run_options;
      run_options.debounce = debounce;
      run_options.use_detector = mode != "online";
      run_options.use_gossip = mode == "gossip";
      run_options.quorum = quorum;
      FLB_REQUIRE(!run_options.use_detector || lint_faults.heartbeat.enabled(),
                  "flb_lint: --mode " + mode +
                      " needs a heartbeat directive in the fault plan");
      const runtime::RuntimeResult episode =
          runtime::run_online_recovery(g, nominal, lint_faults, run_options);

      if (!args.has("json"))
        std::cout << "Auditing one " << mode << "-mode recovery episode ("
                  << algo << ", " << episode.events.size() << " events, "
                  << episode.repairs.size() << " repairs)\n";
      AuditOptions audit_options;
      audit_options.debounce = debounce;
      audit_options.use_detector = run_options.use_detector;
      audit_options.use_gossip = run_options.use_gossip;
      audit_options.quorum = run_options.quorum;
      report = audit_runtime(g, lint_faults, episode, audit_options);
    } else if (args.has("repair-at")) {
      const double fraction = args.get_double("repair-at", 0.4);
      FLB_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                  "flb_lint: --repair-at must be a fraction in [0, 1]");
      FLB_REQUIRE(procs >= 2,
                  "flb_lint: --repair-at needs at least 2 processors");
      const auto victim = args.get_index<ProcId>("victim", 1, procs);
      FLB_REQUIRE(!args.has("schedule"),
                  "flb_lint: --repair-at repairs a registry schedule; it "
                  "cannot be combined with --schedule");
      const std::string algo = args.get("algo", "FLB");
      const Schedule nominal = make_scheduler(algo)->run(g, procs);

      FaultPlan plan = FaultPlan::single_failure(
          victim, fraction * nominal.makespan());
      SimOptions sim_options;
      sim_options.faults = &plan;
      const SimResult partial = simulate(g, nominal, sim_options);
      const RepairResult repair = repair_schedule(g, nominal, partial, plan);

      if (!args.has("json"))
        std::cout << "Linting the " << algo
                  << " continuation repaired after processor " << victim
                  << " failed at t = " << fraction * nominal.makespan()
                  << " (" << repair.migrated_tasks << " tasks migrated onto "
                  << repair.survivors << " survivors)\n";
      LintOptions repair_options = options;
      repair_options.theorems = false;
      repair_options.quality = false;
      report = lint_schedule(g, repair.schedule, repair.durations, model,
                             repair_options);
    } else if (args.has("schedule")) {
      FLB_REQUIRE(!args.has("algo"),
                  "flb_lint: --schedule and --algo are mutually exclusive");
      std::ifstream in(args.get("schedule", ""));
      FLB_REQUIRE(in.good(), "cannot open --schedule file");
      const Schedule s = read_schedule_text(in);
      FLB_REQUIRE(s.num_tasks() == g.num_tasks(),
                  "schedule and graph disagree on the task count");
      FLB_REQUIRE(s.num_procs() == procs,
                  "schedule disagrees with --procs (use --procs " +
                      std::to_string(s.num_procs()) + ")");
      report = lint_schedule(g, s, model, options);
    } else {
      const std::string algo = args.get("algo", "FLB");
      if (algo == "FLB") {
        // Trace capture gives the theorem tier its evidence; the traced
        // run and FlbScheduler::run produce identical schedules.
        const std::vector<FlbTraceRow> rows = trace_flb(g, procs);
        Schedule s(procs, static_cast<TaskId>(g.num_tasks()));
        for (const FlbTraceRow& row : rows)
          s.assign(row.task, row.proc, row.start, row.finish);
        report = lint_flb(g, s, rows, model, options);
      } else {
        const Schedule s = make_scheduler(algo)->run(g, procs);
        report = lint_schedule(g, s, model, options);
      }
    }

    if (args.has("json"))
      write_report_json(std::cout, report);
    else
      write_report(std::cout, report);

    const Severity worst = report.max_severity();
    if (report.diagnostics.empty() || worst < threshold) return 0;
    return worst == Severity::kError ? 2 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
