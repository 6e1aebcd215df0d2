// Fault-tolerance sweeps.
//
// Sweep 1 (PR 1): kill one processor at increasing fractions of the nominal
// makespan and measure how gracefully each algorithm's schedule can be
// repaired online (machine_sim fault injection + repair_schedule). The
// later the failure, the more of the schedule has already executed and the
// less work must migrate — a repair-friendly schedule degrades smoothly
// toward 1.0.
//
// Sweep 2 (the ROADMAP's checkpoint-interval vs repair-cost sweep): a
// correlated burst kills the first half of the machine ("rack0") while one
// survivor is throttled to half speed, under periodic checkpointing at
// decreasing intervals. Reported per algorithm and interval: mean work lost
// to the burst and the mean repaired/nominal makespan. Tighter intervals
// save more in-flight work but re-execute with more checkpoint-write
// overhead — the trade the sweep quantifies.
//
// Sweep 3 (the ROADMAP's nonzero-overhead sweep): the same burst episode,
// but every durable checkpoint write costs real wall time. Tight intervals
// now cut both ways — less work lost, more writes paid — and per workload
// the sweep reports the break-even interval: the tightest interval whose
// mean repaired/nominal makespan is still no worse than running without
// checkpoints. A companion table compares uniform placement against the
// criticality-aware policy (CheckpointPolicy::min_downstream at the
// workload's median bottom level): protecting only the tasks whose loss
// would stall the longest chains buys most of the uniform policy's
// resilience with a fraction of the durable writes.
//
// Sweep 4 (recovery give-back): the victim processor is killed at 10% of
// the nominal makespan and rejoins, rebooted with cold caches, at 35%.
// Repair either refuses the recovered capacity (no-give-back baseline) or
// opportunistically migrates not-yet-started work back to it. Reported per
// algorithm, under the paper's clique and under a routed 2-D mesh:
// no-give-back ratio | give-back ratio | mean work given back.
//
// Sweep 5 (--online): the sweep-4 kill/rejoin episode replayed without the
// fault oracle. The one-shot repair above reads the full FaultPlan; the
// online controller (flb::runtime) only ever sees the simulator's event
// stream, re-repairing at each observation. Reported per algorithm: oracle
// planned ratio | online executed ratio | gap | mean repair invocations |
// mean events observed, plus an FNV-1a digest of every episode's event-log
// and final-schedule digests — byte-stable per seed, which is what the CI
// online-determinism job diffs across two runs.
//
// Sweep 6 (--detector): the victim is killed for good at 10% of the
// nominal span — no rejoin — and liveness itself is unobservable. The
// controller runs on seeded lossy heartbeats (failure_detector.hpp) and
// reacts to *beliefs* — suspect, confirm, exonerate — instead of
// ground-truth kill events. Per heartbeat
// (period, loss) cell, FLB-only: mean detection latency (in periods), mean
// false alarms, and four makespan ratios — oracle, perfect-event online,
// speculative detector (hedge at suspicion, promote/cancel), and
// confirm-then-repair detector (wait out the full detection latency) —
// plus the speculative waste the false alarms cost. A drift scenario then
// clusters late kills and checks the windowed Young/Daly checkpoint
// interval tightens. Under --validate: noise is never free, the lossless
// detector stays within 2x of the perfect-event controller, speculation
// strictly beats confirm-then-repair at the slowest heartbeat, the drift
// interval shrinks, and every episode is digest-identical when run twice
// (the CI detector-determinism job diffs two full runs).
//
// Sweep 7 (--partition): partial network partitions. The controller's own
// link to an otherwise-healthy processor goes dark while every other link
// stays up — the network lies to observer 0 alone. A short cut shows the
// single-observer detector manufacturing a false alarm where the gossip
// quorum aggregator (every processor forms its own belief stream; a
// suspicion needs >= 2 observers with a live path) raises none; a long cut
// compares kill-and-reexecute (confirm-then-repair on the lying link)
// against partition-aware repair (the unreachable victim is masked from
// new placements but not killed, and reconciles on heal). A self-tuning
// scenario then manufactures an exoneration burst with repeated short
// cuts: each false alarm raises the suspect threshold multiplicatively, a
// later cut is absorbed by the raised threshold, a real kill still
// confirms, and the quiet window after the burst decays the threshold
// back. Under --validate: the single-observer run raises >= 1 false
// alarms and the quorum run exactly 0, partition-heal reconciliation is
// never worse than kill-and-reexecute on the same episode, the tuned
// threshold strictly increases across the burst and decays after it, and
// every episode is digest-identical when run twice (the CI
// partition-determinism job diffs two full runs).
//
// Flags beyond bench_common's: --at-procs P, --victim p, --when f1,f2,...,
// --ckpt f1,f2,... (checkpoint intervals as fractions of the nominal
// makespan), --ckpt-overhead f (sweep 3's write cost as a fraction of the
// mean task work), --stg path (schedule one STG instance instead of the
// synthetic workloads), --online (run sweep 5), --detector (run sweep 6;
// --hb-period f1,f2,... and --hb-loss p1,p2,... override the heartbeat
// grid — every period must be positive, or the world plan would lack the
// heartbeat directive the detector needs), --partition (run sweep 7),
// and --validate
// (durations-aware validation of every repaired schedule — including, with
// --online, every per-event continuation the controller installs —
// checkpoint-superiority, give-back-never-worse and online-determinism
// enforcement, and byte-identical output: wall-clock columns are
// suppressed so re-runs can be diffed — the CI fault-sweep smoke job).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "flb/analysis/audit.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/stg.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/digest.hpp"

namespace {

using namespace flb;

TaskGraph stg_graph(const std::string& path, double ccr, std::size_t seed) {
  std::ifstream in(path);
  FLB_REQUIRE(in.good(), "cannot open STG file: " + path);
  WorkloadParams params;
  params.ccr = ccr;
  params.seed = seed;
  return read_stg(in, params);
}

// The most square 2-D mesh with exactly `procs` nodes (rows = the largest
// divisor not exceeding sqrt; a prime count degenerates to a 1 x P chain).
Topology mesh_for(ProcId procs) {
  ProcId rows = 1;
  for (ProcId r = 1; static_cast<std::size_t>(r) * r <= procs; ++r)
    if (procs % r == 0) rows = r;
  return Topology::mesh2d(rows, procs / rows);
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setfill('0') << std::setw(16) << value;
  return out.str();
}

// Under --validate every recovery episode is additionally certified by the
// independent runtime auditor (analysis::audit_runtime): the episode's
// event log, belief stream, repair provenance and digests must replay
// clean against the fault plan, or the bench aborts with the full report.
void require_audit_clean(const TaskGraph& g, const FaultPlan& world,
                         const runtime::RuntimeResult& episode,
                         const runtime::RuntimeOptions& ropts,
                         const std::string& what) {
  analysis::AuditOptions aopt;
  aopt.debounce = ropts.debounce;
  aopt.use_detector = ropts.use_detector;
  aopt.use_gossip = ropts.use_gossip;
  aopt.quorum = ropts.quorum;
  const analysis::LintReport report =
      analysis::audit_runtime(g, world, episode, aopt);
  if (!report.clean()) {
    std::ostringstream os;
    analysis::write_report(os, report);
    FLB_REQUIRE(false, what + ": runtime audit failed on " + g.name() +
                           "\n" + os.str());
  }
}

// Median bottom level — the criticality threshold of the selective
// checkpoint policy: the half of the tasks with the longest downstream
// chains checkpoint, the rest run unprotected.
Cost median_bottom_level(const TaskGraph& g) {
  std::vector<Cost> levels = bottom_levels(g);
  const std::size_t mid = levels.size() / 2;
  std::nth_element(levels.begin(),
                   levels.begin() + static_cast<std::ptrdiff_t>(mid),
                   levels.end());
  return levels[mid];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = args.get_count<ProcId>("at-procs", 8);
  FLB_REQUIRE(procs >= 2, "--at-procs must be at least 2");
  const auto victim = args.get_index<ProcId>("victim", 1, procs);
  std::vector<double> fractions =
      args.get_double_list("when", {0.1, 0.25, 0.5, 0.75});
  std::vector<double> ckpt_fractions =
      args.get_double_list("ckpt", {0.4, 0.2, 0.1, 0.05});
  const double ckpt_overhead = args.get_double("ckpt-overhead", 0.05);
  const std::string stg_path = args.get("stg", "");
  const bool validate = args.has("validate");
  FLB_REQUIRE(ckpt_overhead >= 0.0, "--ckpt-overhead must be non-negative");
  if (!stg_path.empty()) cfg.workloads = {"STG:" + stg_path};

  // Heartbeat grid for sweeps 6 and 7, parsed and checked *before* any
  // sweep runs: a non-positive period would leave the world plan without
  // its `heartbeat` directive, and the detector construction would only
  // throw deep inside the sweep, minutes after the earlier sweeps started.
  const std::vector<double> hb_periods =
      args.get_double_list("hb-period", {0.02, 0.06, 0.12});
  const std::vector<double> hb_losses =
      args.get_double_list("hb-loss", {0.0, 0.1, 0.25});
  if (args.has("detector") || args.has("partition")) {
    for (double pf : hb_periods)
      FLB_REQUIRE(pf > 0.0,
                  "--hb-period " + format_compact(pf) +
                      " disables heartbeat sensing: the world plan would "
                      "carry no `heartbeat` directive, which --detector and "
                      "--partition require (every period must be > 0)");
    for (double loss : hb_losses)
      FLB_REQUIRE(loss >= 0.0 && loss < 1.0,
                  "--hb-loss entries must be in [0, 1)");
  }

  auto make_graph = [&](const std::string& workload, double ccr,
                        std::size_t seed) {
    if (!stg_path.empty()) return stg_graph(stg_path, ccr, seed);
    WorkloadParams params;
    params.ccr = ccr;
    params.seed = seed;
    return make_workload(workload, cfg.tasks, params);
  };

  std::cout << "Fault-tolerance sweep at P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds
            << " seeds; processor " << victim
            << " fails at the given fraction of the nominal makespan; "
            << "repaired / nominal makespan)\n\n";

  std::vector<std::string> headers{"algorithm"};
  for (double f : fractions)
    headers.push_back("t=" + format_compact(f * 100) + "%");
  if (!validate) headers.push_back("repair ms");
  Table table(headers);

  std::map<std::string, std::map<double, std::vector<double>>> ratio;
  std::map<std::string, std::vector<double>> latency;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        TaskGraph g = make_graph(workload, ccr, seed);
        for (const std::string& algo : scheduler_names()) {
          auto sched = make_scheduler(algo, seed);
          Schedule nominal = sched->run(g, procs);
          for (double f : fractions) {
            FaultPlan plan =
                FaultPlan::single_failure(victim, f * nominal.makespan());
            SimOptions opts;
            opts.faults = &plan;
            SimResult partial = simulate(g, nominal, opts);
            RepairResult repair = repair_schedule(g, nominal, partial, plan);
            if (validate)
              FLB_REQUIRE(
                  is_valid_schedule(g, repair.schedule, repair.durations),
                  algo + " produced an infeasible repaired schedule on " +
                      g.name());
            RobustnessMetrics m = robustness_metrics(nominal, partial, repair);
            ratio[algo][f].push_back(m.degradation_ratio);
            latency[algo].push_back(m.repair_millis);
          }
        }
      }
    }
  }

  for (const std::string& algo : scheduler_names()) {
    std::vector<std::string> row{algo};
    for (double f : fractions)
      row.push_back(format_fixed(mean(ratio[algo][f]), 3));
    if (!validate) row.push_back(format_fixed(mean(latency[algo]), 3));
    table.add_row(row);
  }
  emit(table, cfg);

  std::cout << "\nCheckpoint-interval sweep: rack0 (processors 0.."
            << procs / 2 - 1 << ") dies in a correlated burst at 30% of the "
            << "nominal makespan, processor " << procs / 2
            << " throttles to half speed; checkpoint interval as a fraction "
            << "of the mean task work (off = no checkpointing). Cells: "
            << "mean work lost | mean repaired/nominal makespan.\n\n";

  std::vector<std::string> ck_headers{"algorithm", "off"};
  for (double f : ckpt_fractions)
    ck_headers.push_back("i=" + format_compact(f * 100) + "%");
  Table ck_table(ck_headers);

  // ckpt column key: 0.0 = off.
  std::vector<double> columns{0.0};
  columns.insert(columns.end(), ckpt_fractions.begin(), ckpt_fractions.end());
  std::map<std::string, std::map<double, std::vector<double>>> lost, degr;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        TaskGraph g = make_graph(workload, ccr, seed);
        const Cost mean_comp =
            g.total_comp() / static_cast<Cost>(g.num_tasks());
        for (const std::string& algo : scheduler_names()) {
          auto sched = make_scheduler(algo, seed);
          Schedule nominal = sched->run(g, procs);
          const Cost span = nominal.makespan();

          FaultPlan episode;
          episode.seed = seed;
          FailureDomain rack0{"rack0", {}}, rack1{"rack1", {}};
          for (ProcId p = 0; p < procs; ++p)
            (p < procs / 2 ? rack0 : rack1).members.push_back(p);
          episode.domains = {rack0, rack1};
          episode.bursts.push_back({"rack0", 0.3 * span, 0.05 * span});
          episode.slowdowns.push_back({static_cast<ProcId>(procs / 2),
                                       0.25 * span, 0.5});

          for (double f : columns) {
            FaultPlan plan = episode;
            if (f > 0.0) plan.checkpoint = {f * mean_comp, 0.0};
            SimOptions opts;
            opts.faults = &plan;
            SimResult partial = simulate(g, nominal, opts);
            RepairResult repair = repair_schedule(g, nominal, partial, plan);
            if (validate)
              FLB_REQUIRE(
                  is_valid_schedule(g, repair.schedule, repair.durations),
                  algo + " produced an infeasible repaired schedule on " +
                      g.name());
            RobustnessMetrics m =
                robustness_metrics(nominal, partial, repair, plan);
            lost[algo][f].push_back(m.work_lost);
            degr[algo][f].push_back(m.degradation_ratio);
          }
        }
      }
    }
  }

  double total_baseline = 0.0, total_tightest = 0.0;
  const double tightest =
      *std::min_element(ckpt_fractions.begin(), ckpt_fractions.end());
  for (const std::string& algo : scheduler_names()) {
    std::vector<std::string> row{algo};
    for (double f : columns)
      row.push_back(format_fixed(mean(lost[algo][f]), 1) + " | " +
                    format_fixed(mean(degr[algo][f]), 3));
    ck_table.add_row(row);
    total_baseline += mean(lost[algo][0.0]);
    total_tightest += mean(lost[algo][tightest]);
    // With zero write overhead a checkpointed run can never lose more than
    // the uncheckpointed one; enforce that invariant per cell.
    if (validate)
      for (double f : ckpt_fractions)
        FLB_REQUIRE(mean(lost[algo][f]) <= mean(lost[algo][0.0]) + 1e-9,
                    algo + ": checkpointing at interval fraction " +
                        format_compact(f) +
                        " lost more work than the no-checkpoint baseline");
  }
  emit(ck_table, cfg);
  if (validate && total_baseline > 0.0)
    FLB_REQUIRE(total_tightest < total_baseline,
                "the tightest checkpoint interval did not reduce total work "
                "lost strictly below the no-checkpoint baseline");

  std::cout << "\n(work lost shrinks as the interval tightens — each killed "
               "task resumes from its last durable checkpoint — while the "
               "degradation ratio reflects the repair re-balancing the "
               "remainder onto the surviving, partly throttled rack)\n";

  // --- Sweep 3: checkpoint write overhead and the break-even interval ----
  std::cout << "\nCheckpoint write-overhead sweep (FLB): the same rack0 "
            << "burst episode, but every durable checkpoint write costs "
            << format_compact(ckpt_overhead * 100)
            << "% of the mean task work in wall time. Cells: mean "
            << "repaired/nominal makespan per workload; break-even is the "
            << "tightest interval still no worse than running without "
            << "checkpoints.\n\n";

  std::vector<std::string> ov_headers{"workload", "off"};
  for (double f : ckpt_fractions)
    ov_headers.push_back("i=" + format_compact(f * 100) + "%");
  ov_headers.push_back("break-even");
  Table ov_table(ov_headers);

  std::vector<std::string> cr_headers{"workload"};
  for (double f : ckpt_fractions)
    cr_headers.push_back("i=" + format_compact(f * 100) + "% u|c");
  cr_headers.push_back("writes u|c");
  Table cr_table(cr_headers);
  const double tightest_interval =
      *std::min_element(ckpt_fractions.begin(), ckpt_fractions.end());

  for (const std::string& workload : cfg.workloads) {
    std::map<double, std::vector<double>> ov_degr, cr_degr, wr_uni, wr_crit;
    for (double ccr : cfg.ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        TaskGraph g = make_graph(workload, ccr, seed);
        const Cost mean_comp =
            g.total_comp() / static_cast<Cost>(g.num_tasks());
        const Cost median_bl = median_bottom_level(g);
        auto sched = make_scheduler("FLB", seed);
        Schedule nominal = sched->run(g, procs);
        const Cost span = nominal.makespan();

        FaultPlan episode;
        episode.seed = seed;
        FailureDomain rack0{"rack0", {}}, rack1{"rack1", {}};
        for (ProcId p = 0; p < procs; ++p)
          (p < procs / 2 ? rack0 : rack1).members.push_back(p);
        episode.domains = {rack0, rack1};
        episode.bursts.push_back({"rack0", 0.3 * span, 0.05 * span});
        episode.slowdowns.push_back({static_cast<ProcId>(procs / 2),
                                     0.25 * span, 0.5});

        for (double f : columns) {
          FaultPlan plan = episode;
          if (f > 0.0)
            plan.checkpoint = {f * mean_comp, ckpt_overhead * mean_comp};
          SimOptions opts;
          opts.faults = &plan;
          SimResult partial = simulate(g, nominal, opts);
          RepairResult repair = repair_schedule(g, nominal, partial, plan);
          if (validate)
            FLB_REQUIRE(
                is_valid_schedule(g, repair.schedule, repair.durations),
                "FLB produced an infeasible repaired schedule on " +
                    g.name());
          RobustnessMetrics m = robustness_metrics(nominal, partial, repair);
          ov_degr[f].push_back(m.degradation_ratio);
          if (f <= 0.0) continue;
          wr_uni[f].push_back(
              static_cast<double>(partial.checkpoints_taken));

          // The criticality-aware variant of the same policy: identical
          // interval and write cost, but only the half of the tasks with
          // the longest downstream chains checkpoint at all.
          FaultPlan crit = plan;
          crit.checkpoint.min_downstream = median_bl;
          SimOptions crit_opts;
          crit_opts.faults = &crit;
          SimResult crit_partial = simulate(g, nominal, crit_opts);
          RepairResult crit_repair =
              repair_schedule(g, nominal, crit_partial, crit);
          if (validate) {
            FLB_REQUIRE(is_valid_schedule(g, crit_repair.schedule,
                                          crit_repair.durations),
                        "FLB produced an infeasible repaired schedule "
                        "under the criticality checkpoint policy on " +
                            g.name());
            FLB_REQUIRE(
                crit_partial.checkpoints_taken <= partial.checkpoints_taken,
                "the criticality policy wrote more checkpoints than the "
                "uniform one on " + g.name());
          }
          RobustnessMetrics cm =
              robustness_metrics(nominal, crit_partial, crit_repair);
          cr_degr[f].push_back(cm.degradation_ratio);
          wr_crit[f].push_back(
              static_cast<double>(crit_partial.checkpoints_taken));
        }
      }
    }
    std::vector<std::string> cr_row{workload};
    for (double f : ckpt_fractions)
      cr_row.push_back(format_fixed(mean(ov_degr[f]), 3) + " | " +
                       format_fixed(mean(cr_degr[f]), 3));
    cr_row.push_back(format_fixed(mean(wr_uni[tightest_interval]), 0) +
                     " | " +
                     format_fixed(mean(wr_crit[tightest_interval]), 0));
    cr_table.add_row(cr_row);
    // Break-even: checkpointing pays for its writes down to this interval.
    const double off_ratio = mean(ov_degr[0.0]);
    double break_even = 0.0;
    for (double f : ckpt_fractions)
      if (mean(ov_degr[f]) <= off_ratio + 1e-9)
        break_even = break_even == 0.0 ? f : std::min(break_even, f);
    std::vector<std::string> row{workload};
    for (double f : columns) row.push_back(format_fixed(mean(ov_degr[f]), 3));
    row.push_back(break_even > 0.0
                      ? "i=" + format_compact(break_even * 100) + "%"
                      : "none");
    ov_table.add_row(row);
  }
  emit(ov_table, cfg);

  std::cout << "\n(with free writes tighter is always better; with paid "
               "writes the curve turns — below the break-even interval the "
               "re-execution's checkpoint traffic outweighs the work "
               "saved)\n";

  std::cout << "\nCriticality-aware checkpoint placement (FLB, same paid "
            << "writes): uniform policy vs min_downstream at the median "
            << "bottom level — only the half of the tasks with the longest "
            << "downstream chains checkpoint. Cells: mean repaired/nominal "
            << "makespan, uniform | criticality; the last column counts "
            << "mean durable writes at the tightest interval.\n\n";
  emit(cr_table, cfg);

  std::cout << "\n(the selective policy spends its write budget where a "
               "loss would stall the longest chains; tasks with little "
               "downstream cost are cheap to re-execute unprotected, so "
               "the resilience gap stays small while the write count "
               "drops)\n";

  // --- Sweep 4: recovery give-back under the clique and a routed mesh ----
  const Topology mesh = mesh_for(procs);
  std::cout << "\nRecovery give-back sweep: processor " << victim
            << " is killed at 10% of the nominal makespan and rejoins, "
            << "rebooted with cold caches, at 35%. Cells: no-give-back "
            << "ratio | give-back ratio | mean work given back, under the "
            << "clique and a routed 2-D mesh of diameter " << mesh.diameter()
            << ".\n\n";

  Table rec_table(
      {"algorithm", "clique ngb|gb|back", "mesh ngb|gb|back"});
  std::map<std::string, std::map<int, std::vector<double>>> rec_ngb, rec_gb,
      rec_back;
  bool strict_improvement[2] = {false, false};
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        TaskGraph g = make_graph(workload, ccr, seed);
        for (const std::string& algo : scheduler_names()) {
          auto sched = make_scheduler(algo, seed);
          Schedule nominal = sched->run(g, procs);
          const Cost span = nominal.makespan();

          FaultPlan plan;
          plan.seed = seed;
          plan.failures.push_back({victim, 0.1 * span});
          plan.rejoins.push_back({victim, 0.35 * span});
          SimOptions opts;
          opts.faults = &plan;
          SimResult partial = simulate(g, nominal, opts);

          const Topology* const topologies[] = {nullptr, &mesh};
          for (int ti = 0; ti < 2; ++ti) {
            RepairOptions gb_opts;
            gb_opts.topology = topologies[ti];
            RepairOptions ngb_opts = gb_opts;
            ngb_opts.give_back = false;
            RepairResult baseline =
                repair_schedule(g, nominal, partial, plan, ngb_opts);
            RepairResult repair =
                repair_schedule(g, nominal, partial, plan, gb_opts);
            if (validate) {
              FLB_REQUIRE(
                  is_valid_schedule(g, repair.schedule, repair.durations) &&
                      is_valid_schedule(g, baseline.schedule,
                                        baseline.durations),
                  algo + " produced an infeasible repaired schedule on " +
                      g.name());
              FLB_REQUIRE(repair.schedule.makespan() <=
                              baseline.schedule.makespan() + 1e-9,
                          algo + ": give-back repair was worse than the "
                                 "no-give-back baseline on " +
                              g.name());
            }
            if (repair.schedule.makespan() <
                baseline.schedule.makespan() - 1e-9)
              strict_improvement[ti] = true;
            rec_ngb[algo][ti].push_back(baseline.schedule.makespan() / span);
            rec_gb[algo][ti].push_back(repair.schedule.makespan() / span);
            rec_back[algo][ti].push_back(repair.work_given_back);
          }
        }
      }
    }
  }
  for (const std::string& algo : scheduler_names()) {
    std::vector<std::string> row{algo};
    for (int ti = 0; ti < 2; ++ti)
      row.push_back(format_fixed(mean(rec_ngb[algo][ti]), 3) + " | " +
                    format_fixed(mean(rec_gb[algo][ti]), 3) + " | " +
                    format_fixed(mean(rec_back[algo][ti]), 1));
    rec_table.add_row(row);
  }
  emit(rec_table, cfg);
  if (validate) {
    FLB_REQUIRE(strict_improvement[0],
                "give-back never strictly improved a repair under the "
                "clique");
    FLB_REQUIRE(strict_improvement[1],
                "give-back never strictly improved a repair under the "
                "routed mesh");
  }

  std::cout << "\n(the give-back ratio is never worse by construction — "
               "repair keeps the better of the two continuations — and "
               "work migrates back whenever the rejoined processor's "
               "admission instant plus cold re-fetches still beat the "
               "degraded queue)\n";

  // --- Sweep 5 (--online): oracle repair vs the event-driven controller ---
  if (args.has("online")) {
    std::cout << "\nOnline recovery sweep: the same kill/rejoin episode, "
              << "but the controller (flb::runtime) never reads the fault "
              << "plan — it observes the simulator's event stream and "
              << "re-repairs at each observation. Cells: oracle planned "
              << "ratio (one-shot repair with the full plan) | online "
              << "executed ratio | gap | mean repair invocations | mean "
              << "events observed.\n\n";

    Table on_table(
        {"algorithm", "oracle", "online", "gap", "repairs", "events"});
    std::map<std::string, std::vector<double>> on_oracle, on_online, on_reps,
        on_evts;
    std::string episode_digests;
    std::size_t episodes = 0;
    for (const std::string& workload : cfg.workloads) {
      for (double ccr : cfg.ccrs) {
        for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
          TaskGraph g = make_graph(workload, ccr, seed);
          for (const std::string& algo : scheduler_names()) {
            auto sched = make_scheduler(algo, seed);
            Schedule nominal = sched->run(g, procs);
            const Cost span = nominal.makespan();

            FaultPlan plan;
            plan.seed = seed;
            plan.failures.push_back({victim, 0.1 * span});
            plan.rejoins.push_back({victim, 0.35 * span});

            // The oracle: one repair, computed with the whole plan.
            SimOptions opts;
            opts.faults = &plan;
            SimResult partial = simulate(g, nominal, opts);
            RepairResult oracle = repair_schedule(g, nominal, partial, plan);

            runtime::RuntimeOptions ropts;
            ropts.validate = validate;
            runtime::RuntimeResult online =
                runtime::run_online_recovery(g, nominal, plan, ropts);
            if (validate) {
              FLB_REQUIRE(online.complete,
                          algo + ": online recovery left unfinished tasks "
                                 "on " + g.name());
              runtime::RuntimeResult again =
                  runtime::run_online_recovery(g, nominal, plan, ropts);
              FLB_REQUIRE(again.event_digest == online.event_digest &&
                              again.schedule_digest == online.schedule_digest,
                          algo + ": online recovery was not deterministic "
                                 "on " + g.name());
              require_audit_clean(g, plan, online, ropts,
                                  algo + ": online episode");
            }

            on_oracle[algo].push_back(oracle.schedule.makespan() / span);
            on_online[algo].push_back(online.makespan / span);
            on_reps[algo].push_back(
                static_cast<double>(online.repairs.size()));
            on_evts[algo].push_back(
                static_cast<double>(online.events_observed));
            episode_digests += hex64(online.event_digest) + " " +
                               hex64(online.schedule_digest) + "\n";
            ++episodes;
          }
        }
      }
    }
    for (const std::string& algo : scheduler_names()) {
      std::vector<std::string> row{algo};
      row.push_back(format_fixed(mean(on_oracle[algo]), 3));
      row.push_back(format_fixed(mean(on_online[algo]), 3));
      row.push_back(
          format_fixed(mean(on_online[algo]) - mean(on_oracle[algo]), 3));
      row.push_back(format_fixed(mean(on_reps[algo]), 1));
      row.push_back(format_fixed(mean(on_evts[algo]), 1));
      on_table.add_row(row);
    }
    emit(on_table, cfg);

    std::cout << "\nonline sweep digest: "
              << hex64(fnv1a_digest(episode_digests)) << " over "
              << episodes << " episodes (chains every episode's event-log "
              << "and final-schedule digests; byte-stable per seed — the "
              << "CI determinism job diffs two runs)\n";
    std::cout << "\n(the oracle column is the planned continuation of a "
                 "repair that read the full plan; the online column is "
                 "what actually executed under the controller that could "
                 "not — two repairs instead of one: react to the death, "
                 "then give back on the observed rejoin. The gap can run "
                 "negative: the oracle commits its whole plan at the "
                 "failure horizon, while the controller re-plans at the "
                 "rejoin with the executed prefix in hand, so observed "
                 "history can beat predicted history)\n";
  }
  // --- Sweep 6 (--detector): recovery under an unreliable detector --------
  if (args.has("detector")) {
    std::cout << "\nUnreliable-detector sweep (FLB): processor " << victim
              << " dies for good at 10% of the nominal span, and the "
              << "controller cannot see machine liveness at all — it runs "
              << "on seeded lossy heartbeats "
              << "(period and loss probability swept below; suspect after "
              << "2 silent periods, confirm after 4). Cells are means over "
              << "the episodes: detection latency (death to confirmation, "
              << "in heartbeat periods) | false alarms | executed/nominal "
              << "makespan for the oracle, the perfect-event controller, "
              << "the speculative detector controller and the "
              << "confirm-then-repair detector controller | speculative "
              << "waste.\n\n";

    Table det_table({"period", "loss", "latency", "f-alarms", "oracle",
                     "perfect", "spec", "confirm", "waste"});
    struct DetCell {
      std::vector<double> latency, alarms, spec, conf, waste;
    };
    std::map<std::pair<double, double>, DetCell> cells;
    std::vector<double> det_oracle, det_perfect;
    std::string det_digests;
    std::size_t det_episodes = 0;

    for (const std::string& workload : cfg.workloads) {
      for (double ccr : cfg.ccrs) {
        for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
          TaskGraph g = make_graph(workload, ccr, seed);
          auto sched = make_scheduler("FLB", seed);
          Schedule nominal = sched->run(g, procs);
          const Cost span = nominal.makespan();

          // A *permanent* kill: no rejoin, so the detection latency must
          // be paid in full before a confirm-mode controller migrates
          // anything, and every exoneration in the table is a false alarm.
          FaultPlan plan;
          plan.seed = seed;
          plan.failures.push_back({victim, 0.1 * span});

          SimOptions opts;
          opts.faults = &plan;
          SimResult partial = simulate(g, nominal, opts);
          RepairResult oracle = repair_schedule(g, nominal, partial, plan);
          det_oracle.push_back(oracle.schedule.makespan() / span);

          runtime::RuntimeOptions perfect_opts;
          perfect_opts.validate = validate;
          runtime::RuntimeResult perfect =
              runtime::run_online_recovery(g, nominal, plan, perfect_opts);
          det_perfect.push_back(perfect.makespan / span);
          if (validate)
            require_audit_clean(g, plan, perfect, perfect_opts,
                                "perfect-sensor detector baseline");

          for (double pf : hb_periods) {
            for (double loss : hb_losses) {
              FaultPlan world = plan;
              world.heartbeat.period = pf * span;
              world.heartbeat.loss_probability = loss;

              runtime::RuntimeOptions spec_opts;
              spec_opts.validate = validate;
              spec_opts.use_detector = true;
              spec_opts.speculate = true;
              runtime::RuntimeResult spec =
                  runtime::run_online_recovery(g, nominal, world, spec_opts);

              runtime::RuntimeOptions conf_opts = spec_opts;
              conf_opts.speculate = false;
              runtime::RuntimeResult conf =
                  runtime::run_online_recovery(g, nominal, world, conf_opts);

              if (validate) {
                FLB_REQUIRE(spec.complete && conf.complete,
                            "detector recovery left unfinished tasks on " +
                                g.name());
                runtime::RuntimeResult again = runtime::run_online_recovery(
                    g, nominal, world, spec_opts);
                FLB_REQUIRE(
                    again.belief_digest == spec.belief_digest &&
                        again.event_digest == spec.event_digest &&
                        again.schedule_digest == spec.schedule_digest,
                    "detector recovery was not deterministic on " + g.name());
                require_audit_clean(g, world, spec, spec_opts,
                                    "speculative detector episode");
                require_audit_clean(g, world, conf, conf_opts,
                                    "confirm-then-repair detector episode");
              }

              DetCell& cell = cells[{pf, loss}];
              cell.latency.push_back(spec.mean_detection_latency /
                                     world.heartbeat.period);
              cell.alarms.push_back(
                  static_cast<double>(spec.false_alarms));
              cell.spec.push_back(spec.makespan / span);
              cell.conf.push_back(conf.makespan / span);
              cell.waste.push_back(spec.speculative_waste / span);
              det_digests += hex64(spec.belief_digest) + " " +
                             hex64(spec.event_digest) + " " +
                             hex64(spec.schedule_digest) + " " +
                             hex64(conf.belief_digest) + " " +
                             hex64(conf.schedule_digest) + "\n";
              ++det_episodes;
            }
          }
        }
      }
    }

    for (double pf : hb_periods) {
      for (double loss : hb_losses) {
        const DetCell& cell = cells[{pf, loss}];
        det_table.add_row({"p=" + format_compact(pf * 100) + "%",
                           format_compact(loss),
                           format_fixed(mean(cell.latency), 1),
                           format_fixed(mean(cell.alarms), 1),
                           format_fixed(mean(det_oracle), 3),
                           format_fixed(mean(det_perfect), 3),
                           format_fixed(mean(cell.spec), 3),
                           format_fixed(mean(cell.conf), 3),
                           format_fixed(mean(cell.waste), 3)});
      }
    }
    emit(det_table, cfg);

    std::cout << "\ndetector sweep digest: "
              << hex64(fnv1a_digest(det_digests)) << " over "
              << det_episodes << " episodes (chains every episode's "
              << "belief-stream, event-log and final-schedule digests; the "
              << "CI detector-determinism job diffs two runs)\n";

    if (validate) {
      // (a) Noise is never free, and the noisy controller converges on the
      // perfect-event one as the false-alarm rate goes to zero.
      for (double pf : hb_periods) {
        const double clean = mean(cells[{pf, hb_losses.front()}].spec);
        const double noisy = mean(cells[{pf, hb_losses.back()}].spec);
        FLB_REQUIRE(clean <= noisy + 0.02,
                    "a lossless detector at period fraction " +
                        format_compact(pf) +
                        " was beaten by the lossiest one");
        FLB_REQUIRE(clean <= 2.0 * mean(det_perfect) + 1e-9,
                    "the lossless detector at period fraction " +
                        format_compact(pf) +
                        " exceeded twice the perfect-event makespan");
      }
      // (b) At high detection latency, hedging at suspicion strictly beats
      // waiting for the confirmation.
      const double slow = hb_periods.back();
      FLB_REQUIRE(mean(cells[{slow, hb_losses.front()}].spec) <
                      mean(cells[{slow, hb_losses.front()}].conf),
                  "speculative repair did not beat confirm-then-repair at "
                  "the slowest heartbeat period");
    }

    std::cout << "\n(speculation hedges the suspicion window: the suspect's "
                 "queue drains elsewhere while its in-flight task keeps its "
                 "placement, so a confirmed death has already been repaired "
                 "and an exonerated one kept its progress — the confirm "
                 "column pays the full detection latency before migrating "
                 "anything)\n";

    // --- Failure-rate drift: the adaptive checkpoint interval tracks it --
    std::cout << "\nAdaptive-checkpoint drift scenario (FLB, first "
              << "workload): one early kill, then a late cluster of three, "
              << "estimated over a sliding window of 30% of the nominal "
              << "span. The windowed Young/Daly estimate must tighten as "
              << "the observed failure rate drifts up. Cells: first adapted "
              << "interval | last adapted interval | confirmations.\n\n";

    Table drift_table({"seed", "first tau", "last tau", "confirms"});
    FLB_REQUIRE(procs >= 6, "--detector needs --at-procs >= 6 for the "
                            "drift scenario");
    for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
      TaskGraph g =
          make_graph(cfg.workloads.front(), cfg.ccrs.front(), seed);
      auto sched = make_scheduler("FLB", seed);
      Schedule nominal = sched->run(g, procs);
      const Cost span = nominal.makespan();
      const Cost mean_comp =
          g.total_comp() / static_cast<Cost>(g.num_tasks());

      FaultPlan world;
      world.seed = seed;
      world.checkpoint = {0.3 * mean_comp, 0.05 * mean_comp};
      world.heartbeat.period = 0.02 * span;
      world.failures.push_back({victim, 0.12 * span});
      world.failures.push_back({static_cast<ProcId>(procs - 1), 0.60 * span});
      world.failures.push_back({static_cast<ProcId>(procs - 2), 0.63 * span});
      world.failures.push_back({static_cast<ProcId>(procs - 3), 0.66 * span});

      runtime::RuntimeOptions drift_opts;
      drift_opts.validate = validate;
      drift_opts.use_detector = true;
      drift_opts.adapt_checkpoint = true;
      drift_opts.failure_rate_window = 0.3 * span;
      runtime::RuntimeResult r =
          runtime::run_online_recovery(g, nominal, world, drift_opts);

      double first_tau = 0.0, last_tau = 0.0;
      for (const runtime::RepairInvocation& inv : r.repairs)
        if (inv.failure_rate > 0.0) {
          if (first_tau == 0.0) first_tau = inv.checkpoint_interval;
          last_tau = inv.checkpoint_interval;
        }
      drift_table.add_row({std::to_string(seed), format_fixed(first_tau, 3),
                           format_fixed(last_tau, 3),
                           std::to_string(r.confirmations)});
      if (validate) {
        FLB_REQUIRE(r.complete, "drift scenario left unfinished tasks");
        FLB_REQUIRE(first_tau > 0.0 && last_tau > 0.0,
                    "the drift scenario never adapted the interval");
        // (c) The late cluster raises the windowed rate estimate, so the
        // re-derived interval must tighten.
        FLB_REQUIRE(last_tau < first_tau,
                    "the adapted interval did not tighten under the late "
                    "failure cluster");
      }
    }
    emit(drift_table, cfg);

    std::cout << "\n(tau = sqrt(2 * overhead / lambda): a quiet window "
                 "relaxes the interval, the late cluster tightens it — the "
                 "policy each repair installs for the work it re-plans)\n";
  }

  // --- Sweep 7 (--partition): partial partitions, gossip quorum, tuning ---
  if (args.has("partition")) {
    FLB_REQUIRE(procs >= 4, "--partition needs --at-procs >= 4");
    FLB_REQUIRE(victim != 0 && victim + 1 < procs,
                "--partition partitions the controller's link to --victim "
                "and kills processor P-1 in the self-tuning scenario; "
                "--victim must be in 1 .. --at-procs - 2");
    const double hb_pf = hb_periods.front();
    FLB_REQUIRE(hb_pf * 16.0 < 1.0,
                "--partition needs the first --hb-period fraction below "
                "1/16 so the partition windows fit inside the nominal span");

    std::cout << "\nPartial-partition sweep (FLB): the controller's link to "
              << "processor " << victim << " goes dark while the processor "
              << "keeps computing — the network lies to observer 0 alone. "
              << "A short cut (3 heartbeat periods) makes the "
              << "single-observer detector manufacture a false alarm; the "
              << "gossip aggregator (quorum 2) polls the other observers, "
              << "who still hear the victim directly. A long cut (to 50% "
              << "of the span, on a tighter 4-processor machine where the "
              << "victim is a quarter of the capacity) then compares the "
              << "two repair disciplines on the same episode: "
              << "confirm-then-repair treats the silence as a death and "
              << "re-executes (kill), quorum detection masks the victim "
              << "from new placements only and reconciles on heal. Cells: "
              << "false alarms 1-obs | quorum, kill ratio, heal ratio, "
              << "mean repairs that masked an unreachable processor.\n\n";

    Table pt_table({"workload", "f-alarms 1-obs|quorum", "kill", "heal",
                    "masked repairs"});
    std::string pt_digests;
    std::size_t pt_episodes = 0;
    for (const std::string& workload : cfg.workloads) {
      std::vector<double> fa_single, fa_quorum, kill_ratio, heal_ratio,
          masked;
      for (double ccr : cfg.ccrs) {
        for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
          TaskGraph g = make_graph(workload, ccr, seed);
          auto sched = make_scheduler("FLB", seed);
          Schedule nominal = sched->run(g, procs);
          const Cost span = nominal.makespan();
          const Cost period = hb_pf * span;

          // The short cut: the victim's last audible heartbeat is beat 10,
          // beats 11 and 12 die on the partitioned link, beat 13 arrives —
          // a 3-period silence that crosses the suspect threshold (2) but
          // exonerates before the confirm threshold (4). Nobody is at
          // fault and nothing is lost; only observer 0's view lies.
          FaultPlan blip;
          blip.seed = seed;
          blip.heartbeat.period = period;
          blip.partitions.push_back(
              {0, victim, "", "", 10.25 * period, 12.25 * period});

          runtime::RuntimeOptions single_opts;
          single_opts.validate = validate;
          single_opts.use_detector = true;
          single_opts.speculate = true;
          runtime::RuntimeResult single =
              runtime::run_online_recovery(g, nominal, blip, single_opts);

          runtime::RuntimeOptions quorum_opts = single_opts;
          quorum_opts.use_gossip = true;
          quorum_opts.quorum = 2;
          runtime::RuntimeResult quorum =
              runtime::run_online_recovery(g, nominal, blip, quorum_opts);

          if (validate) {
            FLB_REQUIRE(single.complete && quorum.complete,
                        "partition blip left unfinished tasks on " +
                            g.name());
            FLB_REQUIRE(single.false_alarms >= 1,
                        "the partitioned link never manufactured a false "
                        "alarm for the single-observer detector on " +
                            g.name());
            FLB_REQUIRE(quorum.false_alarms == 0,
                        "the quorum detector raised a cluster-wide false "
                        "alarm from one partitioned link on " + g.name());
            require_audit_clean(g, blip, single, single_opts,
                                "single-observer blip episode");
            require_audit_clean(g, blip, quorum, quorum_opts,
                                "quorum blip episode");
          }
          fa_single.push_back(static_cast<double>(single.false_alarms));
          fa_quorum.push_back(static_cast<double>(quorum.false_alarms));
          for (const runtime::RuntimeResult* r : {&single, &quorum})
            pt_digests += hex64(r->belief_digest) + " " +
                          hex64(r->event_digest) + " " +
                          hex64(r->schedule_digest) + "\n";

          // The long cut: same lying link, but the silence outlasts the
          // confirm threshold (4 periods) and the link stays dark until
          // 50% of the span — and this time a *real* kill lands on
          // another processor while the cut is open, so both controllers
          // must re-plan mid-partition. Victim and casualty fall silent
          // after the same last beat (10), so both disciplines react at
          // the same detector instants and any re-planning gain is
          // shared. The single-observer controller cannot tell the two
          // silences apart: it buries both — re-executing the healthy
          // victim's queue on the survivors and re-admitting the victim
          // with (hypothesized) cold caches when it is heard from again.
          // The quorum controller knows only the casualty died: the
          // victim is merely masked from the kill repair's new placements
          // (its installed queue keeps producing behind the cut, messages
          // crossing it reroute), and the heal triggers one
          // reconciliation re-balance that re-admits it warm. The
          // comparison runs on the communication-light episode only (the
          // sweep's first ccr): reconciliation's edge is keeping a
          // healthy processor's capacity, so it shows where capacity
          // binds — in a comm-dominated schedule on an over-provisioned
          // machine, abandoning the processor behind the rerouting cut is
          // genuinely the better discipline, and asserting dominance
          // there would be asserting a falsehood.
          if (ccr == cfg.ccrs.front()) {
            FaultPlan cut;
            cut.seed = seed;
            cut.heartbeat.period = period;
            cut.partitions.push_back(
                {0, victim, "", "", 10.25 * period, 0.5 * span});
            cut.failures.push_back(
                {static_cast<ProcId>(procs - 1), 10.75 * period});

            runtime::RuntimeOptions kill_opts;
            kill_opts.validate = validate;
            kill_opts.use_detector = true;
            kill_opts.speculate = false;
            runtime::RuntimeResult kill =
                runtime::run_online_recovery(g, nominal, cut, kill_opts);

            // Confirm-then-repair on both arms: the only discipline
            // difference left is what the controller believes about the
            // victim — dead (kill) or merely unreachable (heal).
            runtime::RuntimeOptions heal_opts = quorum_opts;
            heal_opts.speculate = false;
            runtime::RuntimeResult heal =
                runtime::run_online_recovery(g, nominal, cut, heal_opts);

            if (validate) {
              FLB_REQUIRE(kill.complete && heal.complete,
                          "partition cut left unfinished tasks on " +
                              g.name());
              FLB_REQUIRE(heal.makespan <= kill.makespan + 1e-9,
                          "partition-heal reconciliation was worse than "
                          "kill-and-reexecute on " + g.name());
              runtime::RuntimeResult again =
                  runtime::run_online_recovery(g, nominal, cut, heal_opts);
              FLB_REQUIRE(again.belief_digest == heal.belief_digest &&
                              again.event_digest == heal.event_digest &&
                              again.schedule_digest == heal.schedule_digest,
                          "partition-aware recovery was not deterministic "
                          "on " + g.name());
              require_audit_clean(g, cut, kill, kill_opts,
                                  "kill-discipline cut episode");
              require_audit_clean(g, cut, heal, heal_opts,
                                  "heal-discipline cut episode");
            }

            kill_ratio.push_back(kill.makespan / span);
            heal_ratio.push_back(heal.makespan / span);
            double masked_here = 0.0;
            for (const runtime::RepairInvocation& inv : heal.repairs)
              if (inv.unreachable > 0) masked_here += 1.0;
            masked.push_back(masked_here);
            for (const runtime::RuntimeResult* r : {&kill, &heal})
              pt_digests += hex64(r->belief_digest) + " " +
                            hex64(r->event_digest) + " " +
                            hex64(r->schedule_digest) + "\n";
          }
          ++pt_episodes;
        }
      }
      pt_table.add_row({workload,
                        format_fixed(mean(fa_single), 1) + " | " +
                            format_fixed(mean(fa_quorum), 1),
                        format_fixed(mean(kill_ratio), 3),
                        format_fixed(mean(heal_ratio), 3),
                        format_fixed(mean(masked), 1)});
    }
    emit(pt_table, cfg);

    std::cout << "\n(the quorum column stays at zero by construction: a "
                 "suspicion needs two observers with a live path to the "
                 "subject, and only observer 0 sits behind the cut. The "
                 "heal column keeps the victim's in-flight work and its "
                 "finished outputs; the kill column re-executes both and "
                 "re-fetches cold inputs when the 'dead' processor is "
                 "heard from again)\n";

    // --- Self-tuning scenario: an exoneration burst raises the suspect
    // threshold, a real kill still confirms, and quiet decays it back. ---
    std::cout << "\nSelf-tuning detector scenario (FLB, first workload): "
              << "repeated short cuts of the controller's link to "
              << "processor " << victim << " manufacture an exoneration "
              << "burst — silences of 3, 4 and 5 heartbeat periods, each "
              << "outlasting the tuned suspect threshold of its day — so "
              << "every false alarm raises the threshold x1.5 (capped "
              << "below the confirm threshold of 8). A fourth 5-period cut "
              << "is absorbed by the raised threshold; a real kill of "
              << "processor " << procs - 1 << " at 75% still confirms, and "
              << "the quiet window after the burst decays the threshold "
              << "back. Cells: the threshold (in periods) after every "
              << "trace step.\n\n";

    Table st_table({"seed", "thresholds", "peak", "final", "f-alarms",
                    "suppressed", "confirms"});
    for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
      TaskGraph g =
          make_graph(cfg.workloads.front(), cfg.ccrs.front(), seed);
      auto sched = make_scheduler("FLB", seed);
      Schedule nominal = sched->run(g, procs);
      const Cost span = nominal.makespan();
      const Cost period = hb_pf * span;

      FaultPlan world;
      world.seed = seed;
      world.heartbeat.period = period;
      world.heartbeat.confirm_after = 8.0;  // headroom for the raises
      world.partitions.push_back(
          {0, victim, "", "", 10.25 * period, 12.25 * period});
      world.partitions.push_back(
          {0, victim, "", "", 15.25 * period, 18.25 * period});
      world.partitions.push_back(
          {0, victim, "", "", 20.25 * period, 24.25 * period});
      world.partitions.push_back(
          {0, victim, "", "", 27.25 * period, 31.25 * period});
      world.failures.push_back(
          {static_cast<ProcId>(procs - 1), 0.75 * span});

      runtime::RuntimeOptions tune_opts;
      tune_opts.validate = validate;
      tune_opts.use_detector = true;
      tune_opts.speculate = true;
      tune_opts.self_tune = true;
      tune_opts.tune_window = 0.1 * span;
      runtime::RuntimeResult r =
          runtime::run_online_recovery(g, nominal, world, tune_opts);

      std::string steps;
      double peak = world.heartbeat.suspect_after;
      for (const auto& entry : r.suspect_trace) {
        if (!steps.empty()) steps += " > ";
        steps += format_fixed(entry.second, 2);
        peak = std::max(peak, entry.second);
      }
      st_table.add_row(
          {std::to_string(seed), steps.empty() ? "-" : steps,
           format_fixed(peak, 2),
           format_fixed(r.suspect_trace.empty()
                            ? world.heartbeat.suspect_after
                            : r.suspect_trace.back().second,
                        2),
           std::to_string(r.false_alarms),
           std::to_string(r.suppressed_alarms),
           std::to_string(r.confirmations)});
      pt_digests += hex64(r.belief_digest) + " " + hex64(r.event_digest) +
                    " " + hex64(r.schedule_digest) + "\n";
      ++pt_episodes;

      if (validate) {
        FLB_REQUIRE(r.complete,
                    "self-tuning scenario left unfinished tasks");
        FLB_REQUIRE(r.false_alarms >= 3,
                    "the exoneration burst did not produce three false "
                    "alarms");
        FLB_REQUIRE(r.suppressed_alarms >= 1,
                    "the raised threshold never absorbed the fourth cut's "
                    "suspicion");
        FLB_REQUIRE(r.confirmations >= 1,
                    "the real kill was never confirmed under the tuned "
                    "threshold");
        FLB_REQUIRE(r.suspect_trace.size() >= 4,
                    "the suspect-threshold trace is too short to show the "
                    "burst and the decay");
        FLB_REQUIRE(
            r.suspect_trace[0].second > world.heartbeat.suspect_after &&
                r.suspect_trace[1].second > r.suspect_trace[0].second &&
                r.suspect_trace[2].second > r.suspect_trace[1].second,
            "the self-tuned suspect threshold did not strictly increase "
            "across the exoneration burst");
        FLB_REQUIRE(r.suspect_trace.back().second < peak - 1e-12,
                    "the self-tuned suspect threshold did not decay after "
                    "the burst");
      }
    }
    emit(st_table, cfg);

    std::cout << "\npartition sweep digest: "
              << hex64(fnv1a_digest(pt_digests)) << " over "
              << pt_episodes << " episodes (chains every episode's "
              << "belief-stream, event-log and final-schedule digests; "
              << "the CI partition-determinism job diffs two runs)\n";

    std::cout << "\n(each false alarm multiplies the suspect threshold; a "
                 "silence the raised threshold would outlast is consumed "
                 "as passive knowledge instead of a speculative repair, "
                 "and once no alarm lands within the tune window the "
                 "threshold steps back down — the detector pays latency "
                 "only while the network is actually lying)\n";
  }
  return 0;
}
