// sched_fig2: one thread looping over warm FlbScheduler::run_into calls on
// the paper's Fig. 2 mix (LU, Laplace, Stencil at V~2000, CCR 0.2 and 5,
// eight graph seeds, P in {2, 4, 8, 16, 32}). The per-op working set fits
// in cache, so the FLB engine does nearly all the work. Its traced run also
// probes the per-task cost at V~1e6 and the recovery layers
// (recovery_probe.cpp).

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "flb/algos/fcp.hpp"
#include "flb/algos/mcp.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"
#include "flb/workloads/workloads.hpp"

namespace perfbench {
namespace {

using flb::Cost;
using flb::ProcId;
using flb::TaskGraph;

// Graphs per (family, CCR) cell of sched_fig2: enough that the slowest 1%
// of its 240 (graph, P) cases, which sets the p99, is several cases.
constexpr int kFig2SeedsPerCell = 8;

struct Case {
  std::size_t graph = 0;
  ProcId procs = 1;
  Cost makespan = 0.0;  ///< the set-up run's makespan; every op must match
};

/// The graphs and (graph, P) cases of a run, plus the warm scheduler and
/// schedule buffer every op reuses.
struct SchedState {
  std::vector<TaskGraph> graphs;
  std::vector<std::string> family;  ///< per graph
  std::vector<Case> cases;
  flb::FlbScheduler scheduler;
  flb::Schedule buffer{1, 0};
};

/// One timed pass: cases round-robin for `seconds`, each op's schedule
/// checked outside the timed region. Records per-op CPU and wall times in
/// us, the case each belongs to, and the reference kernel time measured
/// before each round (a round runs every case once).
struct LoopOut {
  std::vector<double> op_us;  ///< thread CPU time
  std::vector<double> wall_us;
  std::vector<std::size_t> case_of;
  std::vector<double> round_ref_ms;
  std::size_t ops_per_round = 1;
  double tasks = 0.0;

  /// Op `i`'s CPU time at reference speed, in us.
  [[nodiscard]] double ref_op_us(std::size_t i) const {
    return at_ref_speed(op_us[i], round_ref_ms[i / ops_per_round]);
  }
};

LoopOut op_loop(SchedState& st, double seconds, Tracer& tracer,
                OpTally& tally) {
  LoopOut out;
  out.ops_per_round = st.cases.size();
  const auto t_end = deadline(seconds);
  // The deadline is checked at round boundaries only, so every case runs
  // equally often and the mix does not depend on where time ran out.
  for (std::size_t i = 0; i % st.cases.size() != 0 || Clock::now() < t_end;
       ++i) {
    const std::size_t c = i % st.cases.size();
    if (c == 0) out.round_ref_ms.push_back(ref_kernel_ms());
    const Case& cs = st.cases[c];
    const TaskGraph& g = st.graphs[cs.graph];
    tracer.next_op();
    Scope op(tracer, "bench.op");
    const auto t0 = Clock::now();
    const double us = cpu_us(tracer, "core.run_into", [&] {
      st.scheduler.run_into(g, cs.procs, st.buffer);
    });
    out.wall_us.push_back(seconds_since(t0) * 1e6);
    bool ok = false;
    {
      Scope s(tracer, "sched.validate");
      ok = schedule_ok(g, st.buffer, cs.makespan);
    }
    tally.record(ok, "schedule of " + g.name() + " on P=" +
                         std::to_string(cs.procs) + " failed validation");
    out.op_us.push_back(us);
    out.case_of.push_back(c);
    out.tasks += g.num_tasks();
  }
  return out;
}

/// Set-up: generate, then schedule every case once (the nominal schedule,
/// which also warms scratch and buffer).
void setup(SchedState& st, Tracer& tracer,
           const std::vector<std::pair<std::string, flb::WorkloadParams>>& spec,
           std::size_t tasks, const std::vector<ProcId>& procs) {
  st.graphs.clear();
  st.family.clear();
  st.cases.clear();
  for (const auto& [fam, params] : spec) {
    Scope s(tracer, "workloads.generate");
    st.graphs.push_back(flb::make_workload(fam, tasks, params));
    st.family.push_back(fam);
  }
  for (std::size_t g = 0; g < st.graphs.size(); ++g)
    for (ProcId p : procs) {
      Scope s(tracer, "core.run_into");
      st.scheduler.run_into(st.graphs[g], p, st.buffer);
      st.cases.push_back({g, p, st.buffer.makespan()});
    }
}

/// The end-to-end metrics from the set-up state and the measured loop.
/// Op times and throughput are at reference speed (see kRefNominalMs); the
/// stamp also carries the measured CPU and wall medians.
void e2e_metrics(const SchedState& st, const LoopOut& loop, Result& r) {
  std::vector<double> op_ms;
  double op_s = 0.0;
  for (std::size_t i = 0; i < loop.op_us.size(); ++i) {
    op_ms.push_back(loop.ref_op_us(i) / 1e3);
    op_s += loop.ref_op_us(i) / 1e6;
  }
  const Summary lat = summarize(op_ms);
  r.metrics["latency_ms_p50"] = {lat.p50, "ms"};
  r.metrics["tasks_per_s"] = {loop.tasks / op_s, "tasks/s"};
  stamp_samples(lat, summarize(loop.wall_us).p50 / 1e3, r);
  stamp_reference(summarize(loop.op_us).p50 / 1e3,
                  summarize(loop.round_ref_ms).p50, r);

  // Quality of every case's schedule (the set-up makespan, which every op
  // reproduced bit for bit).
  double nsl = 0.0;
  std::vector<Cost> ccp(st.graphs.size());
  for (std::size_t g = 0; g < st.graphs.size(); ++g)
    ccp[g] = flb::computation_critical_path(st.graphs[g]);
  for (const Case& c : st.cases) nsl += c.makespan / ccp[c.graph];
  r.metrics["nsl_mean"] = {nsl / static_cast<double>(st.cases.size()),
                           "ratio"};
}

/// Untraced loop for the e2e metrics, or — in a traced run — an untraced
/// half and a traced half whose mean op times give the tracing overhead.
LoopOut measure(SchedState& st, const RunConfig& cfg, Tracer& tracer,
                Result& r) {
  if (!cfg.trace) {
    Tracer off(false);
    return op_loop(st, cfg.seconds, off, r.tally);
  }
  Tracer off(false);
  const LoopOut plain = op_loop(st, cfg.seconds / 2, off, r.tally);
  LoopOut traced = op_loop(st, cfg.seconds / 2, tracer, r.tally);
  auto mean_ref_op_us = [](const LoopOut& l) {
    double sum = 0.0;
    for (std::size_t i = 0; i < l.op_us.size(); ++i) sum += l.ref_op_us(i);
    return sum / static_cast<double>(l.op_us.size());
  };
  r.metrics["trace.overhead_frac"] = {
      mean_ref_op_us(traced) / mean_ref_op_us(plain) - 1.0, "frac"};
  r.metrics["bench.ref_kernel_ms"] = {summarize(traced.round_ref_ms).p50,
                                      "ms"};
  std::vector<double> op_ms;
  std::vector<double> ratio;
  for (std::size_t i = 0; i < traced.op_us.size(); ++i) {
    op_ms.push_back(traced.op_us[i] / 1e3);
    ratio.push_back(traced.wall_us[i] / traced.op_us[i]);
  }
  op_tail_metrics(summarize(op_ms), summarize(ratio).p50, r);
  return traced;
}

std::vector<std::pair<std::string, flb::WorkloadParams>> fig2_spec(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, flb::WorkloadParams>> spec;
  std::uint64_t stream = 0;
  for (const char* fam : {"LU", "Laplace", "Stencil"})
    for (Cost ccr : {0.2, 5.0})
      for (int k = 0; k < kFig2SeedsPerCell; ++k) {
        flb::WorkloadParams p;
        p.ccr = ccr;
        p.seed = mix_seed(seed, stream++);
        spec.push_back({fam, p});
      }
  return spec;
}

/// Per-task cost at V~1e6, where CSR layout, Schedule timelines and arena
/// growth dominate instead of the engine's heaps: Stencil (E~3e6) at the
/// paper's low CCR and LU (E~2e6) at its high one, P = 8, whole rounds for
/// about `seconds`. A probe of the traced run only: on a shared host the
/// run time of these memory-bound runs drifted by a third between sets of
/// runs, more than any end-to-end bound allows.
void large_graph_probe(std::uint64_t seed, double seconds, Tracer& tracer,
                       Result& r) {
  std::vector<std::pair<std::string, flb::WorkloadParams>> spec(2);
  spec[0].first = "Stencil";
  spec[0].second.ccr = 0.2;
  spec[0].second.seed = mix_seed(seed, 1000);
  spec[1].first = "LU";
  spec[1].second.ccr = 5.0;
  spec[1].second.seed = mix_seed(seed, 1001);
  SchedState big;
  setup(big, tracer, spec, 1'000'000, {8});
  const LoopOut loop = op_loop(big, seconds, tracer, r.tally);
  std::map<std::string, std::vector<double>> ns_per_task;
  for (std::size_t i = 0; i < loop.op_us.size(); ++i) {
    const Case& c = big.cases[loop.case_of[i]];
    ns_per_task[big.family[c.graph]].push_back(
        loop.op_us[i] * 1e3 / big.graphs[c.graph].num_tasks());
  }
  for (const char* fam : {"Stencil", "LU"})
    r.metrics[std::string("core.ns_per_task.") + fam] = {
        summarize(ns_per_task[fam]).p50, "ns"};
}

}  // namespace

Result run_sched_fig2(const RunConfig& cfg, Tracer& tracer) {
  Result r;
  r.stamp.push_back({"pinned_cpu", std::to_string(pin_to_current_cpu())});
  SchedState st;
  const std::vector<ProcId> procs{2, 4, 8, 16, 32};
  const auto spec = fig2_spec(cfg.seed);
  r.metrics["setup_s"] = {
      median_setup_s(7, [&] { setup(st, tracer, spec, 2000, procs); }), "s"};
  stamp_graphs(st.graphs, r);
  r.stamp.push_back({"P", "2,4,8,16,32"});
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const LoopOut loop = measure(st, cfg, tracer, r);
  if (!cfg.trace) {
    e2e_metrics(st, loop, r);
    return r;
  }

  // Per-layer: the P and family splits of the traced loop, the reference
  // algorithms on the same case mix, and the engine's counters at P = 8.
  std::map<std::string, std::vector<double>> split;
  for (std::size_t i = 0; i < loop.op_us.size(); ++i) {
    const Case& c = st.cases[loop.case_of[i]];
    split["P" + std::to_string(c.procs)].push_back(loop.op_us[i]);
    split[st.family[c.graph]].push_back(loop.op_us[i]);
  }
  for (const char* key : {"P2", "P8", "P32", "LU", "Laplace", "Stencil"})
    r.metrics[std::string("core.run_us_p50.") + key] = {
        summarize(split[key]).p50, "us"};

  std::vector<double> mcp_us;
  std::vector<double> fcp_us;
  for (int rep = 0; rep < 3; ++rep)
    for (const Case& c : st.cases) {
      const TaskGraph& g = st.graphs[c.graph];
      flb::Schedule m(1, 0);
      flb::Schedule f(1, 0);
      mcp_us.push_back(cpu_us(tracer, "algos.mcp", [&] {
        m = flb::McpScheduler().run(g, c.procs);
      }));
      fcp_us.push_back(cpu_us(tracer, "algos.fcp", [&] {
        f = flb::FcpScheduler().run(g, c.procs);
      }));
      r.tally.record(flb::is_valid_schedule(g, m) && flb::is_valid_schedule(g, f),
                     "MCP or FCP schedule of " + g.name() + " is invalid");
    }
  const double flb_p50 = summarize(loop.op_us).p50;
  const double mcp_p50 = summarize(mcp_us).p50;
  const double fcp_p50 = summarize(fcp_us).p50;
  r.metrics["algos.mcp_us_p50"] = {mcp_p50, "us"};
  r.metrics["algos.fcp_us_p50"] = {fcp_p50, "us"};
  r.metrics["algos.flb_over_mcp"] = {flb_p50 / mcp_p50, "ratio"};
  r.metrics["algos.flb_over_fcp"] = {flb_p50 / fcp_p50, "ratio"};
  graph_probes(st.graphs, 5, tracer, r);
  core_stats(st.graphs, 8, tracer, r);
  large_graph_probe(cfg.seed, 3.0, tracer, r);
  recovery_probe(cfg.seed, 5.0, tracer, r);
  return r;
}

}  // namespace perfbench
