// Recovery-layer probe of sched_fig2's traced run: runtime::run_online_recovery
// episodes with validation on (the product default) on LU, Laplace and
// Stencil at V~500, P = 8. Per graph, three episodes: an online kill/rejoin
// (fail at 10%, rejoin at 35% of the span), a detector episode (permanent
// kill, lossy heartbeats, speculation) and a partition blip under the gossip
// quorum of 2. The FLB engine is a small share of an episode; the
// controller loop, simulator, repair, linter and auditor are the rest.
//
// Not a workload of its own: the episodes are cache-hungry, and on a
// shared host their time switched between two levels about 1.6x apart from
// run to run, which no end-to-end bound can hold.

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "flb/analysis/audit.hpp"
#include "flb/analysis/lint.hpp"
#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/workloads/workloads.hpp"

namespace perfbench {
namespace {

using flb::Cost;
using flb::TaskGraph;
namespace runtime = flb::runtime;
namespace analysis = flb::analysis;

constexpr flb::ProcId kProcs = 8;
constexpr flb::ProcId kVictim = 1;
constexpr std::size_t kTasks = 500;
constexpr std::size_t kSeedsPerCell = 2;  // graphs per (family, CCR)
constexpr std::array<const char*, 3> kKinds{"online", "detector",
                                            "partition"};

struct Episode {
  std::size_t graph = 0;
  std::size_t kind = 0;  ///< index into kKinds
  flb::FaultPlan plan;
  runtime::RuntimeOptions options;
  analysis::AuditOptions audit;
  // Reference outcome of the set-up run; every op must reproduce it.
  std::uint64_t event_digest = 0;
  std::uint64_t schedule_digest = 0;
  std::uint64_t belief_digest = 0;
  Cost makespan = 0.0;
  std::size_t repairs = 0;
  std::size_t events_observed = 0;
  std::size_t false_alarms = 0;
  std::size_t confirmations = 0;
  std::size_t speculative_tasks = 0;
};

struct RecoverState {
  std::vector<TaskGraph> graphs;
  std::vector<flb::Schedule> nominal;
  std::vector<Episode> episodes;
};

Episode make_episode(std::size_t graph, std::size_t kind, Cost span,
                     std::uint64_t plan_seed) {
  Episode ep;
  ep.graph = graph;
  ep.kind = kind;
  ep.plan.seed = plan_seed;
  if (kind == 0) {
    ep.plan.failures.push_back({kVictim, 0.10 * span});
    ep.plan.rejoins.push_back({kVictim, 0.35 * span});
  } else if (kind == 1) {
    ep.plan.failures.push_back({kVictim, 0.10 * span});
    ep.plan.heartbeat.period = 0.06 * span;
    ep.plan.heartbeat.loss_probability = 0.1;
    ep.options.use_detector = true;
    ep.options.speculate = true;
  } else {
    // Observer 0 loses beats 11 and 12 of the victim: a 3-period silence
    // that a single observer would suspect, but the quorum does not.
    const Cost period = 0.02 * span;
    ep.plan.heartbeat.period = period;
    ep.plan.partitions.push_back(
        {0, kVictim, "", "", 10.25 * period, 12.25 * period});
    ep.options.use_detector = true;
    ep.options.speculate = true;
    ep.options.use_gossip = true;
    ep.options.quorum = 2;
  }
  ep.audit.debounce = ep.options.debounce;
  ep.audit.use_detector = ep.options.use_detector;
  ep.audit.use_gossip = ep.options.use_gossip;
  ep.audit.quorum = ep.options.quorum;
  return ep;
}

void setup(RecoverState& st, std::uint64_t seed, Tracer& tracer) {
  st.graphs.clear();
  st.nominal.clear();
  st.episodes.clear();
  std::uint64_t stream = 0;
  for (const char* fam : {"LU", "Laplace", "Stencil"})
    for (Cost ccr : {0.2, 5.0})
      for (std::size_t k = 0; k < kSeedsPerCell; ++k) {
        flb::WorkloadParams p;
        p.ccr = ccr;
        p.seed = mix_seed(seed, stream++);
        Scope s(tracer, "workloads.generate");
        st.graphs.push_back(flb::make_workload(fam, kTasks, p));
      }
  flb::FlbScheduler flb_sched;
  for (std::size_t g = 0; g < st.graphs.size(); ++g) {
    {
      Scope s(tracer, "core.run");
      st.nominal.push_back(flb_sched.run(st.graphs[g], kProcs));
    }
    const Cost span = st.nominal.back().makespan();
    for (std::size_t kind = 0; kind < kKinds.size(); ++kind)
      st.episodes.push_back(
          make_episode(g, kind, span, mix_seed(seed, 1000 + g)));
  }
  // Warm-up: every episode once; its outcome is the reference. An episode
  // that throws keeps an all-zero reference, so each of its ops fails the
  // check instead of aborting the run.
  for (Episode& ep : st.episodes) {
    Scope s(tracer, "runtime.run_online_recovery");
    std::optional<runtime::RuntimeResult> res;
    try {
      res.emplace(runtime::run_online_recovery(
          st.graphs[ep.graph], st.nominal[ep.graph], ep.plan, ep.options));
    } catch (const std::exception&) {
      continue;
    }
    ep.event_digest = res->event_digest;
    ep.schedule_digest = res->schedule_digest;
    ep.belief_digest = res->belief_digest;
    ep.makespan = res->makespan;
    ep.repairs = res->repairs.size();
    ep.events_observed = res->events_observed;
    ep.false_alarms = res->false_alarms;
    ep.confirmations = res->confirmations;
    ep.speculative_tasks = res->speculative_tasks;
  }
}

/// The per-episode check: complete, a clean audit, and the reference
/// outcome reproduced bit for bit.
bool episode_ok(const RecoverState& st, const Episode& ep,
                const runtime::RuntimeResult& res, Tracer& tracer) {
  const TaskGraph& g = st.graphs[ep.graph];
  bool clean = false;
  {
    Scope s(tracer, "analysis.audit_runtime");
    clean = analysis::audit_runtime(g, ep.plan, res, ep.audit).clean();
  }
  return clean && res.complete && res.event_digest == ep.event_digest &&
         res.schedule_digest == ep.schedule_digest &&
         res.belief_digest == ep.belief_digest;
}

struct LoopOut {
  std::vector<double> op_ms;  ///< thread CPU time
  std::vector<std::size_t> episode_of;
  double op_s = 0.0;  ///< summed CPU time
};

/// Episodes round-robin for `seconds`, in whole rounds so every episode
/// runs equally often and the mix does not depend on where time ran out.
LoopOut op_loop(RecoverState& st, double seconds, Tracer& tracer,
                OpTally& tally) {
  static constexpr std::array<const char*, 3> kSpan{
      "runtime.run_online_recovery.online",
      "runtime.run_online_recovery.detector",
      "runtime.run_online_recovery.partition"};
  LoopOut out;
  const auto t_end = deadline(seconds);
  for (std::size_t i = 0; i % st.episodes.size() != 0 || Clock::now() < t_end;
       ++i) {
    const std::size_t e = i % st.episodes.size();
    const Episode& ep = st.episodes[e];
    const TaskGraph& g = st.graphs[ep.graph];
    tracer.next_op();
    Scope op(tracer, "bench.op");
    bool ok = false;
    double us = 0.0;
    try {
      std::optional<runtime::RuntimeResult> res;
      us = cpu_us(tracer, kSpan[ep.kind], [&] {
        res.emplace(runtime::run_online_recovery(g, st.nominal[ep.graph],
                                                 ep.plan, ep.options));
      });
      ok = episode_ok(st, ep, *res, tracer);
    } catch (const std::exception& ex) {
      tally.record(false, std::string(kKinds[ep.kind]) + " episode on " +
                              g.name() + " threw: " + ex.what());
      continue;
    }
    tally.record(ok, std::string(kKinds[ep.kind]) + " episode on " +
                         g.name() + " incomplete, unclean or not reproduced");
    out.op_ms.push_back(us / 1e3);
    out.episode_of.push_back(e);
    out.op_s += us / 1e6;
  }
  return out;
}

}  // namespace

void recovery_probe(std::uint64_t seed, double seconds, Tracer& tracer,
                    Result& r) {
  RecoverState st;
  setup(st, seed, tracer);
  for (std::size_t g = 0; g < st.graphs.size(); ++g) {
    Scope s(tracer, "sched.validate");
    r.tally.record(flb::is_valid_schedule(st.graphs[g], st.nominal[g]),
                   "nominal schedule of " + st.graphs[g].name());
  }
  const LoopOut loop = op_loop(st, seconds, tracer, r.tally);

  // Episode times per kind and per episode, from the traced loop.
  std::vector<std::vector<double>> by_kind(kKinds.size());
  std::vector<std::vector<double>> by_episode(st.episodes.size());
  double repairs_run = 0.0;
  for (std::size_t i = 0; i < loop.op_ms.size(); ++i) {
    const Episode& ep = st.episodes[loop.episode_of[i]];
    by_kind[ep.kind].push_back(loop.op_ms[i]);
    by_episode[loop.episode_of[i]].push_back(loop.op_ms[i]);
    repairs_run += static_cast<double>(ep.repairs);
  }
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    r.metrics[std::string("runtime.episode_ms_p50.") + kKinds[k]] = {
        summarize(by_kind[k]).p50, "ms"};
  std::size_t repairs = 0;
  std::size_t events = 0;
  std::size_t alarms = 0;
  std::size_t confirmations = 0;
  std::size_t speculative = 0;
  for (const Episode& ep : st.episodes) {
    repairs += ep.repairs;
    events += ep.events_observed;
    alarms += ep.false_alarms;
    confirmations += ep.confirmations;
    speculative += ep.speculative_tasks;
  }
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  double ratio = 0.0;
  for (const Episode& ep : st.episodes)
    ratio += ep.makespan / st.nominal[ep.graph].makespan();
  r.metrics["runtime.recovery_ratio_mean"] = {
      ratio / static_cast<double>(st.episodes.size()), "ratio"};
  r.metrics["runtime.repairs"] = {count(repairs), "count"};
  r.metrics["runtime.events_observed"] = {count(events), "count"};
  r.metrics["runtime.false_alarms"] = {count(alarms), "count"};
  r.metrics["runtime.confirmations"] = {count(confirmations), "count"};
  r.metrics["runtime.speculative_tasks"] = {count(speculative), "count"};
  r.metrics["runtime.ms_per_repair"] = {loop.op_s * 1e3 / repairs_run, "ms"};

  // One-shot layer calls on the online episode's inputs: simulate under
  // the full plan, repair with it, lint the continuation. The controller
  // makes these calls once per repair, so an episode's time minus
  // repairs x (simulate + repair + lint) is an outside estimate of the
  // controller's own time.
  std::vector<double> self_est;
  std::vector<double> sim_ms;
  std::vector<double> repair_ms;
  std::vector<double> lint_ms;
  for (std::size_t ei = 0; ei < st.episodes.size(); ++ei) {
    const Episode& ep = st.episodes[ei];
    if (ep.kind != 0 || by_episode[ei].empty()) continue;
    const TaskGraph& g = st.graphs[ep.graph];
    const flb::Schedule& nominal = st.nominal[ep.graph];
    flb::SimOptions so;
    so.faults = &ep.plan;
    std::optional<flb::SimResult> partial;
    std::optional<flb::RepairResult> rep;
    bool clean = false;
    sim_ms.push_back(cpu_us(tracer, "sim.simulate", [&] {
                       partial.emplace(flb::simulate(g, nominal, so));
                     }) / 1e3);
    repair_ms.push_back(cpu_us(tracer, "sched.repair_schedule", [&] {
                          rep.emplace(flb::repair_schedule(g, nominal, *partial,
                                                           ep.plan));
                        }) / 1e3);
    lint_ms.push_back(cpu_us(tracer, "analysis.lint_schedule", [&] {
                        clean = analysis::lint_schedule(
                                    g, rep->schedule, rep->durations,
                                    flb::platform::CostModel::clique(kProcs))
                                    .clean();
                      }) / 1e3);
    r.tally.record(clean, "one-shot repair of " + g.name() + " linted unclean");
    self_est.push_back(
        summarize(by_episode[ei]).p50 -
        static_cast<double>(ep.repairs) *
            (sim_ms.back() + repair_ms.back() + lint_ms.back()));
  }
  r.metrics["runtime.self_ms_est"] = {summarize(self_est).mean, "ms"};
  r.metrics["sim.simulate_ms"] = {summarize(sim_ms).p50, "ms"};
  r.metrics["sched.repair_ms"] = {summarize(repair_ms).p50, "ms"};
  r.metrics["analysis.lint_ms"] = {summarize(lint_ms).p50, "ms"};
  r.metrics["analysis.audit_ms"] = {
      summarize(tracer.durations_us("analysis.audit_runtime")).p50 / 1e3, "ms"};
}

}  // namespace perfbench
