// serve_mix: many small DAGs through the serving layer. All seven
// workload_names() families at V~300, P = 8, CCR alternating 0.2 / 5.
// Per-run fixed costs (scratch reset, bottom levels, Schedule
// re-dimensioning) and queue handoff dominate here, so a per-graph
// precomputation that pays off at V~1e6 shows its cost on this workload.
//
// Phase A, the end-to-end numbers: saturated serve::schedule_batch at
// nproc-1 workers. Phase B, traced run only: ScheduleService in an open
// loop at the fixed rate kOpenLoopRate, each request timed from when it
// was due. Its latency tail follows host scheduling noise (idle virtual
// CPUs wake late, the producer's sleeps overrun) far more than the code,
// so it is a per-layer number, not an end-to-end one.

#include <sys/prctl.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"
#include "flb/serve/serve.hpp"
#include "flb/workloads/workloads.hpp"

namespace perfbench {
namespace {

using flb::Cost;
using flb::TaskGraph;
namespace serve = flb::serve;

constexpr std::size_t kGraphs = 56;  // 7 families x 2 CCRs x 4 seeds
constexpr std::size_t kTasks = 300;
constexpr flb::ProcId kProcs = 8;
constexpr std::size_t kBatch = 10 * kGraphs;
constexpr std::size_t kQueueCapacity = 64;
// Batches per reference kernel measurement (about 0.2 s of batches).
constexpr std::size_t kBatchesPerRef = 8;
// Open-loop requests rebuilt as spans in the traced run; more only grow
// the trace file, not what it shows.
constexpr std::size_t kTracedRequests = 10000;
// Requests per second of the open loop: about two thirds of the phase-A
// capacity (24.5k DAGs/s on 3 workers, 4 cores) measured when the
// benchmark was defined. A constant on purpose: recomputing it per run
// would hide a slowdown as a lower offered load.
constexpr double kOpenLoopRate = 16000.0;

struct ServeState {
  std::vector<TaskGraph> graphs;
  std::vector<std::uint64_t> digest;  ///< sequential reference per graph
  std::vector<Cost> makespan;
  std::vector<serve::ScheduleRequest> batch;  ///< kBatch requests, cycling
};

void setup(ServeState& st, std::uint64_t seed, std::size_t workers,
           Tracer& tracer) {
  st.graphs.clear();
  st.digest.clear();
  st.makespan.clear();
  st.batch.clear();
  const std::vector<std::string> families = flb::workload_names();
  for (std::size_t i = 0; i < kGraphs; ++i) {
    flb::WorkloadParams p;
    p.seed = mix_seed(seed, i);
    p.ccr = (i % 2 == 0) ? 0.2 : 5.0;
    Scope s(tracer, "workloads.generate");
    st.graphs.push_back(
        flb::make_workload(families[i % families.size()], kTasks, p));
  }
  flb::FlbScheduler ref;
  for (const TaskGraph& g : st.graphs) {
    Scope s(tracer, "core.run");
    const flb::Schedule sched = ref.run(g, kProcs);
    st.digest.push_back(serve::schedule_digest(sched));
    st.makespan.push_back(sched.makespan());
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    st.batch.push_back({&st.graphs[i % kGraphs], kProcs});
  serve::BatchOptions warm;
  warm.num_threads = workers;
  Scope s(tracer, "serve.schedule_batch");
  (void)serve::schedule_batch(st.batch, warm);
}

/// Phase A outcome: per batch its wall and process CPU time and the
/// reference kernel time measured on the workers' thread count before it
/// (every kBatchesPerRef batches), per request the run time the serving
/// layer reports (a batch has no queueing).
struct BatchOut {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> ref_ms;
  std::vector<double> run_ms;
  double tasks_per_batch = 0.0;

  /// Batch `b`'s process CPU time at reference speed.
  [[nodiscard]] double ref_cpu_s(std::size_t b) const {
    return at_ref_speed(cpu_s[b], ref_ms[b]);
  }
  /// Request `i`'s run time at reference speed.
  [[nodiscard]] double ref_run_ms(std::size_t i) const {
    return at_ref_speed(run_ms[i], ref_ms[i / kBatch]);
  }
};

/// Phase A: back-to-back batches for `seconds`.
BatchOut saturated(ServeState& st, std::size_t workers, double seconds,
                   Tracer& tracer, OpTally& tally) {
  serve::BatchOptions opts;
  opts.num_threads = workers;
  BatchOut out;
  for (const auto& req : st.batch) out.tasks_per_batch += req.graph->num_tasks();
  const auto t_end = deadline(seconds);
  double ref = 0.0;
  for (std::size_t b = 0; out.wall_s.empty() || Clock::now() < t_end; ++b) {
    if (b % kBatchesPerRef == 0) ref = ref_kernel_ms_parallel(workers);
    tracer.next_op();
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    std::vector<serve::ScheduleResult> res;
    {
      Scope s(tracer, "serve.schedule_batch");
      res = serve::schedule_batch(st.batch, opts);
    }
    out.cpu_s.push_back(process_cpu_s() - c0);
    out.wall_s.push_back(seconds_since(t0));
    out.ref_ms.push_back(ref);
    for (std::size_t i = 0; i < res.size(); ++i) {
      out.run_ms.push_back(res[i].run_ms);
      tally.record(res[i].digest == st.digest[i % kGraphs],
                   "batch result " + std::to_string(i) +
                       " differs from the sequential schedule");
    }
  }
  return out;
}

/// Saturated throughput per batch: tasks per second of wall time, or —
/// with `per_cpu` — per second of worker CPU time (process CPU time spread
/// over the workers) at reference speed, which host steal and slow spells
/// do not move.
std::vector<double> batch_rates(const BatchOut& b, std::size_t workers,
                                bool per_cpu) {
  std::vector<double> rate;
  for (std::size_t i = 0; i < b.wall_s.size(); ++i)
    rate.push_back(b.tasks_per_batch /
                   (per_cpu ? b.ref_cpu_s(i) / static_cast<double>(workers)
                            : b.wall_s[i]));
  return rate;
}

/// Phase B outcome: one sample per request plus the service's counters.
struct OpenLoopOut {
  std::vector<OpenLoopSample> samples;
  std::vector<double> run_ms;
  std::size_t backpressure_waits = 0;
  double wall_ms = 0.0;
};

OpenLoopOut open_loop(ServeState& st, std::size_t workers, double seconds,
                      Tracer& tracer, OpTally& tally) {
  serve::ScheduleService::Options o;
  o.num_threads = workers;
  o.queue_capacity = kQueueCapacity;
  serve::ScheduleService svc(o);
  // Default timer slack (50 us) is most of the 71 us request interval.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  OpenLoopOut out;
  const double phase_ms = seconds * 1e3;
  out.samples.reserve(static_cast<std::size_t>(kOpenLoopRate * seconds) + 1);
  const auto t0 = Clock::now();
  auto ms = [&] { return seconds_since(t0) * 1e3; };
  const double trace_base_us = tracer.enabled() ? tracer.now_us() : 0.0;
  Tracer untraced(false);
  for (std::size_t i = 0;; ++i) {
    const double due = static_cast<double>(i) * 1e3 / kOpenLoopRate;
    if (due >= phase_ms) break;
    // The producer sleeps between requests, leaving the nproc-th core to
    // the rest of the machine; a late wake-up counts as generator lateness.
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(due)));
    tracer.next_op();
    OpenLoopSample s;
    s.due_ms = due;
    s.call_ms = ms();
    {
      Scope sp(i < kTracedRequests ? tracer : untraced, "serve.submit");
      svc.submit(st.graphs[i % kGraphs], kProcs);
    }
    s.enqueued_ms = ms();
    out.samples.push_back(s);
  }
  svc.drain();
  out.wall_ms = ms();
  std::vector<double> lane_end;  // trace display lanes, by end time
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const serve::ScheduleResult& res = svc.result(i);
    out.samples[i].service_latency_ms = res.latency_ms;
    out.run_ms.push_back(res.run_ms);
    tally.record(res.digest == st.digest[i % kGraphs],
                 "served request " + std::to_string(i) +
                     " differs from the sequential schedule");
    if (tracer.enabled() && i < kTracedRequests) {
      // The worker threads are the library's, so their spans are rebuilt
      // from the times the service reports: request from due to
      // completion, and the engine run at its end. Each request takes the
      // first display lane free at its due time.
      const OpenLoopSample& s = out.samples[i];
      const double due_us = trace_base_us + s.due_ms * 1e3;
      const double done_us =
          trace_base_us + (s.enqueued_ms + res.latency_ms) * 1e3;
      std::size_t lane = 0;
      while (lane < lane_end.size() && lane_end[lane] > due_us) ++lane;
      if (lane == lane_end.size()) lane_end.push_back(0.0);
      lane_end[lane] = done_us;
      const auto tid = static_cast<int>(lane + 1);
      const auto parent = static_cast<std::int64_t>(tracer.spans().size());
      tracer.add("bench.request", due_us, done_us, tid);
      tracer.add("core.run_into", done_us - res.run_ms * 1e3, done_us, tid,
                 parent);
    }
  }
  out.backpressure_waits = svc.stats().backpressure_waits;
  svc.close();
  return out;
}

}  // namespace

Result run_serve_mix(const RunConfig& cfg, Tracer& tracer) {
  Result r;
  ServeState st;
  const std::size_t workers = std::max(1u, cfg.nproc - 1);
  r.metrics["setup_s"] = {
      median_setup_s(7, [&] { setup(st, cfg.seed, workers, tracer); }), "s"};
  stamp_graphs(st.graphs, r);
  r.stamp.push_back({"P", std::to_string(kProcs)});
  r.stamp.push_back({"workers", std::to_string(workers)});
  r.stamp.push_back({"open_loop_rate_per_s", std::to_string(kOpenLoopRate)});
  r.stamp.push_back({"loop", "open"});

  // The set-up schedules are the sequential reference: check them once.
  for (std::size_t i = 0; i < kGraphs; ++i) {
    flb::FlbScheduler ref;
    const flb::Schedule s = ref.run(st.graphs[i], kProcs);
    Scope sp(tracer, "sched.validate");
    r.tally.record(schedule_ok(st.graphs[i], s, st.makespan[i]),
                   "reference schedule of " + st.graphs[i].name());
  }

  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  if (!cfg.trace) {
    Tracer off(false);
    const BatchOut a = saturated(st, workers, cfg.seconds, off, r.tally);
    std::vector<double> run_ms;
    for (std::size_t i = 0; i < a.run_ms.size(); ++i)
      run_ms.push_back(a.ref_run_ms(i));
    const Summary lat = summarize(run_ms);
    r.metrics["latency_ms_p50"] = {lat.p50, "ms"};
    r.metrics["tasks_per_s"] = {summarize(batch_rates(a, workers, true)).p50,
                                "tasks/s"};
    stamp_samples(lat, summarize(a.run_ms).p50, r);
    stamp_reference(summarize(a.run_ms).p50, summarize(a.ref_ms).p50, r);
    r.stamp.push_back({"tasks_per_s_wall",
                       std::to_string(summarize(batch_rates(a, workers, false)).p50)});
    double nsl = 0.0;
    for (std::size_t i = 0; i < kGraphs; ++i)
      nsl += st.makespan[i] / flb::computation_critical_path(st.graphs[i]);
    r.metrics["nsl_mean"] = {nsl / static_cast<double>(kGraphs), "ratio"};
    return r;
  }

  // Traced run: phase A untraced then traced (their mean CPU time per
  // batch gives the tracing overhead), the open loop, and phase A at one
  // worker for the scaling ratio.
  Tracer off(false);
  const BatchOut plain = saturated(st, workers, cfg.seconds / 4, off, r.tally);
  const BatchOut a = saturated(st, workers, cfg.seconds / 4, tracer, r.tally);
  auto mean_ref_cpu_s = [](const BatchOut& b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < b.cpu_s.size(); ++i) sum += b.ref_cpu_s(i);
    return sum / static_cast<double>(b.cpu_s.size());
  };
  r.metrics["trace.overhead_frac"] = {
      mean_ref_cpu_s(a) / mean_ref_cpu_s(plain) - 1.0, "frac"};
  r.metrics["bench.ref_kernel_ms"] = {summarize(a.ref_ms).p50, "ms"};
  std::vector<double> stretch;
  for (std::size_t i = 0; i < a.wall_s.size(); ++i)
    stretch.push_back(a.wall_s[i] * static_cast<double>(workers) / a.cpu_s[i]);
  op_tail_metrics(summarize(a.run_ms), summarize(stretch).p50, r);

  const OpenLoopOut ol = open_loop(st, workers, cfg.seconds / 2, tracer, r.tally);
  std::vector<double> latency;
  std::vector<double> queue_wait;
  std::vector<double> submit_wait;
  double late_max = 0.0;
  double busy_ms = 0.0;
  for (std::size_t i = 0; i < ol.samples.size(); ++i) {
    const OpenLoopSample& s = ol.samples[i];
    latency.push_back(due_latency_ms(s));
    queue_wait.push_back(due_latency_ms(s) - ol.run_ms[i]);
    submit_wait.push_back(submit_wait_ms(s));
    late_max = std::max(late_max, generator_late_ms(s));
    busy_ms += ol.run_ms[i];
  }
  const Summary lat = summarize(latency);
  const Summary run = summarize(ol.run_ms);
  const Summary qw = summarize(queue_wait);
  r.metrics["serve.latency_ms_p50"] = {lat.p50, "ms"};
  r.metrics["serve.latency_ms_p99"] = {lat.p99, "ms"};
  r.metrics["serve.run_ms_p50"] = {run.p50, "ms"};
  r.metrics["serve.run_ms_p99"] = {run.p99, "ms"};
  r.metrics["serve.queue_wait_ms_p50"] = {qw.p50, "ms"};
  r.metrics["serve.queue_wait_ms_p99"] = {qw.p99, "ms"};
  r.metrics["serve.submit_wait_ms_p99"] = {summarize(submit_wait).p99, "ms"};
  r.metrics["serve.backpressure_waits"] = {
      static_cast<double>(ol.backpressure_waits), "count"};
  r.metrics["serve.worker_busy_frac"] = {
      busy_ms / (static_cast<double>(workers) * ol.wall_ms), "frac"};
  r.metrics["serve.gen_late_ms_max"] = {late_max, "ms"};
  const BatchOut one = saturated(st, 1, cfg.seconds / 8, tracer, r.tally);
  r.metrics["serve.scaling"] = {
      summarize(batch_rates(a, workers, false)).p50 /
          summarize(batch_rates(one, 1, false)).p50,
      "ratio"};

  graph_probes(st.graphs, 5, tracer, r);
  core_stats(st.graphs, kProcs, tracer, r);
  return r;
}

}  // namespace perfbench
