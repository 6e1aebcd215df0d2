// flb_serve: scheduling as a service — stream a mixed workload-generator
// request mix through the concurrent batch driver (flb::serve) and report
// throughput, per-request latency and the determinism fingerprint.
//
// Two modes are demonstrated:
//  1. schedule_batch(): the whole request set is known up front; workers
//     claim requests via an atomic index (results in input order).
//  2. ScheduleService: requests arrive one at a time against a bounded
//     queue; submit() blocks when the queue is full (backpressure), and
//     each request's latency includes its queueing delay.
//
// Usage: flb_serve [--dags N] [--tasks V] [--procs P] [--threads T]
//                  [--queue Q]

#include <algorithm>
#include <iostream>
#include <vector>

#include "flb/serve/serve.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  CliArgs args(argc, argv);
  const std::size_t dags = args.get_count<std::size_t>("dags", 24);
  const std::size_t tasks = args.get_count<std::size_t>("tasks", 150);
  const ProcId procs = args.get_count<ProcId>("procs", 8);
  const std::size_t threads = args.get_count<std::size_t>("threads", 4);
  const std::size_t queue = args.get_count<std::size_t>("queue", 8);

  // The request mix: every workload family, alternating the paper's two
  // CCR regimes, a fresh seed per request.
  const std::vector<std::string> families = workload_names();
  std::vector<TaskGraph> graphs;
  graphs.reserve(dags);
  for (std::size_t i = 0; i < dags; ++i) {
    WorkloadParams params;
    params.seed = i + 1;
    params.ccr = (i % 2 == 0) ? 0.2 : 5.0;
    graphs.push_back(
        make_workload(families[i % families.size()], tasks, params));
  }

  std::cout << "Serving " << dags << " mixed DAGs (V~" << tasks << ", P="
            << procs << ") on " << threads << " workers\n\n";

  // --- Mode 1: one-shot batch -------------------------------------------
  std::vector<serve::ScheduleRequest> requests;
  requests.reserve(dags);
  for (const TaskGraph& g : graphs) requests.push_back({&g, procs});
  serve::BatchOptions bopts;
  bopts.num_threads = threads;
  Stopwatch sw;
  std::vector<serve::ScheduleResult> batch =
      serve::schedule_batch(requests, bopts);
  const double batch_ms = sw.millis();

  std::cout << "batch:   " << batch_ms << " ms total, "
            << static_cast<double>(dags) * 1000.0 / batch_ms << " DAGs/s\n";

  // --- Mode 2: streaming service with backpressure ----------------------
  serve::ScheduleService::Options sopts;
  sopts.num_threads = threads;
  sopts.queue_capacity = queue;
  serve::ScheduleService service(sopts);
  sw.restart();
  for (const TaskGraph& g : graphs) (void)service.submit(g, procs);
  service.drain();
  const double stream_ms = sw.millis();
  serve::ServiceStats st = service.stats();

  std::vector<double> latency;
  latency.reserve(dags);
  bool identical = true;
  for (std::size_t id = 0; id < dags; ++id) {
    const serve::ScheduleResult& r = service.result(id);
    latency.push_back(r.latency_ms);
    if (r.digest != batch[id].digest) identical = false;
  }
  std::sort(latency.begin(), latency.end());
  const double p50 = latency[latency.size() / 2];
  const double p99 =
      latency[std::min(latency.size() - 1, (latency.size() * 99) / 100)];

  std::cout << "stream:  " << stream_ms << " ms total, "
            << static_cast<double>(dags) * 1000.0 / stream_ms
            << " DAGs/s, p50 " << p50 << " ms, p99 " << p99 << " ms, "
            << st.backpressure_waits << " backpressure waits\n";
  std::cout << "digests: "
            << (identical ? "stream == batch (deterministic)"
                          : "MISMATCH — nondeterminism detected!")
            << "\n";
  service.close();
  FLB_REQUIRE(identical,
              "flb_serve: stream and batch digests must be identical");
  return 0;
}
