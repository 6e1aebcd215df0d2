// Layer probes shared by the workloads, the trace writer and the process
// resource query.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <thread>

#include "bench.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"

namespace perfbench {

namespace {
// Keeps the reference kernel's result alive, so the compiler cannot drop
// it; atomic because the kernel runs on several threads at once.
std::atomic<std::uint64_t> ref_sink{0};
}  // namespace

double ref_kernel_ms() {
  // 64 Ki keys (256 KB): in cache, like the per-op working sets it stands
  // next to, and about kRefNominalMs of work.
  std::vector<std::uint32_t> keys(std::size_t{1} << 16);
  const double c0 = thread_cpu_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<std::uint32_t>(x >> 32);
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = 0;
  for (std::uint32_t k : keys) h = h * 0x100000001b3ull + k;
  ref_sink.store(h, std::memory_order_relaxed);
  return (thread_cpu_s() - c0) * 1e3;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double ref_kernel_ms_parallel(std::size_t threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i)
    pool.emplace_back([&ms, i] { ms[i] = ref_kernel_ms(); });
  for (std::thread& t : pool) t.join();
  double sum = 0.0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(threads);
}

void stamp_graphs(const std::vector<flb::TaskGraph>& graphs, Result& r) {
  std::size_t v = 0;
  std::size_t e = 0;
  for (const flb::TaskGraph& g : graphs) {
    v += g.num_tasks();
    e += g.num_edges();
  }
  r.stamp.push_back({"graphs", std::to_string(graphs.size())});
  r.stamp.push_back({"V_total", std::to_string(v)});
  r.stamp.push_back({"E_total", std::to_string(e)});
}

void graph_probes(const std::vector<flb::TaskGraph>& graphs, int reps,
                  Tracer& tracer, Result& r) {
  for (int rep = 0; rep < reps; ++rep)
    for (const flb::TaskGraph& g : graphs) {
      {
        Scope s(tracer, "graph.bottom_levels");
        const std::vector<flb::Cost> bl = flb::bottom_levels(g);
        if (bl.size() != g.num_tasks())
          r.tally.record(false, "bottom levels of " + g.name());
      }
      Scope s(tracer, "graph.topo_order");
      const std::vector<flb::TaskId> order = flb::topological_order(g);
      if (order.size() != g.num_tasks())
        r.tally.record(false, "topological order of " + g.name());
    }
  r.metrics["graph.bottom_levels_us"] = {
      summarize(tracer.durations_us("graph.bottom_levels")).p50, "us"};
  r.metrics["graph.topo_order_us"] = {
      summarize(tracer.durations_us("graph.topo_order")).p50, "us"};
}

void core_stats(const std::vector<flb::TaskGraph>& graphs, flb::ProcId procs,
                Tracer& tracer, Result& r) {
  flb::FlbScheduler scheduler;
  flb::FlbStats total;
  for (const flb::TaskGraph& g : graphs) {
    flb::FlbStats s;
    const flb::Schedule sched = [&] {
      Scope sp(tracer, "core.run_instrumented");
      return scheduler.run_instrumented(g, procs, nullptr, &s);
    }();
    r.tally.record(flb::is_valid_schedule(g, sched),
                   "instrumented run of " + g.name() + " failed validation");
    total.ep_selections += s.ep_selections;
    total.non_ep_selections += s.non_ep_selections;
    total.ep_demotions += s.ep_demotions;
    total.tasks_classified_ep += s.tasks_classified_ep;
    total.max_ready = std::max(total.max_ready, s.max_ready);
  }
  auto count = [](std::size_t v) { return static_cast<double>(v); };
  r.metrics["core.ep_classified"] = {count(total.tasks_classified_ep), "count"};
  r.metrics["core.ep_demotions"] = {count(total.ep_demotions), "count"};
  r.metrics["core.ep_selections"] = {count(total.ep_selections), "count"};
  r.metrics["core.non_ep_selections"] = {count(total.non_ep_selections),
                                         "count"};
  r.metrics["core.max_ready"] = {count(total.max_ready), "count"};
  r.metrics["core.ep_useful_ratio"] = {
      total.tasks_classified_ep == 0
          ? 0.0
          : count(total.ep_selections) / count(total.tasks_classified_ep),
      "ratio"};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(17) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, layer_of(s.name));
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"op\":" << s.op
       << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
