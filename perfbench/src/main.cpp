// The repository benchmark program. Usually started through run.py,
// which builds it; directly:
//
//   perfbench --workload sched_fig2|serve_mix
//             --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--src-digest HEX] [--trace-out FILE]
//
// Prints one environment-stamp line, then — as the last line — the result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 the per-layer set, measured in a
// run that records a span around every layer call it makes (written to
// --trace-out as Chrome trace-event JSON, which Perfetto opens).

#include <sched.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr std::array<MetricDef, 5> kEndToEnd{{
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"tasks_per_s", "tasks/s"},
    {"nsl_mean", "ratio"},
    {"peak_rss_mb", "MB"},
}};

// Every traced run reports every per-layer metric; one the workload does
// not exercise reads 0 (the layer did no work there).
constexpr std::array<const char*, 10> kLayers{
    "bench", "workloads", "graph", "core", "algos",
    "sched", "sim", "runtime", "analysis", "serve"};

constexpr std::array<MetricDef, 64> kPerLayer{{
    {"bench.latency_ms_p99", "ms"},
    {"bench.op_samples", "count"},
    {"bench.wall_over_cpu", "ratio"},
    {"bench.ref_kernel_ms", "ms"},
    {"graph.bottom_levels_us", "us"},
    {"graph.topo_order_us", "us"},
    {"workloads.generate_ms", "ms"},
    {"core.run_us_p50.P2", "us"},
    {"core.run_us_p50.P8", "us"},
    {"core.run_us_p50.P32", "us"},
    {"core.run_us_p50.LU", "us"},
    {"core.run_us_p50.Laplace", "us"},
    {"core.run_us_p50.Stencil", "us"},
    {"core.ns_per_task.Stencil", "ns"},
    {"core.ns_per_task.LU", "ns"},
    {"core.ep_classified", "count"},
    {"core.ep_demotions", "count"},
    {"core.ep_selections", "count"},
    {"core.non_ep_selections", "count"},
    {"core.max_ready", "count"},
    {"core.ep_useful_ratio", "ratio"},
    {"algos.mcp_us_p50", "us"},
    {"algos.fcp_us_p50", "us"},
    {"algos.flb_over_mcp", "ratio"},
    {"algos.flb_over_fcp", "ratio"},
    {"sched.validate_us", "us"},
    {"sched.repair_ms", "ms"},
    {"serve.latency_ms_p50", "ms"},
    {"serve.latency_ms_p99", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p99", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.submit_wait_ms_p99", "ms"},
    {"serve.backpressure_waits", "count"},
    {"serve.worker_busy_frac", "frac"},
    {"serve.gen_late_ms_max", "ms"},
    {"serve.scaling", "ratio"},
    {"runtime.episode_ms_p50.online", "ms"},
    {"runtime.episode_ms_p50.detector", "ms"},
    {"runtime.episode_ms_p50.partition", "ms"},
    {"runtime.recovery_ratio_mean", "ratio"},
    {"runtime.repairs", "count"},
    {"runtime.events_observed", "count"},
    {"runtime.false_alarms", "count"},
    {"runtime.confirmations", "count"},
    {"runtime.speculative_tasks", "count"},
    {"runtime.ms_per_repair", "ms"},
    {"runtime.self_ms_est", "ms"},
    {"sim.simulate_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.audit_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"trace.self_ms.bench", "ms"},
    {"trace.self_ms.workloads", "ms"},
    {"trace.self_ms.graph", "ms"},
    {"trace.self_ms.core", "ms"},
    {"trace.self_ms.algos", "ms"},
    {"trace.self_ms.sched", "ms"},
    {"trace.self_ms.sim", "ms"},
    {"trace.self_ms.runtime", "ms"},
    {"trace.self_ms.analysis", "ms"},
    {"trace.self_ms.serve", "ms"},
}};

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return 1;
}

std::string json_number(double v) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", v);
  return buf.data();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sched_fig2|serve_mix"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--src-digest HEX] [--trace-out FILE]\n";
  std::exit(2);
}

/// Span-derived per-layer metrics every traced workload reports.
void span_metrics(const Tracer& tracer, Result& r) {
  auto fill = [&](const char* metric, const char* span, double scale,
                  const char* unit) {
    if (r.metrics.count(metric) != 0) return;
    const std::vector<double> d = tracer.durations_us(span);
    if (!d.empty()) r.metrics[metric] = {summarize(d).p50 * scale, unit};
  };
  fill("workloads.generate_ms", "workloads.generate", 1e-3, "ms");
  fill("sched.validate_us", "sched.validate", 1.0, "us");
  const std::map<std::string, double> self = tracer.layer_self_ms();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    r.metrics[std::string("trace.self_ms.") + layer] = {
        it == self.end() ? 0.0 : it->second, "ms"};
  }
  r.metrics["trace.spans"] = {static_cast<double>(tracer.spans().size()),
                              "count"};
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string workload;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
        have_seconds = cfg.seconds > 0.0 && cfg.seconds <= 120.0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
        have_trace = true;
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else if (arg == "--src-digest") {
        src_digest = val;
      } else if (arg == "--trace-out") {
        cfg.trace_path = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value '" + val + "' for " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds in (0, 120] and --trace are required");
  cfg.nproc = online_cpus();

  Result (*run)(const RunConfig&, Tracer&) = nullptr;
  if (workload == "sched_fig2") run = run_sched_fig2;
  if (workload == "serve_mix") run = run_serve_mix;
  if (run == nullptr) usage("unknown workload '" + workload + "'");

  Tracer tracer(cfg.trace);
  Result r;
  try {
    r = run(cfg, tracer);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << workload << " aborted: " << ex.what() << "\n";
    return 1;
  }
  for (const std::string& f : r.tally.first_failures)
    std::cerr << "perfbench: check failed: " << f << "\n";

  // A measured name in neither list would be dropped silently: a typo.
  for (const auto& [name, metric] : r.metrics) {
    auto named = [&](const MetricDef& m) { return name == m.name; };
    if (std::none_of(kEndToEnd.begin(), kEndToEnd.end(), named) &&
        std::none_of(kPerLayer.begin(), kPerLayer.end(), named)) {
      std::cerr << "perfbench: unknown metric " << name << "\n";
      return 1;
    }
  }

  std::string metrics;
  auto emit = [&](const char* name, const char* unit) {
    const auto it = r.metrics.find(name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.value;
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (cfg.trace) {
    span_metrics(tracer, r);
    for (const MetricDef& m : kPerLayer) emit(m.name, m.unit);
    if (!cfg.trace_path.empty() && !tracer.write_chrome_json(cfg.trace_path))
      std::cerr << "perfbench: could not write " << cfg.trace_path << "\n";
  } else {
    for (const MetricDef& m : kEndToEnd) {
      if (r.metrics.count(m.name) == 0) {
        std::cerr << "perfbench: " << workload << " did not measure "
                  << m.name << "\n";
        return 1;
      }
      emit(m.name, m.unit);
    }
  }

  std::string stamp = "{\"env\": {\"nproc\": " + std::to_string(cfg.nproc) +
                      ", \"git_sha\": " + json_string(git_sha) +
                      ", \"src_digest\": " + json_string(src_digest) +
                      ", \"compiler\": " + json_string("g++ " __VERSION__) +
                      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"workload\": " + json_string(workload) +
                      ", \"seed\": " + std::to_string(cfg.seed) +
                      ", \"seconds\": " + json_number(cfg.seconds) +
                      ", \"trace\": " + (cfg.trace ? "1" : "0");
  for (const auto& [k, v] : r.stamp)
    stamp += ", " + json_string(k) + ": " + json_string(v);
  std::cout << stamp << "}}\n";

  const bool correct = r.tally.failed == 0 && r.tally.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.tally.attempted
            << ", \"failed\": " << r.tally.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
