#pragma once

// Shared machinery of the repository benchmark: sample statistics with the
// tail-percentile rule, open-loop latency arithmetic, the span tracer and
// its self-time computation, the op tally that turns failed checks into
// failed operations, and the metric record printed as the result line.
// The arithmetic is header-only so tests/arith_test.cpp exercises exactly
// the code the benchmark runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/validator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed on the steady clock since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The steady-clock instant `seconds` from now.
inline Clock::time_point deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// CPU time consumed so far by the calling thread / the whole process, in
/// seconds. Operation and set-up times are CPU times: on a shared virtual
/// machine the wall time of the same work also carries host steal and
/// preemption (up to 20% on the machine the benchmark was defined on),
/// which no code change causes. On an otherwise idle core the two agree.
inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

// --- Sample statistics ------------------------------------------------------

/// 1-based nearest rank of the p-th percentile of n samples. The epsilon
/// keeps 99.9% of 10000 at rank 9990, not 9991, despite rounding.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile (p in (0, 100]) of `sorted`, which must be
/// sorted ascending and non-empty: the smallest sample with at least p% of
/// the samples at or below it.
inline double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Number of samples strictly above the nearest-rank p-th percentile of n.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 50 that has
/// at least ten samples beyond it, or 0 when even the median has fewer.
inline double supported_tail(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

/// Median and p99 of a sample set plus what the tail rule allows for it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double supported_tail = 0.0;  ///< see supported_tail(); 0 = none
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 50.0);
  s.p99 = percentile(samples, 99.0);
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.supported_tail = supported_tail(samples.size());
  return s;
}

// --- Open-loop latency ----------------------------------------------------------

/// One request of an open-loop generator, all times in ms from the start of
/// the run: when it was due, when the generator called submit(), when
/// submit() returned (the request is enqueued by then), and the service's
/// own enqueue-to-completion latency.
struct OpenLoopSample {
  double due_ms = 0.0;
  double call_ms = 0.0;
  double enqueued_ms = 0.0;
  double service_latency_ms = 0.0;
};

/// Latency as a user sees it: from the instant the request was *due* to its
/// completion, so generator lateness and backpressure stalls count against
/// the system instead of silently thinning the load.
inline double due_latency_ms(const OpenLoopSample& s) {
  return (s.enqueued_ms - s.due_ms) + s.service_latency_ms;
}

/// How late the generator issued the request (>= 0).
inline double generator_late_ms(const OpenLoopSample& s) {
  return std::max(0.0, s.call_ms - s.due_ms);
}

/// Due-to-enqueue wait: generator lateness plus any backpressure block.
inline double submit_wait_ms(const OpenLoopSample& s) {
  return std::max(0.0, s.enqueued_ms - s.due_ms);
}

// --- Span tracer ---------------------------------------------------------------

/// One traced layer call. `layer` is the module the call enters (the part
/// of `name` before the first dot); `op` groups the spans of one operation.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  double start_us = 0.0;
  double end_us = 0.0;
  int tid = 0;  ///< display lane in the trace viewer
};

inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent's interval).
inline std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Merge the sorted child intervals into disjoint runs; times are >= 0,
    // so the initial run [0, -1] is empty and the first child starts one.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call, so the untraced run pays no clock reads for them.
/// Single-threaded: spans nest through an explicit stack of open spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Start a new operation; spans opened afterwards carry its id.
  void next_op() { ++op_; }

  /// Open a span and return its index (-1 when disabled).
  std::int64_t open(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.op = op_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }

  /// Record a span whose times were measured elsewhere (e.g. reported by
  /// the serving layer for a worker thread), on display lane `tid`.
  void add(const std::string& name, double start_us, double end_us, int tid,
           std::int64_t parent = -1) {
    if (!enabled_) return;
    spans_.push_back({name, op_, parent, start_us, end_us, tid});
  }

  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const { return seconds_since(t0_) * 1e6; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Wall time of every span called `name`, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_us - s.start_us);
    return out;
  }

  /// Summed self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const {
    const std::vector<double> self = self_times_us(spans_);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[layer_of(spans_[i].name)] += self[i] / 1e3;
    return out;
  }

  /// Write the spans as Chrome trace-event JSON (opens in Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t idx_;
};

/// Run `f` inside span `name`; returns its thread CPU time in us.
template <class F>
double cpu_us(Tracer& tracer, const char* name, F&& f) {
  Scope s(tracer, name);
  const double c0 = thread_cpu_s();
  f();
  return (thread_cpu_s() - c0) * 1e6;
}

// --- Correctness accounting ---------------------------------------------------

/// Attempted and failed operations. Every check a workload makes goes
/// through record(), so a failed check is a failed operation and shows up
/// in the failure share instead of aborting the run.
struct OpTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> first_failures;  ///< up to 5 messages, for stderr

  void record(bool ok, const std::string& what = {}) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 5) first_failures.push_back(what);
  }
};

/// The per-operation check of a scheduling op: the schedule passes the
/// validator and is the deterministic schedule seen at set-up (same
/// makespan, bit for bit).
inline bool schedule_ok(const flb::TaskGraph& g, const flb::Schedule& s,
                        flb::Cost expected_makespan) {
  return flb::is_valid_schedule(g, s) && s.makespan() == expected_makespan;
}

// --- Result record -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run hands back to main().
struct Result {
  OpTally tally;
  std::map<std::string, Metric> metrics;
  /// Environment stamp entries specific to the workload (V/E/P, samples).
  std::vector<std::pair<std::string, std::string>> stamp;
};

/// Stamp a latency summary's sample count and supported tail percentile,
/// and the wall-time median of the same operations for comparison.
inline void stamp_samples(const Summary& lat, double wall_p50_ms, Result& r) {
  r.stamp.push_back({"samples", std::to_string(lat.n)});
  r.stamp.push_back(
      {"tail_percentile_supported", std::to_string(lat.supported_tail)});
  r.stamp.push_back({"latency_ms_p50_wall", std::to_string(wall_p50_ms)});
}

/// Stamp the median op time as measured (the metrics are at reference
/// speed) and the run's median reference kernel time; the latter is also
/// the per-layer metric bench.ref_kernel_ms.
inline void stamp_reference(double measured_p50_ms, double ref_p50,
                            Result& r) {
  r.stamp.push_back(
      {"latency_ms_p50_measured", std::to_string(measured_p50_ms)});
  r.stamp.push_back({"ref_kernel_ms_p50", std::to_string(ref_p50)});
  r.metrics["bench.ref_kernel_ms"] = {ref_p50, "ms"};
}

/// Per-layer view of the traced operations: their p99 with the sample
/// count it rests on, and how much longer wall time ran than CPU time.
inline void op_tail_metrics(const Summary& op_ms, double wall_over_cpu,
                            Result& r) {
  r.metrics["bench.latency_ms_p99"] = {op_ms.p99, "ms"};
  r.metrics["bench.op_samples"] = {static_cast<double>(op_ms.n), "count"};
  r.metrics["bench.wall_over_cpu"] = {wall_over_cpu, "ratio"};
}

/// Arguments common to every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string trace_path;
};

// --- Reference speed -----------------------------------------------------------

/// The shared virtual machines this benchmark runs on change the speed of a
/// core by up to a third for seconds at a time (a busy sibling hyperthread
/// or neighbour), and that moves the CPU time of the same work as much as
/// any code change would. So a run also times a fixed reference kernel —
/// the benchmark's own code, no library call — next to every round of
/// operations, and reports its times at reference speed: the measured time
/// scaled by kRefNominalMs over the reference time measured beside it. A
/// change to the library moves the measured time and not the reference, so
/// it shows in full; a slow spell of the host moves both and cancels.
///
/// kRefNominalMs is the reference kernel's median time on the 4-vCPU
/// machine the benchmark was defined on, so times at reference speed read
/// as milliseconds there. A constant on purpose: it sets the unit.
constexpr double kRefNominalMs = 6.7;

/// Run the reference kernel once on the calling thread (sort and hash a
/// fixed pseudo-random array); returns its thread CPU time in ms.
double ref_kernel_ms();

/// Run the reference kernel on `threads` threads at once; returns the mean
/// of their CPU times in ms.
double ref_kernel_ms_parallel(std::size_t threads);

/// Keep the calling thread on the CPU it runs on now, so the reference
/// kernel and the operations it stands next to share a core (and its
/// sibling's load). Returns that CPU, or -1 when the pin failed.
int pin_to_current_cpu();

/// `measured`, a time, at reference speed, given the reference kernel time
/// measured beside it. A throughput scales by the inverse factor.
inline double at_ref_speed(double measured, double ref_ms) {
  return measured * kRefNominalMs / ref_ms;
}

/// Median process CPU time of `reps` set-up repetitions at reference
/// speed, from the median reference kernel time of the repetitions (one
/// kernel run after each): set-up is short and noisy, so one run times it
/// several times.
inline double median_setup_s(int reps, const std::function<void()>& setup) {
  std::vector<double> t;
  std::vector<double> ref;
  for (int i = 0; i < reps; ++i) {
    const double c0 = process_cpu_s();
    setup();
    t.push_back(process_cpu_s() - c0);
    ref.push_back(ref_kernel_ms());
  }
  std::sort(t.begin(), t.end());
  std::sort(ref.begin(), ref.end());
  return at_ref_speed(percentile(t, 50.0), percentile(ref, 50.0));
}

/// Deterministic 64-bit mix of the benchmark seed with a stream id, so
/// every generated graph draws its own weights from the one --seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;
}

/// Peak resident set size of this process in MB. Workloads read it once
/// set-up and warm-up are done: the timed loop of warm operations
/// allocates nothing more of the program's, and reading it later would
/// count the benchmark's own per-op sample storage, which grows with the
/// number of operations the run manages.
double peak_rss_mb();

/// Stamp the number of graphs and their total V and E.
void stamp_graphs(const std::vector<flb::TaskGraph>& graphs, Result& r);

/// Time bottom_levels and topological_order `reps` times over `graphs`
/// (spans graph.bottom_levels / graph.topo_order) and report their medians.
void graph_probes(const std::vector<flb::TaskGraph>& graphs, int reps,
                  Tracer& tracer, Result& r);

/// Sum FlbStats of one run_instrumented per graph at `procs` into the
/// core.ep_* / core.max_ready counts; each schedule is validated.
void core_stats(const std::vector<flb::TaskGraph>& graphs, flb::ProcId procs,
                Tracer& tracer, Result& r);

// Workload entry points (one translation unit each).
Result run_sched_fig2(const RunConfig& cfg, Tracer& tracer);
Result run_serve_mix(const RunConfig& cfg, Tracer& tracer);

/// Traced-run probe of the recovery layers (runtime, sim, analysis and
/// sched's repair) for about `seconds`; see recovery_probe.cpp.
void recovery_probe(std::uint64_t seed, double seconds, Tracer& tracer,
                    Result& r);

}  // namespace perfbench
