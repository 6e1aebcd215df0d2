// Tests of the benchmark's own arithmetic: the percentile rule, due-time
// latency with generator lateness, span self time, that a schedule failing
// its check counts as a failed operation, and the scaling of a measured
// time to reference speed.
// Run with `python3 perfbench/run.py --self-test` (or ctest in the build).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/task_graph.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                  #cond);                                             \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using namespace perfbench;
  const std::vector<double> v = one_to(100);
  CHECK(near(percentile(v, 50.0), 50.0));
  CHECK(near(percentile(v, 99.0), 99.0));
  CHECK(near(percentile(v, 100.0), 100.0));
  CHECK(near(percentile({7.0}, 99.0), 7.0));

  // p99 of 1000 samples has exactly ten beyond it; of 999, only nine.
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(supported_tail(1000) == 99.0);
  CHECK(supported_tail(10000) == 99.9);
  CHECK(supported_tail(999) == 95.0);
  CHECK(supported_tail(20) == 50.0);
  CHECK(supported_tail(19) == 0.0);

  const Summary s = summarize(one_to(1000));
  CHECK(s.n == 1000);
  CHECK(near(s.p50, 500.0));
  CHECK(near(s.p99, 990.0));
  CHECK(near(s.mean, 500.5));
  CHECK(s.supported_tail == 99.0);
  CHECK(summarize({}).n == 0);
  CHECK(supported_tail(0) == 0.0);
}

void due_time_latency() {
  using namespace perfbench;
  // Due at 10 ms, the generator woke 2 ms late, submit() blocked 0.5 ms on
  // a full queue, the service then took 1 ms: the user waited 3.5 ms.
  OpenLoopSample late{10.0, 12.0, 12.5, 1.0};
  CHECK(near(due_latency_ms(late), 3.5));
  CHECK(near(generator_late_ms(late), 2.0));
  CHECK(near(submit_wait_ms(late), 2.5));
  // On time: latency is the service's alone.
  OpenLoopSample on_time{5.0, 5.0, 5.0, 0.25};
  CHECK(near(due_latency_ms(on_time), 0.25));
  CHECK(near(generator_late_ms(on_time), 0.0));
}

void span_self_time() {
  using namespace perfbench;
  std::vector<Span> spans;
  spans.push_back({"bench.op", 1, -1, 0.0, 100.0, 0});
  spans.push_back({"core.run", 1, 0, 10.0, 30.0, 0});     // child
  spans.push_back({"sched.check", 1, 0, 20.0, 50.0, 0});  // overlaps it
  spans.push_back({"sim.late", 1, 0, 90.0, 120.0, 0});    // clipped at 100
  spans.push_back({"graph.bl", 1, 1, 15.0, 20.0, 0});     // grandchild
  const std::vector<double> self = self_times_us(spans);
  // Children cover [10, 50] and [90, 100]: 50 of the parent's 100 us.
  CHECK(near(self[0], 50.0));
  CHECK(near(self[1], 15.0));  // 20 us minus its 5 us grandchild
  CHECK(near(self[2], 30.0));
  CHECK(near(self[3], 30.0));
  CHECK(near(self[4], 5.0));

  Tracer t(true);
  t.add("core.run", 0.0, 1000.0, 0);
  t.add("graph.bl", 100.0, 400.0, 0, 0);
  const auto layers = t.layer_self_ms();
  CHECK(near(layers.at("core"), 0.7));
  CHECK(near(layers.at("graph"), 0.3));

  Tracer off(false);
  off.add("core.run", 0.0, 1.0, 0);
  CHECK(off.open("core.run") == -1);
  CHECK(off.spans().empty());
}

void invalid_schedule_fails_op() {
  using namespace perfbench;
  flb::TaskGraphBuilder b;
  const flb::TaskId a = b.add_task(2.0);
  const flb::TaskId c = b.add_task(3.0);
  b.add_edge(a, c, 1.0);
  const flb::TaskGraph g = std::move(b).build();

  flb::FlbScheduler flb_sched;
  const flb::Schedule good = flb_sched.run(g, 2);
  OpTally tally;
  tally.record(schedule_ok(g, good, good.makespan()), "good");
  CHECK(tally.attempted == 1 && tally.failed == 0);

  // Same makespan, but the consumer starts on another processor before
  // its input can arrive: the validator rejects it, the op fails.
  flb::Schedule bad(2, 2);
  bad.assign(a, 0, 0.0, 2.0);
  bad.assign(c, 1, 2.0, 5.0);
  CHECK(bad.makespan() == good.makespan());
  tally.record(schedule_ok(g, bad, good.makespan()), "bad");
  CHECK(tally.attempted == 2 && tally.failed == 1);
  CHECK(tally.first_failures.size() == 1);

  // A valid schedule that is not the reference one fails too.
  flb::Schedule slower(2, 2);
  slower.assign(a, 0, 0.0, 2.0);
  slower.assign(c, 1, 3.0, 6.0);
  tally.record(schedule_ok(g, slower, good.makespan()), "slower");
  CHECK(tally.attempted == 3 && tally.failed == 2);
}

void reference_speed() {
  using namespace perfbench;
  // A host running the reference kernel twice as slow as nominal halves a
  // measured time; one running it at nominal speed leaves it as measured.
  CHECK(near(at_ref_speed(3.0, 2.0 * kRefNominalMs), 1.5));
  CHECK(near(at_ref_speed(3.0, kRefNominalMs), 3.0));
  CHECK(near(at_ref_speed(0.0, 0.5 * kRefNominalMs), 0.0));
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency();
  span_self_time();
  invalid_schedule_fails_op();
  reference_speed();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench arithmetic: all checks passed\n");
  return 0;
}
