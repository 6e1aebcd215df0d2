#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flb/core/scratch.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/scheduler.hpp"

/// \file flb.hpp
/// FLB — Fast Load Balancing (Rădulescu & van Gemund, ICPP'99), the paper's
/// contribution. A one-step list scheduler that, at every iteration,
/// schedules the ready task that can start the earliest (ETF's criterion)
/// but finds that task/processor pair in O(log W + log P) rather than
/// O(W P), for a total complexity of O(V (log W + log P) + E).
///
/// The key structure (paper Section 4): a ready task t is *EP-type* iff
/// LMT(t) >= PRT(EP(t)) — it starts earliest on its enabling processor —
/// and *non-EP-type* otherwise, in which case it starts earliest on the
/// processor that becomes idle first (Corollary 2). Theorem 3 shows the
/// globally earliest-starting pair is always one of just two candidates:
///
///   (a) the EP-type task with minimum EST(t, EP(t)) on its enabling
///       processor — found via a per-processor heap of enabled EP tasks
///       keyed by EMT and a heap of *active* processors keyed by min EST;
///   (b) the non-EP-type task with minimum LMT on the processor that
///       becomes idle the earliest — found via a global non-EP task heap
///       keyed by LMT and a global processor heap keyed by PRT.
///
/// On an EST tie the non-EP pair is preferred (its communication is already
/// overlapped with earlier computation). Ties inside every task list break
/// toward the larger bottom level (longest path to an exit), then task id.

namespace flb {

class Topology;  // sim/topology.hpp — routed pricing for resume()

namespace platform {
struct LinkOccupancy;  // platform/cost_model.hpp — link-busy commit log
}  // namespace platform

/// Tie-breaking rule used inside FLB's task lists when two tasks share the
/// same primary key (EMT or LMT). The paper uses the bottom level; the
/// alternatives exist for the tie-break ablation study (bench_ablation_tiebreak).
enum class FlbTieBreak {
  kBottomLevel,  ///< larger bottom level first (the paper's rule)
  kTaskId,       ///< smaller task id first (FIFO-like, deterministic)
  kRandom,       ///< random priority drawn per task from the seed
};

/// Options for FlbScheduler.
struct FlbOptions {
  FlbTieBreak tie_break = FlbTieBreak::kBottomLevel;
  std::uint64_t seed = 1;  ///< used only by FlbTieBreak::kRandom
};

/// Counters describing one FLB run; used by tests and the complexity bench.
struct FlbStats {
  std::size_t iterations = 0;          ///< scheduling steps (== V)
  std::size_t ep_selections = 0;       ///< steps that chose the EP pair
  std::size_t non_ep_selections = 0;   ///< steps that chose the non-EP pair
  std::size_t ep_demotions = 0;        ///< EP tasks re-classified as non-EP
  std::size_t tasks_classified_ep = 0; ///< ready tasks first classified EP
  std::size_t max_ready = 0;           ///< peak ready-set size (<= width W)
};

/// Everything an observer sees about one scheduling decision, captured
/// *before* the task is placed. Drives the Table 1 execution trace and the
/// Theorem 3 oracle tests. Snapshots are only materialized when an observer
/// is attached; observer-free runs pay nothing.
struct FlbStep {
  TaskId task = kInvalidTask;   ///< the task being scheduled
  ProcId proc = kInvalidProc;   ///< its processor
  Cost est = 0.0;               ///< its start time
  bool ep_type = false;         ///< whether the chosen pair was the EP pair
  std::vector<TaskId> ready_tasks;              ///< the full ready set
  std::vector<std::vector<TaskId>> ep_lists;    ///< per-proc EP tasks, EMT order
  std::vector<TaskId> non_ep_list;              ///< non-EP tasks, LMT order
};

/// Observer invoked once per iteration with the partial schedule as it was
/// before the step's assignment.
using FlbObserver = std::function<void(const Schedule&, const FlbStep&)>;

/// Everything FlbScheduler::resume needs to know about the degraded machine
/// it is continuing on. A context with only `alive` and `release` set is
/// the plain resume: unit speeds and untouched work. The context describes
/// an *observed* machine state, not a prediction: the online controller
/// (runtime/recovery_runtime.hpp) rebuilds one from the event stream at
/// every repair, so a resume never encodes faults that have not happened
/// yet.
struct FlbResumeContext {
  /// Which processors may receive new tasks; must have num_procs entries,
  /// at least one true.
  std::vector<bool> alive;
  /// No new task starts before this instant (the failure / repair horizon).
  Cost release = 0.0;
  /// Per-processor speed factors in (0, 1] (empty = all 1.0). A task placed
  /// on p takes work / speeds[p] wall time — the related-machines model of
  /// sched/hetero — so EST-minimizing selection naturally drains work away
  /// from throttled processors whose ready times balloon.
  std::vector<double> speeds;
  /// Per-task work override (empty = use the graph's costs). Entries other
  /// than kUndefinedTime replace comp(t) — used to resume checkpointed
  /// tasks with only their unprotected remainder.
  std::vector<Cost> work;
  /// Per-task additive wall time (empty = none) — e.g. expected checkpoint
  /// overhead of the re-executed remainder. Added to the duration after
  /// speed scaling.
  std::vector<Cost> extra_time;
  /// Per-processor earliest admission instant (empty = all `release`). A
  /// processor that rejoins after a reboot becomes usable only from its
  /// rejoin time: its effective ready time is clamped to
  /// max(release, proc_release[p]). Entries must be finite and >= 0.
  std::vector<Cost> proc_release;
  /// Per-processor cold-cache horizon (empty = none): data produced on p at
  /// or before this instant was lost with its memory at the reboot, so a
  /// task placed on p re-fetches such a predecessor output at
  /// cold_before[p] + comm instead of reading it locally for free. 0 means
  /// the processor never rebooted. Entries must be finite and >= 0.
  std::vector<Cost> cold_before;
  /// Optional routed interconnect (not owned; must outlive the resume
  /// call). When set, remote communication is priced as comm * hops(from,
  /// to) — the store-and-forward route length of sim/topology — instead of
  /// the paper's clique, and the engine switches to exact EST pricing: EMT
  /// is computed with routed costs at classification, and the non-EP
  /// candidate's destination is chosen by scanning every alive processor
  /// for the true minimum EST (O(P * indeg) per step, acceptable on the
  /// repair path). Routed prices are >= clique prices, so the continuation
  /// stays clean under the clique validator. Must have num_procs nodes.
  const Topology* topology = nullptr;
  /// Price communication with the store-and-forward link-busy variant of
  /// the platform cost model instead of flat hop counts (requires
  /// `topology`). Every scheduling step re-prices both candidates against
  /// the current link reservations and then *commits* the chosen task's
  /// incoming transfers, so a congested route steers placement — the
  /// contended link makes a nearer processor look farther than a free
  /// multi-hop detour. Cached list keys are classification-time prices;
  /// the fresh candidate re-pricing keeps the selection consistent and
  /// every placement feasible.
  bool link_busy = false;
  /// When set (with link_busy), receives the commit log of the resumed
  /// run: one LinkOccupancy per reserved hop, auditable with
  /// validate_link_occupancies. Not owned; overwritten by resume().
  std::vector<platform::LinkOccupancy>* occupancy_log = nullptr;
};

/// The FLB scheduler. Carries a reusable, arena-backed core::Scratch that
/// is reset — not reallocated — between runs, so repeated scheduling
/// through one FlbScheduler instance is allocation-free at steady state
/// (the batch-serving layer in flb::serve gives each worker thread its
/// own instance). A single instance is not thread-safe across concurrent
/// run calls for exactly this reason.
class FlbScheduler final : public Scheduler {
 public:
  explicit FlbScheduler(FlbOptions options = {}) : options_(options) {}

  // Copies share only the options: each copy warms up its own scratch.
  FlbScheduler(const FlbScheduler& other) : options_(other.options_) {}
  FlbScheduler& operator=(const FlbScheduler& other) {
    options_ = other.options_;
    return *this;
  }
  FlbScheduler(FlbScheduler&&) noexcept = default;
  FlbScheduler& operator=(FlbScheduler&&) noexcept = default;

  [[nodiscard]] std::string name() const override { return "FLB"; }

  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

  /// As run(), but writing into `out` (re-dimensioned with capacity kept)
  /// instead of returning a new Schedule. With a warmed scratch and a
  /// capacity-retaining `out`, this is the zero-allocation serving path:
  /// no heap traffic for any request no larger than the largest one seen.
  void run_into(const TaskGraph& g, ProcId num_procs, Schedule& out);

  /// As run(), but invokes `observer` each iteration and fills `stats`
  /// (either may be null).
  [[nodiscard]] Schedule run_instrumented(const TaskGraph& g,
                                          ProcId num_procs,
                                          const FlbObserver* observer,
                                          FlbStats* stats);

  /// The incremental FLB step, exposed for online schedule repair: continue
  /// from a partial schedule. Every task already placed in `prefix` is kept
  /// verbatim (it models the executed past, so its times may come from an
  /// observed run rather than this scheduler); the remaining tasks are
  /// placed by the same two-candidate rule as run(), restricted to
  /// processors with ctx.alive[p] == true and starting no earlier than
  /// ctx.release. A ready task whose enabling processor is dead is
  /// classified non-EP — it pays full communication wherever it lands,
  /// which keeps every placement feasible. `ctx.alive` must have
  /// prefix.num_procs() entries, at least one of them true.
  ///
  /// The rest of the context describes a degraded machine: per-processor
  /// speeds, per-task work overrides and additive wall time (see
  /// FlbResumeContext). The EP/non-EP two-candidate selection is unchanged
  /// — a task's EST does not depend on its own duration — only finish
  /// times stretch, which is exactly how the related-machines EST/PRT
  /// coupling re-balances load away from slow processors.
  [[nodiscard]] Schedule resume(const TaskGraph& g, const Schedule& prefix,
                                const FlbResumeContext& ctx);

 private:
  FlbOptions options_;
  core::Scratch scratch_;  ///< reusable per-run state; see core/scratch.hpp
};

}  // namespace flb
