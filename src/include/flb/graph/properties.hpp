#pragma once

#include <span>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/util/types.hpp"

/// \file properties.hpp
/// Static DAG properties used by the schedulers and the experiments:
/// top/bottom levels, critical path, ALAP (latest possible start) times
/// and level decomposition.
///
/// Conventions (matching the paper and the DSC/MCP literature):
///  * bottom level BL(t) includes comp(t) and all edge costs on the longest
///    downward path: BL(t) = comp(t) + max over successors s of
///    (comm(t,s) + BL(s)); BL(exit) = comp(exit).
///  * top level TL(t) excludes comp(t): TL(t) = max over predecessors p of
///    (TL(p) + comp(p) + comm(p,t)); TL(entry) = 0.
///  * critical path CP = max_t (TL(t) + BL(t)) — the sequential length of
///    the heaviest path including communication.
///  * ALAP(t) = CP - BL(t) — the latest possible start time, MCP's priority.
///
/// Every level is one sweep over TaskGraph::topological_order() (reversed
/// for the downward levels); a task reads only its neighbours' final
/// values, in CSR order, so the results do not depend on which
/// topological order is swept.

namespace flb {

/// A copy of g.topological_order(), the order the graph was built with.
/// Code with the graph at hand should read the span instead.
std::vector<TaskId> topological_order(const TaskGraph& g);

/// Bottom levels (computation + communication), indexed by task id.
std::vector<Cost> bottom_levels(const TaskGraph& g);

/// Allocation-free bottom_levels() writing into caller storage: `bl` must
/// have size num_tasks(). The vector flavour runs this same sweep, so the
/// two are bit-identical.
void bottom_levels_into(const TaskGraph& g, std::span<Cost> bl);

/// Bottom levels counting only computation costs (edges cost zero). Used by
/// DSC-LLB's LLB step, which orders within clusters where communication has
/// already been zeroed.
std::vector<Cost> computation_bottom_levels(const TaskGraph& g);

/// Top levels (computation + communication), indexed by task id.
std::vector<Cost> top_levels(const TaskGraph& g);

/// Critical path length including communication costs.
Cost critical_path(const TaskGraph& g);

/// Critical path length counting computation only (a schedule-length lower
/// bound valid for any processor count, since same-processor communication
/// is free).
Cost computation_critical_path(const TaskGraph& g);

/// ALAP latest-possible-start times: ALAP(t) = CP - BL(t).
std::vector<Cost> alap_times(const TaskGraph& g);

/// Precedence depth of each task: entry tasks are level 0; otherwise
/// 1 + max level over predecessors.
std::vector<std::size_t> depth_levels(const TaskGraph& g);

/// Tasks grouped by precedence depth: result[d] lists the tasks at depth d.
std::vector<std::vector<TaskId>> level_decomposition(const TaskGraph& g);

/// The largest number of tasks at any single precedence depth. This is a
/// cheap lower bound on the task graph width W (any level is an antichain).
std::size_t max_level_width(const TaskGraph& g);

}  // namespace flb
