#ifndef UNIFY_EXEC_SCHEDULE_H_
#define UNIFY_EXEC_SCHEDULE_H_

#include <functional>
#include <queue>
#include <vector>

#include "common/status.h"
#include "exec/dag.h"
#include "exec/virtual_pool.h"

namespace unify::exec {

/// Virtual-time cost of one plan node.
struct NodeCost {
  /// CPU-side (pre-programmed) work: runs on an uncontended resource.
  double cpu_seconds = 0;
  /// LLM-side work: a sequential stream of batched calls occupying one
  /// simulated server.
  double llm_seconds = 0;
  /// Morsel-driven intra-operator parallelism: when non-empty AND
  /// `max_parallelism` > 1, the node's LLM work is issued as these
  /// independent morsel streams (they should sum to `llm_seconds`)
  /// instead of one sequential stream, with at most `max_parallelism`
  /// morsels in flight at once. Empty = one stream (the default).
  std::vector<double> llm_partitions;
  int max_parallelism = 1;
};

/// The paper's "Parallel Topological Execution" (Section III-C) as an
/// incremental list scheduler over the servers of a VirtualLlmPool. The
/// caller alternates Next() and Place(): Next() pops the node to dispatch,
/// the caller learns (predicts or measures) its NodeCost, and Place()
/// lays that cost on the pool and releases the node's children. Both the
/// optimizer's predicted makespan (ScheduleDag) and the executor's
/// measured one (PlanExecutor::Run) are this one dispatch rule.
///
/// Parallel mode pops the earliest-ready node first (ties to the lower
/// node id); a node becomes ready when its last parent finishes, its LLM
/// stream then competing for servers. `sequential` is the paper's
/// Unify–noLO ablation (Section VII-D): nodes run strictly one after
/// another in topological order.
///
/// All times are absolute virtual seconds on the pool; every root becomes
/// ready at `base`. The pool may be shared with other concurrent
/// schedules (a UnifyService serving session), in which case intervals
/// include cross-query queueing. `dag` and `pool` must outlive the
/// scheduler, and `dag`'s shape must not change while it runs.
class ListScheduler {
 public:
  ListScheduler(const Dag& dag, VirtualLlmPool* pool, bool sequential,
                double base);

  /// Pops the next node to dispatch; -1 when none is ready (every node
  /// has been placed, or the rest sit on a cycle — see status()).
  int Next();

  /// Lays node `u` (just returned by Next) on the pool with `cost`: it
  /// starts at its ready time (or the floor, if later) and its LLM work
  /// runs as one stream or as its morsel streams. Records the interval,
  /// releases `u`'s children and returns its finish time.
  double Place(int u, const NodeCost& cost);

  /// Barrier: no node dispatched from now on starts before `floor`
  /// (absolute). Raises the makespan to at least `floor`. Ordering among
  /// ready nodes is unaffected.
  void SetFloor(double floor);

  /// OK once every node has been placed; the cycle error otherwise.
  Status status() const;

  const std::vector<double>& start() const { return start_; }
  const std::vector<double>& finish() const { return finish_; }
  /// Completion time of everything placed so far (and of the floor).
  double makespan() const { return makespan_; }

 private:
  struct Ready {
    double time;
    int node;
    bool operator>(const Ready& other) const {
      if (time != other.time) return time > other.time;
      return node > other.node;
    }
  };

  const Dag& dag_;
  VirtualLlmPool* pool_;
  const bool sequential_;
  const double base_;
  double floor_;
  double makespan_;
  /// Sequential mode: the topological order and the position in it, and
  /// the finish time of the last node placed.
  std::vector<int> order_;
  size_t order_pos_ = 0;
  double clock_;
  /// Parallel mode: unfinished parents per node and the ready queue.
  std::vector<int> pending_;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready_;
  /// Ready time of every popped node (before the floor).
  std::vector<double> ready_at_;
  std::vector<double> start_;
  std::vector<double> finish_;
  size_t placed_ = 0;
};

/// A computed execution timeline. All times are absolute virtual seconds
/// on the pool the schedule ran against (for a fresh pool and base 0 they
/// coincide with query-relative times).
struct ScheduleResult {
  std::vector<double> start;
  std::vector<double> finish;
  /// When the whole plan completes (absolute).
  double makespan = 0;
};

/// Runs the ListScheduler over `dag` with known per-node `costs` on
/// `pool`, every root becoming ready at absolute time `base`.
StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     VirtualLlmPool* pool, bool sequential,
                                     double base = 0);

/// Convenience overload: schedules on a fresh private pool of
/// `num_servers` servers starting at time 0 (the standalone,
/// one-query-at-a-time model).
StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     int num_servers, bool sequential);

}  // namespace unify::exec

#endif  // UNIFY_EXEC_SCHEDULE_H_
