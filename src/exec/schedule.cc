#include "exec/schedule.h"

#include <algorithm>

namespace unify::exec {

ListScheduler::ListScheduler(const Dag& dag, VirtualLlmPool* pool,
                             bool sequential, double base)
    : dag_(dag),
      pool_(pool),
      sequential_(sequential),
      base_(base),
      floor_(base),
      makespan_(base),
      clock_(base),
      ready_at_(dag.size(), base),
      start_(dag.size(), base),
      finish_(dag.size(), base) {
  if (sequential_) {
    // A cycle leaves the order empty, so status() reports it.
    order_ = dag.TopologicalOrder().value_or({});
    return;
  }
  pending_.assign(dag.size(), 0);
  for (size_t u = 0; u < dag.size(); ++u) {
    pending_[u] = static_cast<int>(dag.parents(static_cast<int>(u)).size());
    if (pending_[u] == 0) ready_.push({base, static_cast<int>(u)});
  }
}

int ListScheduler::Next() {
  if (sequential_) {
    return order_pos_ < order_.size() ? order_[order_pos_++] : -1;
  }
  if (ready_.empty()) return -1;
  const Ready next = ready_.top();
  ready_.pop();
  ready_at_[next.node] = next.time;
  return next.node;
}

double ListScheduler::Place(int u, const NodeCost& cost) {
  const double ready =
      std::max(sequential_ ? clock_ : ready_at_[u], floor_);
  const double llm_ready = ready + cost.cpu_seconds;
  const double finish =
      cost.max_parallelism > 1 && cost.llm_partitions.size() > 1
          ? pool_->ScheduleParallelStream(llm_ready, cost.llm_partitions,
                                          cost.max_parallelism)
          : pool_->ScheduleStream(llm_ready, cost.llm_seconds);
  start_[u] = ready;
  finish_[u] = finish;
  makespan_ = std::max(makespan_, finish);
  ++placed_;
  if (sequential_) {
    clock_ = finish;
    return finish;
  }
  for (int v : dag_.children(u)) {
    if (--pending_[v] > 0) continue;
    double v_ready = base_;
    for (int p : dag_.parents(v)) v_ready = std::max(v_ready, finish_[p]);
    ready_.push({v_ready, v});
  }
  return finish;
}

void ListScheduler::SetFloor(double floor) {
  floor_ = std::max(floor_, floor);
  makespan_ = std::max(makespan_, floor_);
}

Status ListScheduler::status() const {
  if (placed_ != dag_.size()) {
    return Status::FailedPrecondition("cycle detected in plan DAG");
  }
  return Status::OK();
}

StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     VirtualLlmPool* pool, bool sequential,
                                     double base) {
  if (pool == nullptr) {
    return Status::InvalidArgument("ScheduleDag: null pool");
  }
  if (costs.size() != dag.size()) {
    return Status::InvalidArgument("costs/DAG size mismatch");
  }
  ListScheduler scheduler(dag, pool, sequential, base);
  for (int u = scheduler.Next(); u >= 0; u = scheduler.Next()) {
    scheduler.Place(u, costs[u]);
  }
  UNIFY_RETURN_IF_ERROR(scheduler.status());
  return ScheduleResult{scheduler.start(), scheduler.finish(),
                        scheduler.makespan()};
}

StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     int num_servers, bool sequential) {
  VirtualLlmPool pool(num_servers);
  return ScheduleDag(dag, costs, &pool, sequential, /*base=*/0);
}

}  // namespace unify::exec
