#include "core/operators/physical_operator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/operators/op_families.h"

namespace unify::core {

const PhysicalOperator* FindPhysicalOperator(const std::string& op_name) {
  static const std::map<std::string, const PhysicalOperator*>* registry =
      [] {
        auto* m = new std::map<std::string, const PhysicalOperator*>();
        for (const PhysicalOperator* op :
             {&ops::ScanOp(), &ops::FilterOp(), &ops::GroupOp(),
              &ops::AggregateOp(), &ops::OrderOp(), &ops::JoinOp(),
              &ops::ScalarOp()}) {
          for (const std::string& name : op->OpNames()) (*m)[name] = op;
        }
        return m;
      }();
  auto it = registry->find(op_name);
  return it == registry->end() ? nullptr : it->second;
}

int PlanPartitionCount(double cardinality, int llm_batch_size,
                       int max_partitions) {
  if (max_partitions <= 1) return 1;
  double batch = static_cast<double>(std::max(1, llm_batch_size));
  int batches =
      static_cast<int>(std::ceil(std::max(0.0, cardinality) / batch));
  return std::max(1, std::min(max_partitions, batches));
}

std::vector<double> GroupBatchSeconds(const std::vector<double>& batch_seconds,
                                      int max_partitions) {
  const size_t nb = batch_seconds.size();
  const size_t k = static_cast<size_t>(PlanPartitionCount(
      static_cast<double>(nb), /*llm_batch_size=*/1, max_partitions));
  std::vector<double> runs(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t b = nb * i / k; b < nb * (i + 1) / k; ++b) {
      runs[i] += batch_seconds[b];
    }
  }
  return runs;
}

}  // namespace unify::core
