#ifndef UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_
#define UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_

#include <string>
#include <vector>

#include "core/operators/physical.h"

namespace unify::core {

/// A family of physical operator implementations (paper Section IV-B)
/// behind a uniform interface: execution, candidate enumeration for the
/// optimizer, and whether an implementation's per-document LLM work can be
/// laid out as morsels (intra-operator parallelism). Implementations are
/// stateless singletons; all methods are const and thread-safe.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Logical operator names this family implements (registry keys).
  virtual std::vector<std::string> OpNames() const = 0;

  /// Whole-input execution: the one way a plan node runs, at every
  /// parallelism.
  virtual StatusOr<OpOutput> Execute(const std::string& op_name,
                                     PhysicalImpl impl, const OpArgs& args,
                                     const std::vector<Value>& inputs,
                                     ExecContext& ctx) const = 0;

  /// Physical implementations available for `op_name` given its args
  /// (stable order; first is not necessarily preferred — the optimizer
  /// costs them).
  virtual std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                               const OpArgs& args) const = 0;

  /// True when `impl` does per-document LLM work in whole batches over a
  /// flat document list (recording each call in
  /// OpStats::llm_batch_seconds), so the executor may lay the run out as
  /// morsels of contiguous batches (GroupBatchSeconds). CPU-only impls
  /// and single-call LLM impls (e.g. kLlmCount) report false.
  virtual bool SupportsPartitioning(const std::string& op_name,
                                    PhysicalImpl impl) const {
    return false;
  }
};

/// Looks up the operator family implementing `op_name`; nullptr when no
/// family claims it.
const PhysicalOperator* FindPhysicalOperator(const std::string& op_name);

/// Number of morsels a doc-level operator over `cardinality` documents
/// splits into: whole LLM batches are never split (that would change the
/// issued calls), so the count is min(max_partitions, ceil(card/batch)),
/// at least 1.
int PlanPartitionCount(double cardinality, int llm_batch_size,
                       int max_partitions);

/// Groups one run's per-batch LLM seconds into its morsel streams: k =
/// PlanPartitionCount(batches) contiguous runs of whole batches, run i
/// covering batches [nb*i/k, nb*(i+1)/k), each summed in batch order.
/// Returns a single run (the whole stream) when k is 1.
std::vector<double> GroupBatchSeconds(const std::vector<double>& batch_seconds,
                                      int max_partitions);

}  // namespace unify::core

#endif  // UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_
