#include "core/policy.h"

#include "common/logging.h"

namespace atpm {

const char* DegradationReasonName(DegradationReason reason) {
  switch (reason) {
    case DegradationReason::kDeadline:
      return "deadline";
    case DegradationReason::kPoolBytes:
      return "pool-bytes";
    case DegradationReason::kCancelled:
      return "cancelled";
    case DegradationReason::kRrBudget:
      return "rr-budget";
    case DegradationReason::kAllocFailure:
      return "alloc-failure";
  }
  return "unknown";
}

void FinalizeAdaptiveResult(const ProfitProblem& problem,
                            const AdaptiveEnvironment& env,
                            AdaptiveRunResult* result) {
  // The environment's own interaction accounting must agree with the
  // policy's telemetry: every reported seed is exactly one SeedAndObserve.
  ATPM_DCHECK(static_cast<size_t>(env.num_seedings()) ==
              result->seeds.size());
  result->realized_spread = env.num_activated();
  result->seed_cost = problem.CostOfSet(result->seeds);
  result->realized_profit =
      static_cast<double>(result->realized_spread) - result->seed_cost;
}

}  // namespace atpm
