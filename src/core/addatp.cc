#include "core/addatp.h"

#include "core/decision_loop.h"

namespace atpm {

Result<AdaptiveRunResult> AddAtpPolicy::Run(const ProfitProblem& problem,
                                            AdaptiveEnvironment* env,
                                            Rng* rng) {
  AdaptiveRunResult result;
  ATPM_RETURN_NOT_OK(
      RunDecisionLoop(options_, problem, env, &engine_, rng, &result));
  FinalizeAdaptiveResult(problem, *env, &result);
  return result;
}

}  // namespace atpm
