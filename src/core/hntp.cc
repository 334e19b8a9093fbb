#include "core/hntp.h"

#include "core/decision_loop.h"

namespace atpm {

Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng) {
  return RunHntp(problem, options, rng, /*engine=*/nullptr);
}

Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng,
                           SamplingEngine* engine) {
  SamplingEngineHandle engines;
  engines.Use(engine);
  HntpResult result;
  ATPM_RETURN_NOT_OK(RunDecisionLoop(options, problem, /*env=*/nullptr,
                                     &engines, rng, &result));
  return result;
}

}  // namespace atpm
