#ifndef ATPM_CORE_DECISION_LOOP_H_
#define ATPM_CORE_DECISION_LOOP_H_

#include "common/rng.h"
#include "common/status.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "core/policy.h"
#include "core/profit.h"
#include "diffusion/adaptive_environment.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// The double-greedy halving loop behind ADDATP (Alg 3), HATP (Alg 4) and
/// HNTP (Section VI-A). The targets are examined in order; for each
/// candidate u_i the loop runs error-halving rounds — one front/rear
/// conditional-coverage estimate per round, on one shared pool of RR sets
/// or (SamplingOptions::batched_rounds = false) the literal two pools —
/// until its stopping rule certifies select vs abandon, then commits the
/// decision. Two things vary:
///
///  * the stopping rule, chosen by the options type. AddAtpOptions: the
///    additive rule (AddAtpSampleSize, C1/C2 with the optional dynamic C2
///    bar, ζ/√2 schedule, select iff ρ̃f >= ρ̃r). HatpOptions: the hybrid
///    rule (HatpSampleSize, C'1/C'2, the Lines 19–23 ε/ζ schedule, select
///    iff fest + rest >= 2c(u)).
///  * the seeding feedback, chosen by `env`. Non-null (adaptive): activated
///    candidates are skipped, rounds sample the residual graph of n_i alive
///    nodes, and a selection seeds `env`. nullptr (nonadaptive, HNTP):
///    n_i = n, nothing is observed, and selected seeds stay in the graph
///    and in the rear base T.
///
/// The loop validates the problem, the options (InvalidArgument on
/// non-finite or out-of-range errors) and the environment before it binds
/// `engine` to the problem's graph. A decision that ends with less evidence
/// than its schedule asked for — allocation failure, the per-decision RR
/// cap, or RunBudget exhaustion — is recorded as a DegradationEvent, and the
/// weakened guarantee folds into effective_epsilon /
/// achieved_additive_error / achieved_theta. `result` must be
/// default-constructed; an adaptive run's realized_* fields are left to
/// FinalizeAdaptiveResult.
Status RunDecisionLoop(const AddAtpOptions& options,
                       const ProfitProblem& problem, AdaptiveEnvironment* env,
                       SamplingEngineHandle* engine, Rng* rng,
                       DecisionLoopTelemetry* result);
Status RunDecisionLoop(const HatpOptions& options,
                       const ProfitProblem& problem, AdaptiveEnvironment* env,
                       SamplingEngineHandle* engine, Rng* rng,
                       DecisionLoopTelemetry* result);

}  // namespace atpm

#endif  // ATPM_CORE_DECISION_LOOP_H_
