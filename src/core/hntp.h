#ifndef ATPM_CORE_HNTP_H_
#define ATPM_CORE_HNTP_H_

#include "common/rng.h"
#include "common/status.h"
#include "core/hatp.h"
#include "core/policy.h"
#include "core/profit.h"

namespace atpm {

/// HNTP shares HATP's option set (including the embedded SamplingOptions);
/// the alias names the nonadaptive tailoring at call sites.
using HntpOptions = HatpOptions;

/// Output of RunHntp: the selected seed batch (nonadaptive: deployed all
/// at once) and the decision loop's telemetry. Step records carry no
/// activations and no kSkippedActivated decisions — nothing is observed.
struct HntpResult : DecisionLoopTelemetry {};

/// HNTP — the nonadaptive tailoring of HATP (Section VI-A). Identical
/// estimation machinery (fresh hybrid-error RR pools per candidate — one
/// shared batched pool per round by default, C'1/C'2 stopping, adaptive ε/ζ
/// schedule), but no seeding feedback: the graph is
/// never updated, previously *selected* seeds stay in the graph, so the
/// front estimate is the true conditional coverage Cov(u_i | S_{i-1}) and
/// the rear base T_{i-1} \ {u_i} includes the selected seeds. The whole
/// batch is returned for one-shot deployment.
///
/// Reuses HatpOptions; n_i = n throughout. The engine overload samples
/// through `engine` (must be bound to problem.graph and options.model);
/// the three-argument form, or a null `engine`, builds the engine that
/// options.sampling describes internally.
Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng);
Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng,
                           SamplingEngine* engine);

}  // namespace atpm

#endif  // ATPM_CORE_HNTP_H_
