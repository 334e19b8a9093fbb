#ifndef ATPM_CORE_POLICY_H_
#define ATPM_CORE_POLICY_H_

#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/profit.h"
#include "diffusion/adaptive_environment.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// What happened to one examined candidate u_i.
enum class SeedDecision {
  /// u_i was added to the seed set (front profit won).
  kSelected,
  /// u_i was dropped from the candidate set (rear profit won).
  kAbandoned,
  /// u_i was already activated by an earlier seed and skipped (Alg 2–4,
  /// Lines 3–5).
  kSkippedActivated,
  /// The per-decision RR budget was exhausted before even one halving round
  /// completed, so there is NO estimate to decide from: u_i is conservatively
  /// not seeded, but explicitly marked (the historical code silently decided
  /// Line 13 on fest = rest = 0). Decisions whose budget ran out after at
  /// least one completed round instead decide from the last completed
  /// round's estimates and stay kSelected/kAbandoned.
  kBudgetExhausted,
};

/// Why a decision was forced to conclude with less evidence than its error
/// schedule requested (RunBudget exhaustion, the per-decision RR cap, or an
/// allocation failure absorbed by the degradation path).
enum class DegradationReason : uint8_t {
  /// The RunBudget wall-clock deadline passed.
  kDeadline,
  /// The RunBudget RR-pool byte cap was reached.
  kPoolBytes,
  /// The RunBudget CancelToken was cancelled.
  kCancelled,
  /// The per-decision RR cap (SamplingOptions::max_rr_sets_per_decision)
  /// could not fund the next round (and fail_on_budget_exhausted is off).
  kRrBudget,
  /// Pool growth threw std::bad_alloc; the decision proceeds on the RR
  /// sets drawn before the failure.
  kAllocFailure,
};

/// Stable identifier for logs and telemetry tables ("deadline", ...).
const char* DegradationReasonName(DegradationReason reason);

/// One decision that concluded with less evidence than requested. The run
/// never silently weakens: every forced decision is recorded here, and the
/// run-level achieved_theta / effective_epsilon aggregate the worst case.
struct DegradationEvent {
  DegradationReason reason = DegradationReason::kDeadline;
  /// The candidate whose decision was degraded.
  NodeId node = 0;
  /// Error-halving rounds that DID complete before the cut (0 = the
  /// decision had no estimate at all and the candidate was conservatively
  /// not seeded, recorded as SeedDecision::kBudgetExhausted).
  uint32_t rounds_completed = 0;
  /// θ the interrupted round asked for.
  uint64_t requested_theta = 0;
  /// RR sets actually backing the estimates the decision was made from
  /// (the last usable round's pool; 0 when rounds_completed == 0).
  uint64_t achieved_theta = 0;
};

/// Telemetry for one iteration of an adaptive policy.
struct AdaptiveStepRecord {
  NodeId node = 0;
  SeedDecision decision = SeedDecision::kAbandoned;
  /// |A(u_i)|: nodes newly activated if selected, else 0 (always 0 for
  /// HNTP, which observes no activations).
  uint32_t newly_activated = 0;
  /// RR sets generated while deciding this node (0 under the oracle model).
  uint64_t rr_sets_used = 0;
  /// Coverage queries answered while deciding this node — 2 per halving
  /// round (front + rear); 0 under the oracle model.
  uint64_t coverage_queries = 0;
  /// Error-halving rounds run while deciding this node.
  uint32_t rounds = 0;
};

/// Telemetry of one run of the double-greedy decision loop (ADDATP, HATP,
/// HNTP — see core/decision_loop.h); the shared base of AdaptiveRunResult
/// and HntpResult. Policies that do not sample leave the counters at 0.
struct DecisionLoopTelemetry {
  /// Seeds S, in selection order.
  std::vector<NodeId> seeds;
  /// Total RR sets generated across all iterations.
  uint64_t total_rr_sets = 0;
  /// Coverage queries answered across all iterations (2 per halving round).
  uint64_t total_coverage_queries = 0;
  /// Throwaway pools sampled across all iterations: 1 per halving round
  /// when rounds are batched, 2 when each query pays its own pool. The
  /// pool-reuse ratio total_coverage_queries / total_count_pools is 2.0 for
  /// batched rounds vs 1.0 for the paper's literal per-query sampling.
  uint64_t total_count_pools = 0;
  /// Largest RR-set count spent on a single iteration — the paper sizes the
  /// NSG/NDG baselines by this quantity (Section VI-A). With batched rounds
  /// this is in shared-pool units (θ per round), i.e. half the value of the
  /// unbatched accounting for the same error schedule.
  uint64_t max_rr_sets_per_iteration = 0;
  /// Decisions aborted by the per-decision RR budget before one halving
  /// round completed (recorded as SeedDecision::kBudgetExhausted).
  uint64_t budget_exhausted_decisions = 0;
  /// Decisions whose error schedule was cut short by the budget after at
  /// least one completed round (decided from the last round's estimates).
  uint64_t budget_truncated_decisions = 0;
  /// Decisions forced to conclude early (RunBudget, RR cap, allocation
  /// failure), in examination order. Empty = every decision ran its full
  /// error schedule and the requested guarantee holds.
  std::vector<DegradationEvent> degradation_events;
  /// Worst per-decision relative error actually certified: the requested
  /// relative_error_threshold when no decision was degraded, the ε of the
  /// last completed round for forced decisions, and 1.0 (vacuous) when a
  /// decision got no round at all. ADDATP's guarantee is additive, so it
  /// reports 0 here — see achieved_additive_error.
  double effective_epsilon = 0.0;
  /// Worst per-decision additive spread error n_i ζ_i at the round each
  /// decision was made from; n (the trivial bound) for decisions with no
  /// completed round.
  double achieved_additive_error = 0.0;
  /// Smallest RR pool any estimate-based decision was made from (min over
  /// decisions of the final round's actual sets). 0 when some decision had
  /// no round, or when no decision sampled at all.
  uint64_t achieved_theta = 0;
  /// Per-iteration telemetry (one record per examined candidate).
  std::vector<AdaptiveStepRecord> steps;
};

/// Outcome of running an adaptive policy against one environment (i.e., one
/// ground-truth realization φ); `seeds` is S_φ(π).
struct AdaptiveRunResult : DecisionLoopTelemetry {
  /// I_φ(S): total nodes activated.
  uint32_t realized_spread = 0;
  /// c(S).
  double seed_cost = 0.0;
  /// ρ_φ(S) = I_φ(S) − c(S).
  double realized_profit = 0.0;
};

/// Interface of an adaptive seeding policy π: examines the targets of
/// `problem` in order, interacting with `env` (seed → observe → residual
/// update). Implementations: AdgPolicy (oracle model), AddAtpPolicy,
/// HatpPolicy (noise model), ArsPolicy (random baseline).
class AdaptivePolicy {
 public:
  virtual ~AdaptivePolicy() = default;

  /// Short identifier used in experiment tables ("ADG", "HATP", ...).
  virtual std::string_view name() const = 0;

  /// Runs the policy to completion. `env` must be fresh (no activations)
  /// and bound to the same graph as `problem`. `rng` drives the policy's
  /// internal randomness (sampling); the environment's world is fixed.
  virtual Result<AdaptiveRunResult> Run(const ProfitProblem& problem,
                                        AdaptiveEnvironment* env,
                                        Rng* rng) = 0;

  /// Injects an external SamplingEngine (not owned; nullptr restores the
  /// policy's own). Default no-op: oracle-model and baseline policies don't
  /// sample. RIS-backed policies (ADDATP, HATP) route all sampling through
  /// it — the hook a caller uses to wrap the engine in a decorator, such as
  /// the benchmark's per-call timing engine.
  virtual void set_engine(SamplingEngine* /*engine*/) {}
};

/// Fills the realized spread/cost/profit fields of `result` from the final
/// environment state and the selected seeds.
void FinalizeAdaptiveResult(const ProfitProblem& problem,
                            const AdaptiveEnvironment& env,
                            AdaptiveRunResult* result);

/// An adaptive run's largest per-iteration spend converted to shared-pool
/// units — the paper's NSG/NDG pool-sizing quantity (Section VI-A).
/// Batched rounds already account in shared-pool units; the literal
/// two-pool accounting counts R1+R2 and is halved to the same quantity.
inline uint64_t SharedPoolIterationSpend(const SamplingOptions& sampling,
                                         uint64_t max_rr_sets_per_iteration) {
  return sampling.batched_rounds ? max_rr_sets_per_iteration
                                 : max_rr_sets_per_iteration / 2;
}

}  // namespace atpm

#endif  // ATPM_CORE_POLICY_H_
