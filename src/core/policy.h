#ifndef ATPM_CORE_POLICY_H_
#define ATPM_CORE_POLICY_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/profit.h"
#include "diffusion/adaptive_environment.h"
#include "rris/coverage_batch.h"
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
  /// Coverage queries answered on pools sampled while deciding this node —
  /// 2 per sampled halving round (front + rear) plus any speculative
  /// cross-candidate queries that rode those pools; 0 under the oracle
  /// model. A first round served from a speculative answer charges nothing
  /// here (its queries were counted at the pool that answered them).
  uint64_t coverage_queries = 0;
  /// Error-halving rounds run while deciding this node (including a first
  /// round served speculatively).
  uint32_t rounds = 0;
  /// True iff the first halving round was served from a valid speculative
  /// answer instead of sampling a pool.
  bool first_round_speculative = false;
};

/// Telemetry of one run of the double-greedy decision loop (ADDATP, HATP,
/// HNTP — see core/decision_loop.h); the shared base of AdaptiveRunResult
/// and HntpResult. Policies that do not sample leave the counters at 0.
struct DecisionLoopTelemetry {
  /// Seeds S, in selection order.
  std::vector<NodeId> seeds;
  /// Total RR sets generated across all iterations.
  uint64_t total_rr_sets = 0;
  /// Coverage queries answered across all iterations (2 per sampled halving
  /// round, plus speculative cross-candidate queries riding those pools).
  uint64_t total_coverage_queries = 0;
  /// Throwaway pools sampled across all iterations: 1 per halving round
  /// when rounds are batched, 2 when each query pays its own pool. The
  /// pool-reuse ratio total_coverage_queries / total_count_pools is 2.0 for
  /// batched rounds vs 1.0 for the paper's literal per-query sampling, and
  /// exceeds 2.0 when speculative lookahead queries ride the round pools.
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
  /// Decisions whose first halving round was served from a speculative
  /// cross-candidate answer (no pool sampled for that round).
  uint64_t speculation_hits = 0;
  /// Halving rounds served from stored answers across all decisions — one
  /// answer keeps serving while the round's required θ fits its pool, so
  /// this is >= speculation_hits.
  uint64_t speculation_rounds_served = 0;
  /// Sampled decisions that found no usable speculative answer while
  /// speculation was enabled (lookahead_window > 0, batched rounds).
  uint64_t speculation_misses = 0;
  /// Stored speculative answers discarded because the residual-graph epoch
  /// moved (or the pool was smaller than the consuming round required)
  /// before they could be consumed.
  uint64_t speculation_discarded = 0;
  /// Speculative cross-candidate queries appended to round pools.
  uint64_t speculative_queries = 0;
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

/// One halving round's front/rear conditional-coverage estimates — the
/// sampling step shared by the double-greedy decision loops (ADDATP Alg 3,
/// HATP Alg 4, HNTP). Batched: ONE pool of `theta` RR sets answers both
/// queries. Unbatched: the literal two independent pools R1, R2,
/// bit-identical to the pre-batching code paths for a fixed seed.
struct FrontRearHits {
  uint64_t front = 0;
  uint64_t rear = 0;
  /// RR sets the hits were counted over — `theta` for a sampled round, the
  /// (>= theta) pool size of the answering round for a speculative answer,
  /// or the (< theta) truncated pool size when a BudgetGate stopped the
  /// round mid-pool. Estimates must scale by THIS, not by the requested
  /// theta.
  uint64_t theta = 0;
  /// Throwaway pools this round sampled (1 batched, 2 unbatched, 0 when the
  /// round was served from a speculative answer).
  uint64_t pools = 0;
  /// Coverage queries the sampled pool(s) answered, including speculative
  /// lookahead queries (0 for a speculation-served round).
  uint64_t queries = 0;
};

/// The sampling step of the k-sequential double-greedy loops, extended with
/// speculative cross-candidate pipelining (SamplingOptions.lookahead_window).
///
/// The paper's decision order is serial only in its *commitments*: a
/// skipped or abandoned candidate leaves the residual graph, the seed
/// bitmap, and the candidate set untouched, so the first-round front/rear
/// queries of the next few candidates are already well-defined while the
/// current candidate is still halving. In batched mode the planner appends
/// those queries — rear bases progressively excluding the intermediate
/// candidates, exactly as the native examinations would — to the current
/// round's CoverageQueryBatch, tags the answers with the residual-graph
/// epoch, and serves them back when the loop arrives, for free, iff
///
///   * the epoch is unchanged (every SeedAndObserve bumps it, so the
///     residual graph, seed bitmap, and candidate set are bit-identical to
///     what a native first round would see), and
///   * the answering pool held at least the θ the consuming round requires
///     (per-query theta accounting: the stored answer then certifies the
///     same concentration bound it would have natively, estimates scale by
///     the stored pool size).
///
/// One stored answer serves every round of the consuming schedule whose
/// required θ fits inside its pool — each round's (ε_r, ζ_r, δ_r) bound is
/// individually certified by the larger sample, the loop just re-evaluates
/// its tightening stopping conditions against the same estimate, and θ_r
/// grows strictly (δ_r halves every unresolved round) so sampling always
/// resumes once the pool is outgrown. To make that window deep, later
/// (larger-θ) rounds REFRESH stored answers that were taken on smaller
/// pools.
///
/// Stale answers are discarded unread — nothing sampled on an outdated
/// residual graph can leak into a decision. With lookahead_window = 0 the
/// planner is inert and SampleRound is bit-identical to the plain batched
/// (or unbatched) round for a fixed seed.
class SpeculativeRoundPlanner {
 public:
  /// `targets` is the policy's examination order; it must outlive the
  /// planner and sizes the per-candidate answer store. The planner counts
  /// its speculation_* and speculative_queries events straight into
  /// `telemetry` (not owned; must outlive the planner).
  SpeculativeRoundPlanner(const SamplingOptions& sampling,
                          std::span<const NodeId> targets,
                          DecisionLoopTelemetry* telemetry);

  /// A stored first-round answer (hit counts over a pool of `theta` sets).
  struct FirstRoundAnswer {
    uint64_t front_hits = 0;
    uint64_t rear_hits = 0;
    uint64_t theta = 0;
  };

  /// What one halving-round step did.
  enum class RoundStep {
    /// Served from the active speculative answer: no pool, no budget.
    kServed,
    /// Sampled pool(s); the caller charges RoundRrSets(theta, batched())
    /// to its per-decision budget.
    kSampled,
    /// The budget cannot fund the round's pool(s); nothing happened.
    kOverBudget,
    /// The engine's BudgetGate (RunBudget deadline / byte cap / cancel)
    /// stopped the round. hits->theta > 0 means the pool was truncated but
    /// its estimates are honest over that smaller pool — the caller decides
    /// from them; hits->theta == 0 means nothing usable was sampled and the
    /// caller falls back to its previous round (if any).
    kDegraded,
  };

  /// Moves the cursor to targets[position] (== u) and activates the stored
  /// speculative answer for u if it is still valid under `epoch` and large
  /// enough for a first round of `min_theta` sets (a hit). Stale or
  /// undersized entries are discarded (counted in telemetry); a start
  /// without a usable answer while speculation is enabled counts a miss.
  /// Rounds are then run through NextRound().
  void Begin(size_t position, NodeId u, uint64_t epoch, uint64_t min_theta);

  /// One halving round for u. Serves from the active answer while it still
  /// covers `theta` (it retires permanently once θ outgrows its pool — θ
  /// grows strictly round over round); otherwise samples Cov(u |
  /// front_base) and Cov(u | rear_base) on one shared pool of `theta` sets
  /// (batched) or two independent pools (unbatched) — unless even that
  /// exceeds `budget_remaining`, in which case nothing is sampled and the
  /// caller resolves the budget abort. In batched mode with an open window,
  /// a sampled pool also answers first-round queries for upcoming
  /// candidates still present in `rear_base` (absent ones are already
  /// activated and will be skipped, never sampled); their answers are
  /// stored under `epoch`.
  ///
  /// A non-OK result means the engine failed (injected fault, worker
  /// exception, IO error): kResourceExhausted is the caller's cue to
  /// degrade onto the estimates it already has, anything else propagates.
  /// Serving a stored answer is free, so it happens even when the engine's
  /// BudgetGate is already exhausted; sampling is what kDegraded guards.
  Result<RoundStep> NextRound(SamplingEngine* engine, NodeId u,
                              const BitVector& front_base,
                              const BitVector& rear_base,
                              const BitVector* removed, uint32_t num_alive,
                              uint64_t theta, uint64_t epoch,
                              uint64_t budget_remaining, Rng* rng,
                              FrontRearHits* hits);

  /// Whether rounds share one pool (speculation requires it).
  bool batched() const { return batched_; }

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t theta = 0;
    uint64_t front_hits = 0;
    uint64_t rear_hits = 0;
    bool valid = false;
  };
  struct PendingAnswer {
    /// Target-order position of the speculated candidate.
    size_t position = 0;
    uint32_t front_index = 0;
    uint32_t rear_index = 0;
  };

  /// Serves the active answer for a round of `theta` sets, or retires it.
  std::optional<FirstRoundAnswer> Serve(uint64_t theta);

  /// Samples the round's pool(s) and answers the front/rear queries (plus
  /// speculative lookahead queries in batched mode). hits.theta is the
  /// sets actually drawn: θ normally, less when the engine's BudgetGate
  /// truncated the batched pool, 0 when the round produced nothing usable
  /// (empty truncation, or unbatched pools with mismatched sizes).
  Result<FrontRearHits> SampleRound(SamplingEngine* engine, NodeId u,
                                    const BitVector& front_base,
                                    const BitVector& rear_base,
                                    const BitVector* removed,
                                    uint32_t num_alive, uint64_t theta,
                                    uint64_t epoch, Rng* rng);

  /// Appends up to window_ speculative first-round queries to batch_,
  /// refreshing stored answers whose pool is smaller than `theta`.
  void AddSpeculativeQueries(const BitVector& front_base,
                             const BitVector& rear_base, uint64_t epoch,
                             uint64_t theta);

  bool batched_ = true;
  /// Upcoming candidates each sampled pool speculates on (0 = inert).
  uint32_t window_ = 0;
  std::span<const NodeId> targets_;
  DecisionLoopTelemetry* telemetry_;
  size_t position_ = 0;
  /// The answer activated by Begin for the candidate under examination.
  std::optional<FirstRoundAnswer> active_;
  std::vector<Entry> entries_;  // keyed by target-order position
  /// Progressive rear-base snapshots, one per window slot; pre-sized so the
  /// batch's base pointers stay stable while the engine answers.
  std::vector<BitVector> rear_bases_;
  /// Running rear base from which upcoming candidates are cleared in turn.
  BitVector running_rear_;
  CoverageQueryBatch batch_;
  std::vector<PendingAnswer> pending_;
};

/// RR sets a round will draw under the given batching mode (the budget-
/// check quantity): theta for one shared pool, 2*theta for R1+R2.
inline uint64_t RoundRrSets(uint64_t theta, bool batched) {
  return batched ? theta : 2 * theta;
}

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
