#include "core/decision_loop.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/concentration.h"
#include "rris/coverage_batch.h"

namespace atpm {

namespace {

/// Global-registry instruments of the decision loop. Registered once on
/// first use.
struct LoopMetrics {
  obs::Counter* decisions;
  obs::Counter* rounds;
  obs::Counter* degradation_total;
  /// Indexed by DegradationReason's underlying value.
  obs::Counter* degradation_by_reason[5];

  static const LoopMetrics& Get() {
    static const LoopMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* m = new LoopMetrics();
      m->decisions = reg.RegisterCounter(
          "atpm_decisions_total",
          "Candidate seed decisions concluded by adaptive policies");
      m->rounds = reg.RegisterCounter(
          "atpm_decision_rounds_total",
          "Error-halving rounds run across all decisions");
      m->degradation_total = reg.RegisterCounter(
          "atpm_degradation_events_total",
          "Decisions forced to conclude with less evidence than requested");
      m->degradation_by_reason[0] = reg.RegisterCounter(
          "atpm_degradation_deadline_total",
          "Degraded decisions: RunBudget deadline passed");
      m->degradation_by_reason[1] = reg.RegisterCounter(
          "atpm_degradation_pool_bytes_total",
          "Degraded decisions: RR-pool byte cap reached");
      m->degradation_by_reason[2] = reg.RegisterCounter(
          "atpm_degradation_cancelled_total",
          "Degraded decisions: CancelToken cancelled");
      m->degradation_by_reason[3] = reg.RegisterCounter(
          "atpm_degradation_rr_budget_total",
          "Degraded decisions: per-decision RR cap exhausted");
      m->degradation_by_reason[4] = reg.RegisterCounter(
          "atpm_degradation_alloc_failure_total",
          "Degraded decisions: allocation failure absorbed");
      return m;
    }();
    return *metrics;
  }
};

/// Maps the BudgetGate stop cause observed at a degraded round to the
/// recorded reason (kNone — which a degraded round should never report —
/// maps to kDeadline as the conservative default).
DegradationReason ReasonFromBudgetStop(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::kPoolBytes:
      return DegradationReason::kPoolBytes;
    case BudgetStop::kCancelled:
      return DegradationReason::kCancelled;
    case BudgetStop::kDeadline:
    case BudgetStop::kNone:
      return DegradationReason::kDeadline;
  }
  return DegradationReason::kDeadline;
}

/// Records one degraded decision in the observability layer: a single WARN
/// line (so degraded runs are visible without inspecting result structs)
/// plus atpm_degradation_events_total and the per-reason counter.
void NoteDegradationEvent(const DegradationEvent& event) {
  ATPM_WARN(
      "degraded decision: node=%u reason=%s rounds_completed=%u "
      "requested_theta=%llu achieved_theta=%llu",
      static_cast<unsigned>(event.node), DegradationReasonName(event.reason),
      static_cast<unsigned>(event.rounds_completed),
      static_cast<unsigned long long>(event.requested_theta),
      static_cast<unsigned long long>(event.achieved_theta));
  const LoopMetrics& metrics = LoopMetrics::Get();
  metrics.degradation_total->Increment();
  const size_t reason = static_cast<size_t>(event.reason);
  if (reason < 5) metrics.degradation_by_reason[reason]->Increment();
}

/// The error schedule, estimates and select/abandon comparison of one
/// decision. Per examined candidate the loop calls Begin, then for every
/// completed round Observe followed by Stop until Stop returns true (or a
/// degradation ends the decision early), then Select if any round
/// completed.
class StoppingRule {
 public:
  virtual ~StoppingRule() = default;

  /// InvalidArgument unless every error parameter is finite and in range.
  virtual Status Validate(const std::string& name) const = 0;

  /// Starts deciding a candidate of cost `cost` on a residual graph of `nd`
  /// alive nodes at failure probability `delta`. `profit_so_far` is the
  /// realized profit of the seeds committed so far (0 nonadaptively).
  virtual void Begin(double nd, double delta, double cost,
                     [[maybe_unused]] double profit_so_far) {
    nd_ = nd;
    cost_ = cost;
    zeta_ = Clamp(initial_spread_error_ / nd, 1.0 / nd, 0.5);
    delta_ = delta;
  }

  /// θ of the next round.
  virtual uint64_t SampleSize() const = 0;
  /// Takes a completed round's front/rear hits as the current estimates.
  virtual void Observe(const FrontRearHits& hits) = 0;
  /// True when the current estimates settle the decision; otherwise
  /// tightens the schedule for another round.
  virtual bool Stop() = 0;
  /// Whether the current estimates select the candidate (else abandon).
  virtual bool Select() const = 0;

  /// Relative error a regular stop certifies; 0 for a purely additive rule.
  virtual double requested_epsilon() const = 0;
  /// Relative error of the current round.
  virtual double epsilon() const = 0;
  /// Additive spread error n_i ζ_i of the current round.
  double additive_error() const { return nd_ * zeta_; }

 protected:
  explicit StoppingRule(double initial_spread_error)
      : initial_spread_error_(initial_spread_error) {}

  Status ValidateSpreadError(const std::string& name) const {
    if (!(std::isfinite(initial_spread_error_) &&
          initial_spread_error_ > 0.0)) {
      return Status::InvalidArgument(
          name + ": need a finite initial_spread_error > 0");
    }
    return Status::OK();
  }

  double initial_spread_error_;
  double nd_ = 0.0;
  double cost_ = 0.0;
  double zeta_ = 0.0;
  double delta_ = 0.0;
};

/// ADDATP's additive-error rule (Alg 3): θ = ln(8/δ_i) / (2 ζ_i²); stop on
///   C1: the estimates are separated enough to decide correctly whp, or
///   C2: n_i ζ_i <= η (a wrong decision costs at most ~η profit),
/// otherwise halve ζ_i by √2 and δ_i by 2. η is 1 in Algorithm 3; the
/// dynamic variant (Discussion after Theorem 2) raises it while
/// 2 * (η_sum + η) + 2 <= ε * profit-so-far, where η_sum accumulates the
/// bars of the decisions that stopped via C2.
class AdditiveRule final : public StoppingRule {
 public:
  explicit AdditiveRule(const AddAtpOptions& options)
      : StoppingRule(options.initial_spread_error),
        dynamic_threshold_(options.dynamic_threshold),
        dynamic_epsilon_(options.dynamic_epsilon) {}

  Status Validate(const std::string& name) const override {
    ATPM_RETURN_NOT_OK(ValidateSpreadError(name));
    if (!(dynamic_epsilon_ >= 0.0 && dynamic_epsilon_ < 1.0)) {
      return Status::InvalidArgument(name +
                                     ": need 0 <= dynamic_epsilon < 1");
    }
    return Status::OK();
  }

  void Begin(double nd, double delta, double cost,
             double profit_so_far) override {
    StoppingRule::Begin(nd, delta, cost, profit_so_far);
    eta_ = 1.0;
    if (dynamic_threshold_) {
      const double slack =
          dynamic_epsilon_ * profit_so_far - 2.0 * eta_sum_ - 2.0;
      eta_ = std::max(1.0, slack / 2.0);
    }
  }

  uint64_t SampleSize() const override {
    return AddAtpSampleSize(zeta_, delta_);
  }

  void Observe(const FrontRearHits& hits) override {
    const double scale = nd_ / static_cast<double>(hits.theta);
    rho_f_ = static_cast<double>(hits.front) * scale - cost_;
    rho_r_ = -static_cast<double>(hits.rear) * scale + cost_;
  }

  bool Stop() override {
    const double additive = nd_ * zeta_;  // n_i ζ_i, in spread units
    const bool c1 = std::abs(rho_f_ - rho_r_) >= 2.0 * additive ||
                    rho_f_ <= -additive || rho_r_ <= -additive;
    const bool c2 = additive <= eta_;
    if (c1 || c2) {
      if (!c1) eta_sum_ += eta_;  // η̃_i = η_i iff C2 fired
      return true;
    }
    zeta_ /= std::sqrt(2.0);
    delta_ /= 2.0;
    return false;
  }

  bool Select() const override { return rho_f_ >= rho_r_; }

  double requested_epsilon() const override { return 0.0; }
  double epsilon() const override { return 0.0; }

 private:
  bool dynamic_threshold_;
  double dynamic_epsilon_;
  double eta_ = 1.0;
  double eta_sum_ = 0.0;
  double rho_f_ = 0.0;
  double rho_r_ = 0.0;
};

/// HATP's hybrid-error rule (Alg 4), shared by HNTP:
/// θ = (1+ε_i/3)² / (2 ε_i ζ_i) · ln(4/δ_i). C'1 certifies the comparison
/// fest + rest vs 2 c(u) under the hybrid confidence interval; C'2 fires
/// once both errors reach their floors (ε_i <= ε and n_i ζ_i <= 1).
/// Otherwise Lines 19–23 shrink whichever error dominates the uncertainty
/// around this node's marginal spread.
class HybridRule final : public StoppingRule {
 public:
  explicit HybridRule(const HatpOptions& options)
      : StoppingRule(options.initial_spread_error),
        initial_eps_(options.initial_relative_error),
        eps_thr_(options.relative_error_threshold) {}

  Status Validate(const std::string& name) const override {
    ATPM_RETURN_NOT_OK(ValidateSpreadError(name));
    if (!(eps_thr_ > 0.0 && eps_thr_ < 1.0) ||
        !(initial_eps_ >= eps_thr_ && initial_eps_ < 1.0)) {
      return Status::InvalidArgument(
          name + ": need 0 < threshold <= initial_relative_error < 1");
    }
    return Status::OK();
  }

  void Begin(double nd, double delta, double cost,
             double profit_so_far) override {
    StoppingRule::Begin(nd, delta, cost, profit_so_far);
    eps_ = initial_eps_;
  }

  uint64_t SampleSize() const override {
    return HatpSampleSize(eps_, zeta_, delta_);
  }

  void Observe(const FrontRearHits& hits) override {
    const double scale = nd_ / static_cast<double>(hits.theta);
    fest_ = static_cast<double>(hits.front) * scale;
    rest_ = static_cast<double>(hits.rear) * scale;
  }

  bool Stop() override {
    const double az = nd_ * zeta_;  // n_i ζ_i in spread units
    // C'1: select side on the first two disjuncts, abandon side on the
    // last two.
    const bool c1 =
        (fest_ + rest_ - 2.0 * az) / (1.0 + eps_) >= 2.0 * cost_ ||
        (rest_ - az) / (1.0 + eps_) >= cost_ ||
        (fest_ + rest_ + 2.0 * az) / (1.0 - eps_) <= 2.0 * cost_ ||
        (fest_ + az) / (1.0 - eps_) <= cost_;
    const bool c2 = eps_ <= eps_thr_ && az <= 1.0;
    if (c1 || c2) return true;

    const bool eps_floored = eps_ <= eps_thr_;
    const bool zeta_floored = az <= 1.0;
    if (eps_floored && !zeta_floored) {
      zeta_ /= 2.0;
    } else if (!eps_floored && zeta_floored) {
      eps_ /= 2.0;
    } else if (fest_ >= 10.0 * az) {
      eps_ /= 2.0;
    } else if (fest_ <= az) {
      zeta_ /= 2.0;
    } else {
      eps_ /= std::sqrt(2.0);
      zeta_ /= std::sqrt(2.0);
    }
    eps_ = std::max(eps_, eps_thr_);
    zeta_ = std::max(zeta_, 1.0 / nd_);
    delta_ /= 2.0;
    return false;
  }

  // Line 13: select iff fest + rest >= 2 c(u) (equivalently ρ̃f >= ρ̃r).
  bool Select() const override { return fest_ + rest_ >= 2.0 * cost_; }

  double requested_epsilon() const override { return eps_thr_; }
  double epsilon() const override { return eps_; }

 private:
  double initial_eps_;
  double eps_thr_;
  double eps_ = 0.0;
  double fest_ = 0.0;
  double rest_ = 0.0;
};

/// The loop's knobs besides the stopping rule and the feedback mode.
struct LoopSpec {
  /// Policy name, the prefix of every Status message.
  const char* name;
  DiffusionModel model;
  const SamplingOptions& sampling;
  bool fail_on_budget_exhausted;
};

Status RunLoop(const LoopSpec& spec, StoppingRule* rule,
               const ProfitProblem& problem, AdaptiveEnvironment* env,
               SamplingEngineHandle* engines, Rng* rng,
               DecisionLoopTelemetry* result) {
  using RoundStep = SpeculativeRoundPlanner::RoundStep;
  const std::string name = spec.name;
  ATPM_RETURN_NOT_OK(problem.Validate());
  ATPM_RETURN_NOT_OK(rule->Validate(name));
  if (env != nullptr && &env->graph() != problem.graph) {
    return Status::InvalidArgument(name + ": environment graph mismatch");
  }
  if (env != nullptr && env->num_activated() != 0) {
    return Status::InvalidArgument(name + ": environment must be fresh");
  }

  const Graph& graph = *problem.graph;
  const NodeId n = graph.num_nodes();
  const uint32_t k = problem.k();
  if (k == 0) return Status::OK();

  SamplingEngine* engine =
      engines->Get(graph, spec.model, spec.sampling.EngineOptions());
  if (&engine->graph() != &graph || engine->model() != spec.model) {
    return Status::InvalidArgument(
        name + ": sampling engine bound to a different graph/model");
  }

  const LoopMetrics& metrics = LoopMetrics::Get();
  result->steps.reserve(k);
  SpeculativeRoundPlanner planner(spec.sampling, problem.targets, result);

  // Run-level resource envelope: the gate is polled by the engine at batch
  // boundaries and by the planner before each sampled round. Inactive
  // budgets arm nothing and the sampling paths stay bit-identical.
  BudgetGate gate(spec.sampling.budget);
  ScopedEngineBudget scoped_budget(engine, &gate);

  // Worst-case guarantee aggregation across decisions (see
  // DecisionLoopTelemetry::effective_epsilon / achieved_theta).
  double worst_eps = rule->requested_epsilon();
  double worst_additive = 0.0;
  uint64_t min_decided_theta = UINT64_MAX;
  bool any_estimate_decision = false;
  bool any_blind_decision = false;

  // S_{i-1}: the selected seeds. Adaptively they are activated and so never
  // present in residual RR sets — kept as a bitmap to evaluate
  // Cov(u | S_{i-1}) by the paper's formula.
  BitVector seed_bitmap(n);
  // Rear base T_{i-1} \ {u_i}: the undecided candidates, plus — nonadaptively
  // — the selected seeds, which stay in the graph.
  BitVector rear_base(n);
  for (NodeId t : problem.targets) rear_base.Set(t);
  double seed_cost = 0.0;
  // Without an environment, the bases a speculative answer depends on only
  // change shape on a selection (abandons are exactly the progressive
  // clears the planner models), so the staleness epoch is the selection
  // count.
  uint64_t selections = 0;
  const double delta = 1.0 / (static_cast<double>(k) * static_cast<double>(n));

  for (size_t pos = 0; pos < problem.targets.size(); ++pos) {
    const NodeId u = problem.targets[pos];
    obs::TraceSpan decision_span("decision");
    decision_span.AnnotateU64("node", u);
    AdaptiveStepRecord step;
    step.node = u;
    rear_base.Clear(u);  // u is under examination

    if (env != nullptr && env->IsActivated(u)) {
      step.decision = SeedDecision::kSkippedActivated;
      metrics.decisions->Increment();
      result->steps.push_back(step);
      continue;
    }

    const uint32_t ni = env != nullptr ? env->num_remaining() : n;
    const double nd = static_cast<double>(ni);
    const double cost = problem.CostOf(u);
    const BitVector* removed = env != nullptr ? &env->activated() : nullptr;
    const uint64_t epoch = env != nullptr ? env->residual_epoch() : selections;
    rule->Begin(nd, delta, cost,
                env != nullptr
                    ? static_cast<double>(env->num_activated()) - seed_cost
                    : 0.0);

    uint64_t used_this_iter = 0;
    // A forced decision ends before its schedule did; a blind one has no
    // completed round at all.
    bool forced = false;
    bool blind = false;
    // Evidence the decision ends up standing on (updated after every
    // completed round).
    uint64_t last_theta = 0;
    double last_eps = 1.0;
    double last_az = nd;

    const auto complete_round = [&](uint64_t rr_sets,
                                    const FrontRearHits& hits) {
      used_this_iter += rr_sets;
      ++step.rounds;
      metrics.rounds->Increment();
      step.coverage_queries += hits.queries;
      result->total_count_pools += hits.pools;
      rule->Observe(hits);
      last_theta = hits.theta;
      last_eps = rule->epsilon();
      last_az = rule->additive_error();
    };
    // The one degradation path: the decision proceeds on the rounds already
    // completed, or is recorded as blind when there are none.
    const auto degrade = [&](DegradationReason reason, uint64_t theta) {
      forced = true;
      blind = step.rounds == 0;
      result->degradation_events.push_back(
          {reason, u, step.rounds, theta, last_theta});
      NoteDegradationEvent(result->degradation_events.back());
      decision_span.AnnotateU64("degraded_reason",
                                static_cast<uint64_t>(reason));
      ++(blind ? result->budget_exhausted_decisions
               : result->budget_truncated_decisions);
    };

    while (true) {
      const uint64_t theta = rule->SampleSize();
      obs::TraceSpan round_span("round");
      round_span.AnnotateU64("theta", theta);
      if (step.rounds == 0) planner.Begin(pos, u, epoch, theta);
      // One round: served from a stored speculative answer (free, estimates
      // scale by the answering pool's size), or sampled — batched rounds
      // share one pool across the front and rear queries, the literal
      // algorithms pay two independent pools R1, R2.
      FrontRearHits hits;
      const Result<RoundStep> round = planner.NextRound(
          engine, u, seed_bitmap, rear_base, removed, ni, theta, epoch,
          spec.sampling.max_rr_sets_per_decision - used_this_iter, rng,
          &hits);
      if (!round.ok()) {
        // Allocation failure is absorbed; real engine faults propagate.
        if (!round.status().IsResourceExhausted()) return round.status();
        degrade(DegradationReason::kAllocFailure, theta);
        break;
      }
      if (round.value() == RoundStep::kOverBudget) {
        if (spec.fail_on_budget_exhausted) {
          return Status::OutOfBudget(
              name + ": deciding node " + std::to_string(u) + " needs " +
              std::to_string(RoundRrSets(theta, planner.batched())) +
              " more RR sets (budget " +
              std::to_string(spec.sampling.max_rr_sets_per_decision) + ")");
        }
        degrade(DegradationReason::kRrBudget, theta);
        break;
      }
      if (round.value() == RoundStep::kDegraded) {
        // The run budget tripped. A truncated pool (hits.theta > 0) still
        // gives honest estimates over what it drew — it becomes the final
        // round; otherwise the previous round's estimates stand.
        if (hits.theta > 0) {
          complete_round(RoundRrSets(hits.theta, planner.batched()), hits);
        }
        const BudgetGate* engine_gate = engine->budget();
        degrade(ReasonFromBudgetStop(engine_gate != nullptr
                                         ? engine_gate->Exhausted()
                                         : BudgetStop::kNone),
                theta);
        break;
      }
      const bool sampled = round.value() == RoundStep::kSampled;
      if (!sampled && step.rounds == 0) step.first_round_speculative = true;
      complete_round(sampled ? RoundRrSets(theta, planner.batched()) : 0,
                     hits);
      if (rule->Stop()) break;
    }

    step.rr_sets_used = used_this_iter;
    result->total_rr_sets += used_this_iter;
    result->total_coverage_queries += step.coverage_queries;
    result->max_rr_sets_per_iteration =
        std::max(result->max_rr_sets_per_iteration, used_this_iter);

    if (blind) {
      // No estimate at all: the comparison is vacuous, so the candidate is
      // conservatively not seeded and the guarantee trackers take their
      // trivial bounds (a purely additive rule reports no relative error).
      step.decision = SeedDecision::kBudgetExhausted;
      any_blind_decision = true;
      if (rule->requested_epsilon() > 0.0) worst_eps = 1.0;
      worst_additive = std::max(worst_additive, nd);
    } else {
      // A certified stop delivers the requested guarantee; a forced
      // decision stands on the last round's coarser (ε, n_i ζ).
      any_estimate_decision = true;
      min_decided_theta = std::min(min_decided_theta, last_theta);
      if (forced) worst_eps = std::max(worst_eps, last_eps);
      worst_additive = std::max(worst_additive, last_az);
      if (rule->Select()) {
        step.decision = SeedDecision::kSelected;
        result->seeds.push_back(u);
        seed_bitmap.Set(u);
        seed_cost += cost;
        if (env != nullptr) {
          const std::vector<NodeId>& activated = env->SeedAndObserve(u);
          step.newly_activated = static_cast<uint32_t>(activated.size());
          for (NodeId v : activated) {
            if (rear_base.Test(v)) rear_base.Clear(v);
          }
        } else {
          rear_base.Set(u);  // selected nodes remain in T (Alg 1 semantics)
          ++selections;
        }
      } else {
        step.decision = SeedDecision::kAbandoned;
      }
    }
    metrics.decisions->Increment();
    result->steps.push_back(step);
  }

  result->effective_epsilon = worst_eps;
  result->achieved_additive_error = worst_additive;
  result->achieved_theta = (!any_estimate_decision || any_blind_decision)
                               ? 0
                               : min_decided_theta;
  return Status::OK();
}

}  // namespace

Status RunDecisionLoop(const AddAtpOptions& options,
                       const ProfitProblem& problem, AdaptiveEnvironment* env,
                       SamplingEngineHandle* engine, Rng* rng,
                       DecisionLoopTelemetry* result) {
  AdditiveRule rule(options);
  return RunLoop({"ADDATP", options.model, options.sampling,
                  options.fail_on_budget_exhausted},
                 &rule, problem, env, engine, rng, result);
}

Status RunDecisionLoop(const HatpOptions& options,
                       const ProfitProblem& problem, AdaptiveEnvironment* env,
                       SamplingEngineHandle* engine, Rng* rng,
                       DecisionLoopTelemetry* result) {
  HybridRule rule(options);
  return RunLoop({env != nullptr ? "HATP" : "HNTP", options.model,
                  options.sampling, options.fail_on_budget_exhausted},
                 &rule, problem, env, engine, rng, result);
}

}  // namespace atpm
