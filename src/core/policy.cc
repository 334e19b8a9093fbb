#include "core/policy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace atpm {

namespace {

/// Global-registry instruments of the speculative pipelining layer.
/// Registered once on first use.
struct PolicyMetrics {
  obs::Counter* spec_hits;
  obs::Counter* spec_misses;
  obs::Counter* spec_discards;

  static const PolicyMetrics& Get() {
    static const PolicyMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* m = new PolicyMetrics();
      m->spec_hits = reg.RegisterCounter(
          "atpm_speculation_hits_total",
          "Decisions whose first round was served from a speculative answer");
      m->spec_misses = reg.RegisterCounter(
          "atpm_speculation_misses_total",
          "Speculating decisions that found no usable stored answer");
      m->spec_discards = reg.RegisterCounter(
          "atpm_speculation_discards_total",
          "Stored speculative answers discarded stale or undersized");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

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

SpeculativeRoundPlanner::SpeculativeRoundPlanner(
    const SamplingOptions& sampling, std::span<const NodeId> targets,
    DecisionLoopTelemetry* telemetry)
    : batched_(sampling.batched_rounds),
      // Speculation shares a round's pool, so it needs batched rounds; the
      // literal two-pool sampling ignores the window.
      window_(sampling.batched_rounds ? sampling.lookahead_window : 0),
      targets_(targets),
      telemetry_(telemetry) {
  if (window_ > 0) {
    entries_.resize(targets.size());
    // One snapshot per window slot, pre-sized so the batch's base pointers
    // stay stable. No candidate has more than |T| - 1 successors to
    // speculate on, so a wider window never fills more slots.
    rear_bases_.resize(std::min<size_t>(window_, targets.size()));
  }
}

void SpeculativeRoundPlanner::Begin(size_t position, [[maybe_unused]] NodeId u,
                                    uint64_t epoch, uint64_t min_theta) {
  position_ = position;
  active_.reset();
  if (window_ == 0) return;
  ATPM_DCHECK(position < targets_.size() && targets_[position] == u);
  // The run's telemetry is the exact source; the global counters are a
  // scrape-time mirror of the same events.
  const PolicyMetrics& metrics = PolicyMetrics::Get();
  Entry& entry = entries_[position];
  if (!entry.valid) {
    ++telemetry_->speculation_misses;
    metrics.spec_misses->Increment();
    return;
  }
  entry.valid = false;  // one-shot either way
  if (entry.epoch != epoch || entry.theta < min_theta) {
    ++telemetry_->speculation_discarded;
    ++telemetry_->speculation_misses;
    metrics.spec_discards->Increment();
    metrics.spec_misses->Increment();
    return;
  }
  ++telemetry_->speculation_hits;
  metrics.spec_hits->Increment();
  active_ = FirstRoundAnswer{entry.front_hits, entry.rear_hits, entry.theta};
}

Result<SpeculativeRoundPlanner::RoundStep> SpeculativeRoundPlanner::NextRound(
    SamplingEngine* engine, NodeId u, const BitVector& front_base,
    const BitVector& rear_base, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t epoch, uint64_t budget_remaining, Rng* rng,
    FrontRearHits* hits) {
  if (std::optional<FirstRoundAnswer> served = Serve(theta)) {
    hits->front = served->front_hits;
    hits->rear = served->rear_hits;
    hits->theta = served->theta;
    hits->pools = 0;
    hits->queries = 0;
    return RoundStep::kServed;
  }
  // An exhausted run budget blocks all further sampling (serving stored
  // answers above stays free); the caller concludes the decision on
  // whatever evidence it already holds.
  const BudgetGate* gate = engine->budget();
  if (gate != nullptr && gate->Exhausted() != BudgetStop::kNone) {
    hits->theta = 0;
    return RoundStep::kDegraded;
  }
  if (RoundRrSets(theta, batched_) > budget_remaining) {
    return RoundStep::kOverBudget;
  }
  Result<FrontRearHits> sampled = SampleRound(
      engine, u, front_base, rear_base, removed, num_alive, theta, epoch,
      rng);
  if (!sampled.ok()) return sampled.status();
  *hits = std::move(sampled).value();
  // A pool cut short mid-round (hits->theta < theta, possibly 0) is the
  // gate tripping between the check above and the batch finishing.
  return hits->theta == theta ? RoundStep::kSampled : RoundStep::kDegraded;
}

std::optional<SpeculativeRoundPlanner::FirstRoundAnswer>
SpeculativeRoundPlanner::Serve(uint64_t theta) {
  if (!active_.has_value()) return std::nullopt;
  if (active_->theta < theta) {
    // θ_r grows strictly round over round, so once outgrown the answer can
    // never serve this candidate again.
    active_.reset();
    return std::nullopt;
  }
  ++telemetry_->speculation_rounds_served;
  return active_;
}

void SpeculativeRoundPlanner::AddSpeculativeQueries(
    const BitVector& front_base, const BitVector& rear_base, uint64_t epoch,
    uint64_t theta) {
  // The rear base candidate c_j sees natively is the current candidate set
  // minus every intermediate candidate: each examination clears its node
  // whether it ends skipped or abandoned (a selection would bump the epoch
  // and void the answer anyway). Build those bases progressively off one
  // running copy.
  size_t covered = 0;
  running_rear_ = rear_base;
  for (size_t i = position_ + 1;
       i < targets_.size() && covered < window_; ++i) {
    const NodeId c = targets_[i];
    // An upcoming candidate absent from the rear base is already activated
    // (activation clears it the moment it is observed): it will be skipped
    // without sampling, and its native clear-on-examination is a no-op, so
    // it neither consumes a window slot nor shadows later rear bases.
    if (!rear_base.Test(c)) continue;
    running_rear_.Clear(c);
    const Entry& entry = entries_[i];
    if (entry.valid && entry.epoch == epoch && entry.theta >= theta) {
      // Already covered at least this well by an earlier round of this
      // epoch; its clear above still shadows the rear bases of the
      // candidates behind it. A bigger pool instead REFRESHES the entry so
      // the consumer can serve deeper into its own schedule.
      ++covered;
      continue;
    }
    BitVector& snapshot = rear_bases_[pending_.size()];
    snapshot = running_rear_;
    PendingAnswer pending;
    pending.position = i;
    pending.front_index = batch_.Add(c, &front_base);
    pending.rear_index = batch_.Add(c, &snapshot);
    pending_.push_back(pending);
    ++covered;
  }
  telemetry_->speculative_queries += 2 * pending_.size();
}

Result<FrontRearHits> SpeculativeRoundPlanner::SampleRound(
    SamplingEngine* engine, NodeId u, const BitVector& front_base,
    const BitVector& rear_base, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t epoch, Rng* rng) {
  FrontRearHits hits;
  hits.theta = theta;
  if (!batched_) {
    // The literal two-pool sampling, each a one-query batch — the same RNG
    // consumption (one 64-bit draw per pool) as the historical
    // CountConditionalCoverage path, so fixed-seed runs stay bit-identical.
    batch_.Clear();
    pending_.clear();
    const uint32_t front = batch_.Add(u, &front_base);
    const Result<uint64_t> front_sampled = engine->TryCountCoverageBatch(
        &batch_, removed, num_alive, theta, rng);
    if (!front_sampled.ok()) return front_sampled.status();
    hits.front = batch_.hits(front);
    batch_.Clear();
    const uint32_t rear = batch_.Add(u, &rear_base);
    const Result<uint64_t> rear_sampled = engine->TryCountCoverageBatch(
        &batch_, removed, num_alive, theta, rng);
    if (!rear_sampled.ok()) return rear_sampled.status();
    hits.rear = batch_.hits(rear);
    hits.pools = 2;
    hits.queries = 2;
    if (front_sampled.value() != theta || rear_sampled.value() != theta) {
      // Truncated independent pools have mismatched denominators — no
      // single honest scale exists, so the round is unusable.
      hits.theta = 0;
    }
    return hits;
  }
  batch_.Clear();
  pending_.clear();
  const uint32_t front = batch_.Add(u, &front_base);
  const uint32_t rear = batch_.Add(u, &rear_base);
  if (window_ > 0) AddSpeculativeQueries(front_base, rear_base, epoch, theta);
  const Result<uint64_t> sampled = engine->TryCountCoverageBatch(
      &batch_, removed, num_alive, theta, rng);
  if (!sampled.ok()) return sampled.status();
  hits.theta = sampled.value();
  if (hits.theta > 0) {
    for (const PendingAnswer& pending : pending_) {
      Entry& entry = entries_[pending.position];
      entry.epoch = epoch;
      // Stored under the pool's ACTUAL size: a truncated pool still
      // certifies (and scales) honestly over what it drew.
      entry.theta = hits.theta;
      entry.front_hits = batch_.hits(pending.front_index);
      entry.rear_hits = batch_.hits(pending.rear_index);
      entry.valid = true;
    }
  }
  hits.front = batch_.hits(front);
  hits.rear = batch_.hits(rear);
  hits.pools = 1;
  hits.queries = batch_.size();
  return hits;
}

}  // namespace atpm
