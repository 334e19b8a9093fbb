#ifndef ATPM_RRIS_COVERAGE_BATCH_H_
#define ATPM_RRIS_COVERAGE_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "graph/graph.h"

namespace atpm {

/// One conditional-coverage question: over a pool R of RR sets, how many
/// sets contain `node` while avoiding every node of `base` — i.e.,
/// Cov_R(node | base). `base` may be nullptr for the unconditional
/// Cov_R({node}); when non-null it must not contain `node` and must outlive
/// the query's evaluation. Kept minimal on purpose: the counting kernels
/// scan the query array once per RR set, so caller-side bookkeeping lives
/// with the harvested answers, not here.
struct CoverageQuery {
  NodeId node = 0;
  const BitVector* base = nullptr;
};

/// A batch of coverage queries answered against ONE shared pool of RR sets.
///
/// The adaptive policies (ADDATP Alg. 3, HATP Alg. 4) historically drew a
/// fresh pool of θ RR sets for every single query — two pools per halving
/// round for the front/rear estimates. Since all queries of a round are
/// asked on the same residual graph, one pool can answer all of them: each
/// RR set is walked once and every query's per-seed hit counter is updated
/// in the same pass. That halves (or better, for wider batches) the RR sets
/// generated per decision.
///
/// Statistical contract: estimates answered on a shared pool are mutually
/// correlated but each is individually an unbiased θ-sample mean, so
/// per-query concentration bounds (Hoeffding, Relative+Additive) and the
/// union bound over a round's events are unaffected. What a pool must NOT
/// be shared across is *adaptive* boundaries: once an answer influences the
/// next query's base/residual (a new halving round, a new seed decision),
/// that next query needs a fresh pool, or the martingale analysis breaks.
///
/// Usage:
///   batch.Clear();
///   uint32_t front = batch.Add(u, &seed_bitmap);
///   uint32_t rear  = batch.Add(u, &candidates);
///   engine->CountCoverageBatch(&batch, &removed, n_i, theta, rng);
///   ... batch.hits(front), batch.hits(rear) ...
///
/// The batch owns the hit counters; an answering backend zeroes them
/// (ZeroHits) and accumulates into hit_data(). Batches are plain value
/// objects — reuse one across rounds to avoid reallocation.
class CoverageQueryBatch {
 public:
  /// Removes all queries (keeps capacity).
  void Clear() {
    queries_.clear();
    hits_.clear();
  }

  /// Appends the query Cov(node | base) and returns its index within the
  /// batch. Pass base == nullptr for an unconditional Cov({node}) count.
  uint32_t Add(NodeId node, const BitVector* base = nullptr) {
    ATPM_DCHECK(base == nullptr || !base->Test(node));
    queries_.push_back(CoverageQuery{node, base});
    hits_.push_back(0);
    return static_cast<uint32_t>(queries_.size() - 1);
  }

  /// Number of queries in the batch.
  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }

  /// The queries, in Add order.
  std::span<const CoverageQuery> queries() const { return queries_; }

  /// Hit counter of query `index` (valid after an engine/pool answered the
  /// batch).
  uint64_t hits(size_t index) const {
    ATPM_DCHECK(index < hits_.size());
    return hits_[index];
  }
  /// All hit counters, in Add order.
  std::span<const uint64_t> hits() const { return hits_; }

  /// Zeroes every hit counter (answering backends call this first).
  void ZeroHits() { std::fill(hits_.begin(), hits_.end(), 0); }
  /// Mutable counter storage for answering backends (size() entries).
  uint64_t* hit_data() { return hits_.data(); }

 private:
  std::vector<CoverageQuery> queries_;
  std::vector<uint64_t> hits_;
};

}  // namespace atpm

#endif  // ATPM_RRIS_COVERAGE_BATCH_H_
