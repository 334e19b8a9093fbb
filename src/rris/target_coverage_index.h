#ifndef ATPM_RRIS_TARGET_COVERAGE_INDEX_H_
#define ATPM_RRIS_TARGET_COVERAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rris/rr_collection.h"

namespace atpm {

/// Coverage index of a stored pool restricted to a target set T:
///   - for each target t, the ids of the sets containing t, ascending
///     (|CoveringSets(t)| = Cov_R({t}));
///   - for each set R_i, the targets it holds (R_i ∩ T, in set order).
///
/// The fixed-sample greedies (NSG / NDG) only ever ask about targets, so
/// they read this instead of the pool's full inverted index
/// (RRCollection::BuildIndex): it is built in one pass over the pool plus
/// one over the target entries, and takes O(Σ_{t∈T} Cov_R(t) + n + θ)
/// memory. When T = V every pool entry is a target entry, and the per-set
/// lists are the pool's own sets (no copy), so the index costs what the
/// full inverted index does.
///
/// The index reads `pool` in place: the pool must outlive it and stay
/// unchanged while it is used. Set ids are uint32_t, so the pool must hold
/// at most 2^32 - 1 sets.
class TargetCoverageIndex {
 public:
  /// Builds the index of `pool` for `targets`, which must be distinct
  /// nodes of the pool's universe.
  TargetCoverageIndex(const RRCollection& pool,
                      std::span<const NodeId> targets);

  /// Ids of the sets containing target `t`, ascending; empty for a node
  /// outside T.
  std::span<const uint32_t> CoveringSets(NodeId t) const {
    return {cover_sets_.data() + cover_offsets_[t],
            static_cast<size_t>(cover_offsets_[t + 1] - cover_offsets_[t])};
  }

  /// Targets held by set `i`: |TargetsOf(i)| = |R_i ∩ T|.
  std::span<const NodeId> TargetsOf(uint64_t i) const {
    if (set_offsets_.empty()) return pool_->set(i);  // T = V
    return {set_targets_.data() + set_offsets_[i],
            static_cast<size_t>(set_offsets_[i + 1] - set_offsets_[i])};
  }

 private:
  const RRCollection* pool_;
  // node -> covering set ids (CSR); only targets have entries.
  std::vector<uint64_t> cover_offsets_;
  std::vector<uint32_t> cover_sets_;
  // set id -> targets it holds (CSR); both empty when T = V.
  std::vector<uint64_t> set_offsets_;
  std::vector<NodeId> set_targets_;
};

}  // namespace atpm

#endif  // ATPM_RRIS_TARGET_COVERAGE_INDEX_H_
