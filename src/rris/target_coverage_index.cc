#include "rris/target_coverage_index.h"

#include <limits>

#include "common/bit_vector.h"
#include "common/logging.h"

namespace atpm {

TargetCoverageIndex::TargetCoverageIndex(const RRCollection& pool,
                                         std::span<const NodeId> targets)
    : pool_(&pool), cover_offsets_(pool.num_nodes() + 1, 0) {
  const NodeId n = pool.num_nodes();
  const uint64_t num_sets = pool.num_sets();
  ATPM_DCHECK(num_sets <= std::numeric_limits<uint32_t>::max());

  // One pass over the pool: per-target coverage counts and, unless every
  // node is a target (distinct targets, |T| = n), the per-set target lists.
  if (targets.size() == n) {
    for (uint64_t i = 0; i < num_sets; ++i) {
      for (NodeId w : pool.set(i)) ++cover_offsets_[w + 1];
    }
  } else {
    BitVector in_t(n);
    for (NodeId t : targets) in_t.Set(t);
    set_offsets_.reserve(num_sets + 1);
    set_offsets_.push_back(0);
    for (uint64_t i = 0; i < num_sets; ++i) {
      for (NodeId w : pool.set(i)) {
        if (!in_t.Test(w)) continue;
        set_targets_.push_back(w);
        ++cover_offsets_[w + 1];
      }
      set_offsets_.push_back(set_targets_.size());
    }
  }
  for (NodeId v = 0; v < n; ++v) cover_offsets_[v + 1] += cover_offsets_[v];

  // Transpose the per-set lists; sets are visited in ascending order, so
  // every target's covering list comes out sorted.
  cover_sets_.resize(cover_offsets_.back());
  std::vector<uint64_t> cursor(cover_offsets_.begin(),
                               cover_offsets_.end() - 1);
  for (uint64_t i = 0; i < num_sets; ++i) {
    for (NodeId w : TargetsOf(i)) {
      cover_sets_[cursor[w]++] = static_cast<uint32_t>(i);
    }
  }
}

}  // namespace atpm
