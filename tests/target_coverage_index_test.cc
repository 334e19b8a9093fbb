#include "rris/target_coverage_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/rr_set.h"

namespace atpm {
namespace {

// A pool of `num_sets` sets over `num_nodes` nodes, each holding 0..8
// distinct random nodes; node `absent` (if < num_nodes) is never drawn.
RRCollection RandomPool(NodeId num_nodes, uint64_t num_sets, Rng* rng,
                        NodeId absent = ~NodeId{0}) {
  RRCollection pool(num_nodes);
  std::vector<NodeId> set;
  for (uint64_t i = 0; i < num_sets; ++i) {
    set.clear();
    const uint64_t size = rng->UniformInt(9);
    for (uint64_t j = 0; j < size; ++j) {
      const NodeId v = static_cast<NodeId>(rng->UniformInt(num_nodes));
      if (v == absent || std::find(set.begin(), set.end(), v) != set.end()) {
        continue;
      }
      set.push_back(v);
    }
    pool.AddSet(set);
  }
  return pool;
}

// `count` distinct random nodes in random order.
std::vector<NodeId> RandomTargets(NodeId num_nodes, size_t count, Rng* rng) {
  std::vector<NodeId> nodes(num_nodes);
  std::iota(nodes.begin(), nodes.end(), 0);
  for (size_t i = 0; i < count; ++i) {
    std::swap(nodes[i], nodes[i + rng->UniformInt(num_nodes - i)]);
  }
  nodes.resize(count);
  return nodes;
}

// Every target's covering list equals the full inverted index's, and every
// set's target list is the set filtered to T (so its size is the brute-force
// per-set target count).
void ExpectMatchesFullIndex(RRCollection* pool,
                            const std::vector<NodeId>& targets) {
  const TargetCoverageIndex index(*pool, targets);
  pool->BuildIndex();
  for (NodeId t : targets) {
    const std::span<const uint32_t> got = index.CoveringSets(t);
    const std::span<const uint32_t> want = pool->CoveringSets(t);
    EXPECT_TRUE(std::ranges::equal(got, want)) << "target " << t;
    EXPECT_TRUE(std::ranges::is_sorted(got)) << "target " << t;
  }
  BitVector in_t(pool->num_nodes());
  for (NodeId t : targets) in_t.Set(t);
  for (uint64_t i = 0; i < pool->num_sets(); ++i) {
    std::vector<NodeId> want;
    for (NodeId w : pool->set(i)) {
      if (in_t.Test(w)) want.push_back(w);
    }
    EXPECT_TRUE(std::ranges::equal(index.TargetsOf(i), want)) << "set " << i;
  }
}

TEST(TargetCoverageIndexTest, RandomPoolsMatchFullIndex) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const NodeId n = 50 + static_cast<NodeId>(rng.UniformInt(200));
    RRCollection pool = RandomPool(n, 1 + rng.UniformInt(3000), &rng);
    const std::vector<NodeId> targets =
        RandomTargets(n, 1 + rng.UniformInt(n / 2), &rng);
    SCOPED_TRACE(seed);
    ExpectMatchesFullIndex(&pool, targets);
  }
}

TEST(TargetCoverageIndexTest, SampledPoolMatchesFullIndex) {
  Rng rng(9);
  BarabasiAlbertOptions options;
  options.num_nodes = 500;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  RRSetGenerator generator(g);
  RRCollection pool(g.num_nodes());
  pool.Generate(&generator, nullptr, g.num_nodes(), 5000, &rng);
  ExpectMatchesFullIndex(&pool, RandomTargets(g.num_nodes(), 25, &rng));
}

TEST(TargetCoverageIndexTest, TargetInNoSet) {
  Rng rng(3);
  RRCollection pool = RandomPool(100, 800, &rng, /*absent=*/17);
  const std::vector<NodeId> targets = {4, 17, 60};
  ExpectMatchesFullIndex(&pool, targets);
  const TargetCoverageIndex index(pool, targets);
  EXPECT_TRUE(index.CoveringSets(17).empty());
}

TEST(TargetCoverageIndexTest, SingleSet) {
  RRCollection pool(6);
  pool.AddSet(std::vector<NodeId>{5, 1, 3});
  const std::vector<NodeId> targets = {3, 0, 5};
  ExpectMatchesFullIndex(&pool, targets);
  const TargetCoverageIndex index(pool, targets);
  EXPECT_EQ(index.CoveringSets(3).size(), 1u);
  EXPECT_TRUE(index.CoveringSets(0).empty());
  EXPECT_TRUE(std::ranges::equal(index.TargetsOf(0),
                                 std::vector<NodeId>{5, 3}));
}

TEST(TargetCoverageIndexTest, AllNodesAsTargets) {
  Rng rng(4);
  RRCollection pool = RandomPool(120, 2000, &rng);
  // T = V in a shuffled order: the per-set lists are the pool's own sets.
  const std::vector<NodeId> targets = RandomTargets(120, 120, &rng);
  ExpectMatchesFullIndex(&pool, targets);
  const TargetCoverageIndex index(pool, targets);
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    EXPECT_EQ(index.TargetsOf(i).data(), pool.set(i).data());
  }
}

TEST(TargetCoverageIndexTest, EmptyPool) {
  RRCollection pool(10);
  const std::vector<NodeId> targets = {2, 7};
  const TargetCoverageIndex index(pool, targets);
  EXPECT_TRUE(index.CoveringSets(2).empty());
  EXPECT_TRUE(index.CoveringSets(7).empty());
}

}  // namespace
}  // namespace atpm
